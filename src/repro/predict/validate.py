"""Fit-vs-simulation validation and the documented error bounds.

``repro predict --validate`` (and its tier-1 test, and the
committed ``e21_predict`` benchmark table) all flow through
:func:`validate_machine`: re-simulate the fit grid, answer every point
from the *committed* artifact, and summarize the relative error of the
predicted run time.  The bounds below are the acceptance contract — a
fit whose median error exceeds 10% or whose p95 exceeds 25% over its
own e01/e07/e10-derived grid fails validation loudly.
"""

from .artifacts import error_stats, load_fit
from .grids import machine_specs
from .model import feature_vector, predict_buckets

__all__ = ["MEDIAN_REL_BOUND", "P95_REL_BOUND", "validate_machine",
           "validate_all"]

#: Documented acceptance bounds on fit-vs-simulation relative error.
MEDIAN_REL_BOUND = 0.10
P95_REL_BOUND = 0.25


def validate_machine(machine, fits_dir):
    """Error report for one machine's committed artifact.

    Returns ``{"machine", "workloads": {name: stats}, "overall": stats,
    "bounds": {...}, "ok": bool}``; raises ``ValueError`` when no
    artifact exists.
    """
    payload = load_fit(fits_dir, machine)
    if payload is None:
        raise ValueError(
            f"no fit artifact for {machine!r} in {fits_dir} "
            "(run `repro predict --fit`)")
    specs = machine_specs(machine)
    per_workload = {}
    all_errors = []
    for name in sorted(payload["workloads"]):
        fit = payload["workloads"][name]
        spec = specs[name]
        errors = []
        for config in spec.grid:
            full = spec.fill(config)
            measured = sum(spec.simulate(full).bucket_means().values())
            features = feature_vector(*spec.scales(full))
            predicted = sum(predict_buckets(fit["theta"], features).values())
            errors.append(abs(predicted - measured) / measured if measured
                          else abs(predicted))
        per_workload[name] = error_stats(errors)
        all_errors.extend(errors)
    overall = error_stats(all_errors)
    ok = (overall["median_rel"] <= MEDIAN_REL_BOUND
          and overall["p95_rel"] <= P95_REL_BOUND)
    return {
        "machine": machine,
        "workloads": per_workload,
        "overall": overall,
        "bounds": {"median_rel": MEDIAN_REL_BOUND, "p95_rel": P95_REL_BOUND},
        "ok": ok,
    }


def validate_all(machines, fits_dir):
    """Reports for several machines plus an aggregate ``ok``."""
    reports = [validate_machine(machine, fits_dir) for machine in machines]
    return {"machines": reports, "ok": all(r["ok"] for r in reports)}
