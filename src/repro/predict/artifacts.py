"""Fitting, the error report, and the fit artifacts under ``benchmarks/fits/``.

Both start from the bucket means of e21's cells (:func:`measure`), so a
fit point is simulated once per code version.  One JSON file per
machine, canonical serialization (sorted keys, fixed indent,
coefficients rounded to 12 significant digits), so that a refit on any
host is byte-identical to the committed artifact — the ``fits`` leg of
``benchmarks/gate.py`` refits and compares bytes.
"""

import json
import os

from ..obs.analysis.accounting import BUCKETS
from .grids import fit_grid, fitted_machines, machine_specs
from .model import (ARTIFACT_DIGITS, FEATURES, feature_vector, nnls,
                    predict_buckets, round_sig)

__all__ = ["FORMAT", "MEDIAN_REL_BOUND", "P95_REL_BOUND",
           "default_fits_dir", "error_report", "error_stats",
           "fit_machine", "fit_path", "group_means", "load_fit", "measure",
           "render", "write_fit"]

FORMAT = 1

#: Documented acceptance bounds on fit-vs-simulation relative error
#: (median, p95) over a fit's own grid.
MEDIAN_REL_BOUND = 0.10
P95_REL_BOUND = 0.25


def default_fits_dir(bench_dir=None):
    """``<benchmarks>/fits`` (honors ``REPRO_BENCH_DIR`` via find_bench_dir)."""
    from ..exp.bench import find_bench_dir

    return os.path.join(find_bench_dir(bench_dir), "fits")


def fit_path(fits_dir, machine):
    return os.path.join(fits_dir, f"{machine}.json")


def error_stats(errors):
    """Deterministic median / p95 / max of a list of relative errors."""
    ordered = sorted(errors)
    count = len(ordered)

    def quantile(q):
        # Nearest-rank on the sorted sample: rank ceil(q*n), 1-based.
        rank = max(1, -(-int(q * 1000) * count // 1000))
        return ordered[min(count, rank) - 1]

    return {
        "median_rel": round_sig(quantile(0.5)),
        "p95_rel": round_sig(quantile(0.95)),
        "max_rel": round_sig(ordered[-1]),
        "points": count,
    }


def _relative_errors(spec, theta, rows):
    """Each point's relative error of the summed prediction (buckets in
    ``theta``'s key order) against the sum of its bucket means."""
    errors = []
    for config, means in zip(spec.grid, rows, strict=True):
        measured = sum(means)
        features = feature_vector(*spec.scales(spec.fill(config)))
        predicted = sum(predict_buckets(theta, features).values())
        errors.append(abs(predicted - measured) / measured if measured
                      else abs(predicted))
    return errors


def fit_machine(machine, measured):
    """The full fit artifact payload for one machine: NNLS per bucket
    over its points' bucket means (``{workload: rows}``, as
    :func:`group_means` gives them)."""
    workloads = {}
    for name, spec in sorted(machine_specs(machine).items()):
        rows = measured[name]
        design = [feature_vector(*spec.scales(spec.fill(config)))
                  for config in spec.grid]
        theta = {bucket: [round_sig(t) for t in
                          nnls(design, [means[column] for means in rows])]
                 for column, bucket in enumerate(BUCKETS)}
        workloads[name] = {
            "axes": dict(spec.axes),
            "defaults": dict(spec.defaults),
            "region": spec.region(),
            "theta": theta,
            "train_error": error_stats(_relative_errors(spec, theta, rows)),
        }
    return {
        "format": FORMAT,
        "machine": machine,
        "buckets": list(BUCKETS),
        "features": list(FEATURES),
        "digits": ARTIFACT_DIGITS,
        "workloads": workloads,
    }


def error_report(fits_dir, machine, measured):
    """``machine``'s artifact in ``fits_dir`` against its points' bucket
    means (``{workload: rows}``): ``{"machine", "workloads": {name:
    stats}, "overall", "bounds", "ok"}``, ``ok`` when the overall stats
    are in bounds.  Raises ``ValueError`` when there is no artifact."""
    payload = load_fit(fits_dir, machine)
    if payload is None:
        raise ValueError(f"no fit artifact for {machine!r} in {fits_dir} "
                         "(run `repro predict --fit`)")
    specs = machine_specs(machine)
    per_workload = {}
    all_errors = []
    for name, fit in sorted(payload["workloads"].items()):
        errors = _relative_errors(specs[name], fit["theta"], measured[name])
        per_workload[name] = error_stats(errors)
        all_errors.extend(errors)
    overall = error_stats(all_errors)
    return {
        "machine": machine,
        "workloads": per_workload,
        "overall": overall,
        "bounds": {"median_rel": MEDIAN_REL_BOUND, "p95_rel": P95_REL_BOUND},
        "ok": (overall["median_rel"] <= MEDIAN_REL_BOUND
               and overall["p95_rel"] <= P95_REL_BOUND),
    }


def group_means(cells, values):
    """``{machine: {workload: rows}}`` from fit-point cells and their
    values, each ``rows`` list in grid order."""
    measured = {}
    for config, means in zip(cells, values, strict=True):
        measured.setdefault(config["machine"], {}).setdefault(
            config["workload"], []).append(means)
    return measured


def measure(machines):
    """The bucket means of every fit point of ``machines`` as
    :func:`group_means` gives them, plus ``{"cold": n, "cached": n}``.
    Each point is e21's cell, read from the result store
    (``$REPRO_STORE``) under ``repro bench``'s key, or simulated inline
    and stored."""
    from ..exp.engine import run_experiment
    from ..serve.protocol import resolve_experiment
    from ..serve.store import open_store

    experiment = resolve_experiment({"experiment": "e21_predict"},
                                    grid=fit_grid(machines))
    store = open_store()
    try:
        records = run_experiment(experiment, jobs=0, cache=store)
    finally:
        store.close()
    for record in records:
        if not record.ok:
            raise RuntimeError(
                f"fit point {record.config} failed:\n{record.error}")
    cached = sum(1 for record in records if record.cached)
    return (group_means(experiment.grid,
                        [record.value for record in records]),
            {"cold": len(records) - cached, "cached": cached})


def render(payload):
    """Canonical bytes of a fit artifact (the byte-stability contract)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_fit(payload, fits_dir):
    os.makedirs(fits_dir, exist_ok=True)
    path = fit_path(fits_dir, payload["machine"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render(payload))
    return path


def load_fit(fits_dir, machine):
    """Parsed artifact for ``machine``, or None when not fitted."""
    path = fit_path(fits_dir, machine)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"fit artifact {path} has format {payload.get('format')!r}, "
            f"this build reads format {FORMAT}")
    return payload


def available_machines(fits_dir):
    """Machines with an artifact on disk (sorted)."""
    if not os.path.isdir(fits_dir):
        return []
    return sorted(
        name[:-5] for name in os.listdir(fits_dir)
        if name.endswith(".json") and name[:-5] in fitted_machines())
