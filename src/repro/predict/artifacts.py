"""Fitting and the on-disk fit artifacts under ``benchmarks/fits/``.

One JSON file per machine, canonical serialization (sorted keys, fixed
indent, coefficients rounded to 12 significant digits), so that a refit
on any host is byte-identical to the committed artifact — the ``fits``
leg of ``benchmarks/gate.py`` refits from scratch and compares bytes.
"""

import json
import os

from ..obs.analysis.accounting import BUCKETS
from .grids import fitted_machines, machine_specs
from .model import (ARTIFACT_DIGITS, FEATURES, feature_vector, nnls,
                    round_sig)

__all__ = ["FORMAT", "default_fits_dir", "error_stats", "fit_machine",
           "fit_path", "load_fit", "render", "write_fit"]

FORMAT = 1


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
    if count == 0:
        return {"median_rel": 0.0, "p95_rel": 0.0, "max_rel": 0.0,
                "points": 0}

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


def fit_workload(spec):
    """Fit one (machine, workload): simulate the grid, NNLS per bucket.

    Returns ``(payload, errors)`` — the artifact fragment and the
    per-point relative errors of the summed prediction against the
    measured run time.
    """
    rows = []
    for config in spec.grid:
        full = spec.fill(config)
        result = spec.simulate(full)
        means = result.bucket_means()
        rows.append((full, feature_vector(*spec.scales(full)), means))

    theta = {}
    for bucket in BUCKETS:
        design = [features for _cfg, features, _means in rows]
        targets = [means[bucket] for _cfg, _features, means in rows]
        theta[bucket] = [round_sig(t) for t in nnls(design, targets)]

    errors = []
    for _config, features, means in rows:
        measured = sum(means.values())
        predicted = sum(
            sum(t * f for t, f in zip(theta[bucket], features))
            for bucket in BUCKETS)
        errors.append(abs(predicted - measured) / measured if measured
                      else abs(predicted))

    payload = {
        "axes": dict(spec.axes),
        "defaults": dict(spec.defaults),
        "region": spec.region(),
        "theta": theta,
        "train_error": error_stats(errors),
    }
    return payload, errors


def fit_machine(machine):
    """The full fit artifact payload for one machine."""
    workloads = {}
    for name, spec in sorted(machine_specs(machine).items()):
        workloads[name], _errors = fit_workload(spec)
    return {
        "format": FORMAT,
        "machine": machine,
        "buckets": list(BUCKETS),
        "features": list(FEATURES),
        "digits": ARTIFACT_DIGITS,
        "workloads": workloads,
    }


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
