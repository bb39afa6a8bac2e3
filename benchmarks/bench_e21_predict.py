"""E21 — the analytic surrogate validated against simulation.

The paper's quantitative core is that latency (Issue 1) and
synchronization waits (Issue 2) determine multiprocessor performance;
``repro.predict`` turns the profiler's measurement of exactly those
quantities (the cycle-accounting buckets of PR 3) into an
Amdahl/queueing model that answers config queries without simulating.
This experiment is the model-vs-measurement table: for every machine
with a committed fit artifact under ``benchmarks/fits/``, re-simulate
the fitted e01/e07/e10-derived grids, answer each point from the
committed fit, and report the relative-error distribution.

The committed baseline makes the error bounds part of the drift gate:
``repro bench --check`` fails if a code change silently degrades the
surrogate (or the fit artifacts drift from what simulation produces).
The fit artifacts themselves are hashed into the cache key, so a refit
invalidates cached rows.
"""

import glob
import os

from repro.analysis import Table
from repro.exp import Experiment, one_row
from repro.predict import (MEDIAN_REL_BOUND, P95_REL_BOUND, default_fits_dir,
                           fitted_machines, validate_machine)

_FITS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fits", "*.json")))


def run_point(config):
    """Validate one machine's committed fit against fresh simulation."""
    report = validate_machine(config["machine"], default_fits_dir())
    overall = report["overall"]
    return [
        report["machine"],
        len(report["workloads"]),
        overall["points"],
        overall["median_rel"],
        overall["p95_rel"],
        overall["max_rel"],
        "yes" if report["ok"] else "no",
    ]


def _assemble(experiment, values):
    table = Table(
        "E21  Analytic surrogate vs simulation: Amdahl/queueing fit "
        "error over the e01/e07/e10 grids",
        ["machine", "workloads", "points", "median rel err", "p95 rel err",
         "max rel err", "within bounds"],
        notes=[
            "fit: NNLS per accounting bucket over the Amdahl basis "
            "[1, W, W/N, L, LW/N, W(N-1)/N, LW(N-1)/N, W*max(0,L-N)/N]",
            f"bounds: median <= {MEDIAN_REL_BOUND:.0%}, "
            f"p95 <= {P95_REL_BOUND:.0%} (repro predict --validate)",
        ],
    )
    for row in values:
        table.add_row(*row)
    return table


SWEEPS = {"e21_predict": Experiment(
    name="e21_predict",
    run=run_point,
    grid=[{"machine": machine} for machine in fitted_machines()],
    assemble=_assemble,
    code_paths=[os.path.abspath(__file__)] + _FITS,
)}


def run_experiment():
    experiment = SWEEPS["e21_predict"]
    return experiment.table(experiment.run_inline())


#: The paper's claims, read off the table.
CLAIMS = {"e21_predict": {
    # Every fitted machine's surrogate answers within its error bounds.
    "surrogate_within_bounds": lambda rows: all(
        one_row(rows, {"machine": machine})["within bounds"] == "yes"
        for machine in fitted_machines()),
}}
