"""E21 — the analytic surrogate validated against simulation.

The paper's quantitative core is that latency (Issue 1) and
synchronization waits (Issue 2) determine multiprocessor performance;
``repro.predict`` turns the profiler's measurement of exactly those
quantities (the cycle-accounting buckets of PR 3) into an
Amdahl/queueing model that answers config queries without simulating.
This experiment is the model-vs-measurement table.  Its cells are the
fit points themselves, one per (machine, workload, config) of the
e01/e07/e10-derived grids: each simulates its point once and returns
the bucket means.  The assembly answers every point from the committed
fit artifact under ``benchmarks/fits/`` and reports the relative-error
distribution per machine.

``repro predict --fit`` and ``--validate`` run these same cells through
the result store, so a point a bench run has simulated is read, not
simulated again.  The cells never read a fit; the assembly reads the
committed artifacts afresh on every run.  The committed baseline makes
the error bounds part of the drift gate: ``repro bench --check`` fails
if a code change silently degrades the surrogate, or the fit artifacts
drift from what simulation produces.
"""

import os

from repro.analysis import Table
from repro.exp import Experiment, one_row
from repro.predict import (MEDIAN_REL_BOUND, P95_REL_BOUND, error_report,
                           fit_grid, fitted_machines, group_means,
                           simulate_point)

FITS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fits")


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
    measured = group_means(experiment.grid, values)
    for machine in fitted_machines():
        report = error_report(FITS_DIR, machine, measured[machine])
        overall = report["overall"]
        table.add_row(machine, len(report["workloads"]), overall["points"],
                      overall["median_rel"], overall["p95_rel"],
                      overall["max_rel"], "yes" if report["ok"] else "no")
    return table


SWEEPS = {"e21_predict": Experiment(
    name="e21_predict",
    run=simulate_point,
    grid=fit_grid(),
    assemble=_assemble,
)}


#: The paper's claims, read off the table.
CLAIMS = {"e21_predict": {
    # Every fitted machine's surrogate answers within its error bounds.
    "surrogate_within_bounds": lambda rows: all(
        one_row(rows, {"machine": machine})["within bounds"] == "yes"
        for machine in fitted_machines()),
}}
