"""``repro.predict`` — the analytic prediction plane.

An Amdahl/queueing surrogate per (machine, workload), fitted by
non-negative least squares from the profiler's cycle-accounting buckets
over the committed e01/e07/e10 experiment grids, persisted as canonical
JSON artifacts under ``benchmarks/fits/``, and served two ways:

* ``repro predict <machine> key=val ...`` — one config query answered
  in microseconds from the fit (refusing out-of-region queries);
* ``POST /predict`` on ``repro serve`` — the same query over HTTP.

See ``docs/PREDICT.md`` for the model form, fit procedure, and the
measured error bounds.
"""

from .artifacts import (MEDIAN_REL_BOUND, P95_REL_BOUND, available_machines,
                        default_fits_dir, error_report, fit_machine,
                        fit_path, group_means, load_fit, measure, render,
                        write_fit)
from .grids import (WorkloadSpec, fit_grid, fitted_machines, machine_specs,
                    simulate_point)
from .model import (FEATURES, feature_vector, least_squares, nnls,
                    solve_linear)
from .plane import OutOfRegionError, PredictError, PredictPlane, Predictor

__all__ = [
    "FEATURES", "MEDIAN_REL_BOUND", "OutOfRegionError", "P95_REL_BOUND",
    "PredictError", "PredictPlane", "Predictor", "WorkloadSpec",
    "available_machines", "default_fits_dir", "error_report",
    "feature_vector", "fit_grid", "fit_machine", "fit_path",
    "fitted_machines", "group_means", "least_squares", "load_fit",
    "machine_specs", "measure", "nnls", "render", "simulate_point",
    "solve_linear", "write_fit",
]
