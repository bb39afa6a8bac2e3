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

from .artifacts import (available_machines, default_fits_dir, fit_machine,
                        fit_path, load_fit, render, write_fit)
from .grids import WorkloadSpec, fitted_machines, machine_specs
from .model import (FEATURES, feature_vector, least_squares, nnls,
                    solve_linear)
from .plane import OutOfRegionError, PredictError, PredictPlane, Predictor
from .validate import (MEDIAN_REL_BOUND, P95_REL_BOUND, validate_all,
                       validate_machine)

__all__ = [
    "FEATURES", "MEDIAN_REL_BOUND", "OutOfRegionError", "P95_REL_BOUND",
    "PredictError", "PredictPlane", "Predictor", "WorkloadSpec",
    "available_machines", "default_fits_dir", "feature_vector",
    "fit_machine", "fit_path", "fitted_machines", "least_squares",
    "load_fit", "machine_specs", "nnls", "render", "solve_linear",
    "validate_all", "validate_machine", "write_fit",
]
