"""The parallel sweep engine (grids, executor, cache keys, bench suite).

The paper's argument is carried by 19 parameter-sweep experiments; this
package is the machinery that runs such sweeps without the reproduction
of a parallelism paper being itself embarrassingly sequential:

* :class:`Experiment` — a parameter grid plus a pure
  ``run(config) -> value`` function (:mod:`repro.exp.experiment`);
* :func:`run_experiment` — runs the grid inline, or on the persistent
  worker pool of :mod:`repro.serve.scheduler` with a per-run timeout,
  one retry, and structured failure rows instead of crashed sweeps
  (:mod:`repro.exp.engine`);
* :func:`~repro.exp.cache.config_key` — the content hash of
  (experiment, config, code-version) that results are stored under in
  the SQLite store of :mod:`repro.serve.store`, so re-runs are
  incremental (:mod:`repro.exp.cache`);
* :mod:`repro.exp.claims` — the paper's claims as predicates over a
  table's rows, checked on every ``repro bench`` run;
* :mod:`repro.exp.bench` — the benchmark-suite orchestration behind
  ``repro bench``.

Progress and telemetry stream through the existing :mod:`repro.obs` bus
(event kinds ``sweep_begin`` / ``sweep_task`` / ``sweep_end``).
See docs/EXPERIMENT_ENGINE.md.
"""

from .cache import code_fingerprint, invalidate_fingerprints
from .claims import one_row, row_at
from .engine import RunRecord, TaskQueue, records_payload, run_experiment
from .experiment import Experiment, grid
from .tables import parse_cell

__all__ = [
    "Experiment",
    "RunRecord",
    "TaskQueue",
    "code_fingerprint",
    "grid",
    "invalidate_fingerprints",
    "one_row",
    "parse_cell",
    "records_payload",
    "row_at",
    "run_experiment",
]
