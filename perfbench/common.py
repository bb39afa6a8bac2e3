"""Small pieces every workload module shares."""

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: The workloads, in the order the self-check runs them.
NAMES = ("dataflow", "vonneumann", "suite", "serve")


def load_workload(name, tracer):
    from serveops import ServeWorkload
    from simops import DataflowWorkload, VonNeumannWorkload
    from suiteops import SuiteWorkload

    classes = {"dataflow": DataflowWorkload,
               "vonneumann": VonNeumannWorkload,
               "suite": SuiteWorkload, "serve": ServeWorkload}
    return classes[name](tracer)


@dataclass
class Outcome:
    """What one op produced, as the driver needs it."""

    ok: bool
    error: Optional[str] = None
    #: sha256 of the op's simulated outputs (see :func:`digest_of`).
    digest: str = ""
    #: Kernel events the op simulated (0 where the op cannot see them).
    events: int = 0
    #: Grid cells the op covered (one machine run counts as one cell).
    cells: int = 1
    #: Exact per-layer counts (``dataflow.tokens`` and the like).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Calibration loop time (ms) measured while the op ran, for long
    #: multi-process ops; when set it replaces the bracketing estimate.
    calib_ms: Optional[float] = None
    #: Workload-specific extras (per-cell walls, sweep stats, ...).
    extra: Dict[str, Any] = field(default_factory=dict)


def digest_of(payload):
    """A stable hash of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class NullTracer:
    """Stands in for :class:`tracing.Tracer` in untraced runs: no spans,
    no wrappers, nothing on the measured path but a null context."""

    op = None
    _null = nullcontext()

    def span(self, name):
        return self._null


class Workload:
    """What the driver runs a workload through, with no-op defaults.

    ``ops()`` yields ``(kind, spec)`` forever, in rounds of
    ``round_len`` ops that hold every stratum once; ``run(kind, spec)``
    runs one op and returns its :class:`Outcome`; ``check(record)``
    judges it after its timing.  A traced run calls ``reset()``, then
    ``layers()`` to wrap the layers, then replays the ops.
    """

    #: Op kind whose times give ``op_ms`` and ``cells_per_s``.
    primary = "run"
    #: (op kind, metric) pairs of further kinds reported by median time.
    side_metrics = ()
    #: Seconds between calibration samples (0: one after every op).
    calib_interval = 0.0
    #: Whether an op spreads over processes on every CPU, rather than
    #: running on the driver's thread (see hostcalib.Calibrator).
    all_cpus = False
    #: Span whose self time per kernel event is its ``ns_per_event``.
    run_layer = None
    round_len = 1

    def __init__(self, tracer):
        self.tracer = tracer

    def configure(self, root, work, seed, tiny=False):
        self.root = os.path.abspath(root)
        self.work = work
        self.seed = seed

    def setup(self):
        pass

    def warmup(self):
        """Runs untimed before the timed loop; returns the outcome of
        the stream's first op when it ran that op, else None."""
        return None

    def prepare(self, kind, spec):
        """Untimed set-up for the next op."""

    def check(self, record):
        pass  # ops that judge themselves as they run

    def reset(self):
        pass  # ops that share no state

    def close(self):
        pass

    def layers(self):
        pass

    def layer_events(self, layer, records):
        """Kernel events simulated under ``layer`` (the ns/event base)."""
        if layer is None or layer != self.run_layer:
            return 0
        return sum(r.outcome.events for r in records if r.outcome.ok)

    def layer_extras(self, records, calib):
        """[(metric, value, unit)] the workload measures itself."""
        return []

    def extra_counts(self):
        return {}
