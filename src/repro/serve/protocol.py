"""What flows between client, server, and pool workers.

Three layers share the definitions here:

* **Sweep requests** — the JSON body of ``POST /sweeps``, validated by
  :class:`SweepRequest`.  A request names a registered experiment (a
  ``run_all.EXPERIMENTS`` table name such as ``e07_trapezoid``), or a
  ``module:function`` callable plus an inline ``grid`` of config dicts,
  optionally with a :class:`~repro.faults.FaultPlan`.
* **Experiment resolution** — :func:`resolve_experiment` turns a request
  spec into a live :class:`~repro.exp.Experiment` through the same
  machinery ``repro bench`` uses (:func:`~repro.exp.bench.
  build_experiment`), handing the machine-level fault plan to the
  table's ``SWEEPS`` entry as an argument: a fault-aware table (e20)
  builds its grid from it, every other table ignores it.
* **Worker pipe messages** — :func:`pool_worker_main` is the body of a
  persistent pool worker: it loops receiving ``("task", {...})``
  messages, answers ``("begin", id)`` when it enters the run function
  (so the parent can attribute timeouts to startup vs run) and
  ``("done", id, status, value, error, flight)`` when finished
  (``flight`` is ``None`` on success).

Fault plans split in two: *machine-level* fields (slow banks, network
spikes, ...) shape a fault-aware table's grid, so each cell's config
carries what it runs under and its cache key follows from the config
alone; *scheduling-level* fields (``worker_crash_rate``) crash the
worker process itself — they can never change a value, so a chaos run
and a clean run of the same cell share one store entry.  A ``callable``
request has no table to shape, so it may carry scheduling-level fields
only.
"""

import importlib
import json
import os
import signal
import sys
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..common.rng import substream
from ..exp.bench import build_experiment, find_bench_dir, suite_tables
from ..exp.engine import FATAL_EXCEPTIONS
from ..exp.experiment import Experiment
from ..faults import SCHEDULING_FIELDS, FaultPlan

__all__ = ["FlightRecorder", "ProtocolError", "SweepRequest",
           "machine_plan", "pool_worker_main", "resolve_experiment",
           "scheduling_plan"]

#: Default TCP port for ``repro serve`` (after CSG Memo 226).
DEFAULT_PORT = 8226

#: Exit code a chaos-crashed worker dies with (distinguishable from a
#: genuine fault in test output).
CRASH_EXIT_CODE = 117


class ProtocolError(ValueError):
    """A malformed or unresolvable sweep request (HTTP 400)."""


@dataclass
class SweepRequest:
    """A validated ``POST /sweeps`` body."""

    #: A run_all table name (``e07_trapezoid``) — or a display name when
    #: ``callable`` is given.
    experiment: Optional[str] = None
    #: ``"package.module:function"`` run function for inline sweeps.
    callable: Optional[str] = None
    #: Inline config dicts; replaces the declared grid when present,
    #: required with ``callable``.
    grid: Optional[List[Dict[str, Any]]] = None
    #: A FaultPlan dict (machine-level fields + ``worker_crash_rate``).
    faults: Optional[Dict[str, Any]] = None
    #: Skip store lookups (every cell is freshly simulated); results are
    #: still written back to the store.
    no_store: bool = False
    #: Per-attempt retry budget override (default: the scheduler's).
    retries: Optional[int] = None
    #: Per-attempt timeout override in seconds.
    timeout: Optional[float] = None
    #: Free-form client label echoed in status output.
    label: Optional[str] = None
    #: Benchmarks directory override (tests; defaults to auto-detect).
    bench_dir: Optional[str] = None

    _FIELDS = ("experiment", "callable", "grid", "faults", "no_store",
               "retries", "timeout", "label", "bench_dir")

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise ProtocolError("sweep request body must be a JSON object")
        unknown = set(payload) - set(cls._FIELDS)
        if unknown:
            raise ProtocolError(
                f"unknown sweep request field(s): {sorted(unknown)}")
        request = cls(**payload)
        if not request.experiment and not request.callable:
            raise ProtocolError(
                "a sweep request needs 'experiment' (a run_all table "
                "name) or 'callable' (module:function)")
        if request.callable and not request.grid:
            raise ProtocolError("'callable' sweeps need an inline 'grid'")
        if request.grid is not None:
            if (not isinstance(request.grid, list) or not request.grid
                    or not all(isinstance(c, dict) for c in request.grid)):
                raise ProtocolError(
                    "'grid' must be a non-empty list of config objects")
        if request.faults is not None:
            try:
                FaultPlan.from_dict(request.faults)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid fault plan: {exc}") from exc
            if request.callable and machine_plan(request.faults):
                raise ProtocolError(
                    "'callable' sweeps take scheduling-level faults only "
                    "(worker_crash_rate): no table grid reads the "
                    "machine-level fields")
        if request.retries is not None and request.retries < 0:
            raise ProtocolError("'retries' must be >= 0")
        if request.timeout is not None and request.timeout <= 0:
            raise ProtocolError("'timeout' must be positive")
        return request

    def as_dict(self):
        """The canonical JSON form (defaults omitted)."""
        out = {}
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is not None and value != SweepRequest.__dataclass_fields__[name].default:
                out[name] = value
        return out

    def spec(self):
        """The worker-side resolution spec (no grid — cells arrive as
        individual task configs)."""
        if self.callable:
            return {"callable": self.callable,
                    "experiment": self.experiment or self.callable}
        spec = {"experiment": self.experiment}
        if self.bench_dir:
            spec["bench_dir"] = self.bench_dir
        return spec


# ---------------------------------------------------------------------------
# fault-plan splitting


def machine_plan(faults):
    """The machine-level remainder of a fault plan dict, or ``None``
    when nothing in it can affect a simulated run."""
    if not faults:
        return None
    plan = {k: v for k, v in faults.items() if k not in SCHEDULING_FIELDS}
    if not FaultPlan.from_dict(plan).enabled:
        return None
    return plan


def scheduling_plan(faults):
    """The scheduling-level chaos parameters of a fault plan dict
    (worker crashes), or ``None`` when inert."""
    if not faults or not faults.get("worker_crash_rate"):
        return None
    plan = FaultPlan.from_dict(faults)
    return {"worker_crash_rate": plan.worker_crash_rate,
            "seed": plan.seed, "max_retries": plan.max_retries}


# ---------------------------------------------------------------------------
# experiment resolution

def _import_callable(path):
    module_name, _, fn_name = path.partition(":")
    if not module_name or not fn_name:
        raise ProtocolError(
            f"callable must be 'module:function', got {path!r}")
    try:
        module = importlib.import_module(module_name)
        return getattr(module, fn_name)
    except (ImportError, AttributeError) as exc:
        raise ProtocolError(f"cannot resolve callable {path!r}: {exc}") \
            from exc


def resolve_experiment(spec, grid=None, plan=None):
    """Build the :class:`Experiment` a spec names.

    ``plan`` (a machine-level fault plan dict, or ``None``) goes to the
    table's ``SWEEPS`` entry through :func:`~repro.exp.bench.
    build_experiment`; ``grid`` replaces the declared grid.
    """
    if spec.get("callable"):
        run = _import_callable(spec["callable"])
        return Experiment(
            name=spec.get("experiment") or spec["callable"],
            run=run,
            grid=[dict(config) for config in (grid or [{}])],
        )

    name = spec.get("experiment")
    for module_name, out_name in suite_tables(
            find_bench_dir(spec.get("bench_dir"))):
        if out_name != name:
            continue
        experiment = build_experiment(importlib.import_module(module_name),
                                      out_name, plan)
        if grid is not None:
            experiment = replace(experiment,
                                 grid=[dict(config) for config in grid])
        return experiment
    raise ProtocolError(
        f"unknown experiment {name!r} (not a run_all.EXPERIMENTS table)")


# ---------------------------------------------------------------------------
# the persistent pool worker

#: Breadcrumbs kept in a worker's in-memory flight ring (per task).
FLIGHT_RING_LIMIT = 256
#: Breadcrumbs shipped back on a ``done`` failure message.
FLIGHT_TAIL = 50


class FlightRecorder:
    """A worker's black box: a bounded :class:`~repro.obs.RingSink` of
    breadcrumb events plus a crash-safe spill file.

    Every task starts a fresh recording stamped with the sweep's trace
    id.  Breadcrumbs go two places at once: the in-memory ring (whose
    tail rides back on a failing ``done`` message) and ``flight_path``,
    truncated per task and flushed per event — so when the process dies
    by ``os._exit`` (chaos), OOM kill, or the scheduler's timeout
    ``terminate()``, the parent can still read what the worker was doing
    from the file.  Post-mortems need no re-run.
    """

    def __init__(self, worker_id, flight_path=None,
                 limit=FLIGHT_RING_LIMIT):
        import time as _time

        from ..obs import RingSink, TraceBus

        self._time = _time
        self.source = f"worker{worker_id}"
        self._limit = limit
        self.ring = RingSink(limit=limit)
        self.bus = TraceBus(self.ring)
        self.path = flight_path
        self._fh = None
        self._t0 = self._time.monotonic()
        self._stamp = {}

    def begin_task(self, task):
        """Start recording one task: fresh ring, truncated spill file,
        the task's trace stamp, and the ``flight_begin`` breadcrumb —
        a failure row carries only its own task's story."""
        from ..obs import RingSink, TraceBus

        self.ring = RingSink(limit=self._limit)
        self.bus = TraceBus(self.ring)
        self._t0 = self._time.monotonic()
        self._stamp = {}
        for key in ("trace", "sweep", "index"):
            if task.get(key) is not None:
                self._stamp[key] = task[key]
        if self.path is not None:
            try:
                self._fh = open(self.path, "w", encoding="utf-8")
            except OSError:
                self._fh = None
        self.note("flight_begin",
                  f"{task.get('experiment', '?')}[{task.get('index')}]",
                  attempt=task.get("attempt", 0))

    def note(self, kind, detail="", **fields):
        t = round(self._time.monotonic() - self._t0, 6)
        stamped = dict(self._stamp)
        stamped.update(fields)
        event = self.bus.emit(t, self.source, kind, detail, **stamped)
        if self._fh is not None and event is not None:
            try:
                self._fh.write(json.dumps(event.to_json_dict(),
                                          sort_keys=True, default=repr)
                               + "\n")
                self._fh.flush()
            except (OSError, ValueError):
                self._fh = None

    def tail(self, limit=FLIGHT_TAIL):
        """The newest breadcrumbs as JSON-able dicts."""
        return [event.to_json_dict()
                for event in list(self.ring.events)[-limit:]]


def _chaos_crash(task):
    """Deterministically crash this worker process if the task's chaos
    plan says so.  The draw comes from a substream named by (cell,
    attempt) — independent of worker identity and scheduling order —
    and attempts at or past ``max_retries`` never crash (liveness)."""
    chaos = task.get("chaos")
    if not chaos:
        return
    rate = chaos.get("worker_crash_rate", 0.0)
    attempt = task.get("attempt", 0)
    if rate <= 0.0 or attempt >= chaos.get("max_retries", 8):
        return
    stream = substream(chaos.get("seed", 0),
                       f"serve.cell{task['index']}.attempt{attempt}")
    if stream.random() < rate:
        os._exit(CRASH_EXIT_CODE)


def pool_worker_main(conn, worker_id, flight_path=None, inherited=()):
    """Body of one persistent pool worker process.

    Resolved run functions are memoized per spec, so a worker
    that serves a thousand cells of one sweep imports its bench module
    once.  Any exception a run raises ships back as a structured
    ``done`` error (with the flight-recorder tail as a sixth element);
    only a ``stop`` message or pipe loss ends the loop.  The
    :class:`FlightRecorder` spills breadcrumbs to ``flight_path`` so
    even a crash or external ``terminate()`` leaves a black box behind.
    ``inherited`` holds the scheduler-side pipe ends a forked worker was
    born with; they are closed first, so that the scheduler's death
    leaves no writer behind and ``recv`` ends the loop with EOF.
    """
    for end in inherited:
        end.close()
    # A worker forked from ``repro serve`` inherits its SIGTERM handler;
    # ``terminate()`` must end the worker, not interrupt its cell.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    runners = {}
    recorder = FlightRecorder(worker_id, flight_path=flight_path)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        task = message[1]
        task_id = task["task_id"]
        # Breadcrumb lands before the chaos draw: a chaos crash must
        # leave evidence of the task it interrupted.
        recorder.begin_task(task)
        _chaos_crash(task)
        try:
            memo = json.dumps(task["spec"], sort_keys=True)
            run = runners.get(memo)
            if run is None:
                recorder.note("flight_resolve", str(task["spec"]))
                run = resolve_experiment(task["spec"]).run
                runners[memo] = run
            conn.send(("begin", task_id))
            recorder.note("flight_run")
            value = run(task["config"])
            recorder.note("flight_done")
            conn.send(("done", task_id, "ok", value, None, None))
        except FATAL_EXCEPTIONS:
            # Operator interrupts / resource exhaustion: ship the
            # traceback as a never-retried ``fatal`` row, then leave the
            # loop — a worker that just blew its memory budget (or was
            # interrupted) must not quietly pick up the next task.
            failure = traceback.format_exc()
            recorder.note("flight_fatal",
                          failure.strip().splitlines()[-1][:200])
            try:
                conn.send(("done", task_id, "fatal", None, failure,
                           recorder.tail()))
            except (OSError, ValueError):
                print(failure, file=sys.stderr)
            conn.close()
            return
        except BaseException:  # noqa: BLE001 — parent turns this into a row
            failure = traceback.format_exc()
            recorder.note("flight_error",
                          failure.strip().splitlines()[-1][:200])
            try:
                conn.send(("done", task_id, "error", None, failure,
                           recorder.tail()))
            except (OSError, ValueError):
                print(failure, file=sys.stderr)
                return
