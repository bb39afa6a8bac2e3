"""The sweep executor: run a grid inline or on the persistent worker pool.

``jobs=0`` runs the grid inline in this process — the reference path,
and the one to use under a debugger.  ``jobs >= 1`` hands the grid to a
:class:`~repro.serve.scheduler.SweepScheduler`, the same pool of
long-lived worker processes ``repro serve`` and ``repro bench`` run on:
``jobs`` workers, a per-attempt timeout the scheduler *enforces* by
terminating the worker, one retry, and a structured failure row instead
of a crashed or hung sweep.

Determinism contract: records are returned in grid order, and a run's
value depends only on its config (the :class:`Experiment` purity rule),
so ``--jobs 0``, ``--jobs 1`` and ``--jobs 4`` produce identical values —
:func:`records_payload` (without timing) is byte-identical JSON.

With a store attached (``cache=``, a
:class:`~repro.serve.store.SqliteStore`), each config is looked up by
content hash of (experiment, config, code-version) first; hits never
reach a worker.  Progress streams through a :class:`repro.obs.TraceBus`
as ``sweep_begin`` / ``sweep_task`` / ``sweep_end`` events.

A timeout records which phase it struck (``RunRecord.timeout_phase``):
``"startup"`` while the worker resolves and imports the run function,
``"run"`` once it has entered it.
"""

import collections
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from .cache import config_key, key_config, repro_fingerprint

__all__ = ["RunRecord", "TaskQueue", "experiment_code_version",
           "host_cpus", "records_payload", "run_experiment"]

#: Statuses a run can end in.  ``ok`` is the only cached one.
#: ``fatal`` marks operator interrupts / resource exhaustion inside a
#: worker (KeyboardInterrupt, SystemExit, MemoryError): the traceback is
#: preserved in the failure row but the attempt is never retried.
STATUSES = ("ok", "error", "timeout", "fatal")

#: Exceptions that must not be swallowed into a retried ``error`` row.
FATAL_EXCEPTIONS = (KeyboardInterrupt, SystemExit, MemoryError)

#: Extra attempts a failed run gets before a failure row is recorded
#: (shared default between the inline path and the sweep scheduler).
DEFAULT_RETRIES = 1

#: The lifecycle phases a worker attempt moves through.  ``startup``
#: covers dispatch + resolving and importing the run function, ``run``
#: is the run function itself; a timeout records the phase it struck.
PHASES = ("startup", "run")


@dataclass
class RunRecord:
    """The structured outcome of one grid point."""

    index: int
    config: dict
    status: str = "ok"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    wall_seconds: float = 0.0
    cached: bool = False
    cache_key: Optional[str] = None
    #: For ``status == "timeout"``: the phase the final attempt was in
    #: when the deadline struck (``"startup"`` or ``"run"``).
    timeout_phase: Optional[str] = None
    #: For failed cells run on the worker pool: the tail of the
    #: worker's flight recorder (a bounded list of breadcrumb dicts) so
    #: post-mortems need no re-run.  Omitted from :meth:`payload` when
    #: absent, keeping successful rows byte-identical to older runs.
    flight: Optional[list] = None

    @property
    def ok(self):
        return self.status == "ok"

    def payload(self, include_timing=True):
        """A JSON-able dict; drop wall-clock noise for byte-identical
        comparisons across job counts."""
        out = {
            "index": self.index,
            "config": self.config,
            "status": self.status,
            "value": self.value,
            "error": self.error,
            "attempts": self.attempts,
            "cached": self.cached,
        }
        if self.timeout_phase is not None:
            out["timeout_phase"] = self.timeout_phase
        if self.flight is not None:
            out["flight"] = self.flight
        if include_timing:
            out["wall_seconds"] = round(self.wall_seconds, 3)
        return out


def records_payload(records, include_timing=False):
    """The canonical JSON-able form of a sweep's records (grid order)."""
    ordered = sorted(records, key=lambda record: record.index)
    return [record.payload(include_timing=include_timing)
            for record in ordered]


class TaskQueue:
    """A retry-aware FIFO of work items with optional requeue delays.

    Items are opaque tuples; the queue only orders them.  ``push`` adds
    an item ready immediately (or at ``not_before``), ``pop`` returns
    the oldest ready item or ``None``, and ``next_ready`` tells a
    scheduler how long it may sleep before new work matures.  The sweep
    scheduler (:mod:`repro.serve.scheduler`) keeps one per sweep.
    """

    __slots__ = ("_ready", "_delayed")

    def __init__(self):
        self._ready = collections.deque()
        self._delayed = []  # [(not_before, item)] — small, scanned linearly

    def __len__(self):
        return len(self._ready) + len(self._delayed)

    def __bool__(self):
        return bool(self._ready) or bool(self._delayed)

    def push(self, item, front=False, not_before=None):
        """Add ``item``; ``front`` jumps the FIFO (inline retries),
        ``not_before`` (a monotonic timestamp) delays maturity."""
        if not_before is not None:
            self._delayed.append((not_before, item))
        elif front:
            self._ready.appendleft(item)
        else:
            self._ready.append(item)

    def _mature(self, now):
        if not self._delayed:
            return
        due = [pair for pair in self._delayed if pair[0] <= now]
        if due:
            self._delayed = [p for p in self._delayed if p[0] > now]
            for _, item in sorted(due, key=lambda pair: pair[0]):
                self._ready.append(item)

    def pop(self, now=None):
        """The oldest ready item, or ``None`` if none has matured."""
        self._mature(time.monotonic() if now is None else now)
        return self._ready.popleft() if self._ready else None

    def next_ready(self, now=None):
        """Seconds until a delayed item matures (0 if one is ready now,
        ``None`` when the queue is empty)."""
        now = time.monotonic() if now is None else now
        self._mature(now)
        if self._ready:
            return 0.0
        if not self._delayed:
            return None
        return max(0.0, min(t for t, _ in self._delayed) - now)


def experiment_code_version(experiment):
    """The code-version stamp cache keys carry for ``experiment``: the
    repro package fingerprint plus any ``code_paths`` the experiment
    names (its benchmark module, typically).  Shared by the inline path
    and the sweep scheduler so their cache keys agree."""
    version = repro_fingerprint()
    if experiment.code_paths:
        from .cache import code_fingerprint

        version += "+" + code_fingerprint(
            *[os.path.abspath(p) for p in experiment.code_paths])
    return version


def _emit(bus, clock_start, kind, detail="", **fields):
    if bus is not None:
        bus.emit(round(time.monotonic() - clock_start, 6), "sweep", kind,
                 detail, **fields)


def host_cpus():
    """CPUs this process may run on (its affinity mask), which is what
    bounds a sweep's parallelism; ``os.cpu_count()`` counts the whole
    machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _run_inline(experiment, pending, retries):
    """Run the pending cells in this process, retrying failed ones in
    place.  Anything a run raises becomes a structured failure row,
    except the :data:`FATAL_EXCEPTIONS`, which stop the whole sweep."""
    for index, key in pending:
        config = experiment.grid[index]
        for attempt in range(retries + 1):
            started = time.monotonic()
            try:
                value = experiment.run(config)
            except FATAL_EXCEPTIONS:
                raise
            except Exception:
                error = traceback.format_exc()
                continue
            yield RunRecord(index=index, config=config, value=value,
                            attempts=attempt + 1,
                            wall_seconds=time.monotonic() - started,
                            cache_key=key)
            break
        else:
            yield RunRecord(index=index, config=config, status="error",
                            error=error, attempts=retries + 1,
                            wall_seconds=time.monotonic() - started,
                            cache_key=key)


def _run_on_pool(experiment, pending, jobs, timeout, retries):
    """Run the pending cells on a :class:`~repro.serve.scheduler.
    SweepScheduler` pool of ``jobs`` workers, one copy per cell.  The
    request names the run function by module and
    qualified name, so it must be module-level.  Retries, timeouts and
    fatal rows are the scheduler's."""
    from ..serve.scheduler import SweepScheduler

    run = experiment.run
    with SweepScheduler(workers=jobs, timeout=timeout,
                        retries=retries) as pool:
        sweep_id = pool.submit({
            "experiment": experiment.name,
            "callable": f"{run.__module__}:{run.__qualname__}",
            "grid": [experiment.grid[index] for index, _ in pending],
        })
        pool.wait(sweep_id)
        done = pool.get(sweep_id).records
    for position, (index, key) in enumerate(pending):
        record = done[position]
        record.index = index
        record.cache_key = key
        yield record


def run_experiment(experiment, jobs=None, cache=None, timeout=None,
                   retries=DEFAULT_RETRIES, bus=None, plan=None):
    """Execute every config in ``experiment.grid``; returns RunRecords
    in grid order.

    ``jobs``: pool workers (default :func:`host_cpus`); ``0`` runs the
    grid inline in this process (no isolation, no timeout — the
    debugging path).  ``timeout``: seconds per attempt (dispatch +
    import + run); an expired worker is terminated and the run retried
    up to ``retries`` more times before a ``timeout`` record is written.
    ``cache``: a store with the :class:`~repro.serve.store.SqliteStore`
    ``get``/``put`` interface; hits skip execution entirely.  ``plan``:
    the machine-level fault plan the grid was built under, which keys
    the cells as the sweep scheduler keys them (:func:`~repro.exp.cache.
    key_config`).  ``bus``: a :class:`repro.obs.TraceBus` for progress
    telemetry.
    """
    if jobs is None:
        jobs = host_cpus()
    clock_start = time.monotonic()
    code_version = (experiment_code_version(experiment)
                    if cache is not None else None)
    records = {}
    _emit(bus, clock_start, "sweep_begin", experiment.name,
          configs=len(experiment.grid), jobs=jobs)

    def finish(record):
        records[record.index] = record
        if record.ok and not record.cached and cache is not None:
            cache.put(experiment.name, record.cache_key,
                      key_config(record.config, plan), code_version,
                      record.value)
        fields = dict(index=record.index, status=record.status,
                      attempts=record.attempts, cached=record.cached,
                      wall=round(record.wall_seconds, 4))
        if record.error:
            # Surface the failure cause on the bus (last traceback line),
            # not just in the structured row.
            fields["error"] = record.error.strip().splitlines()[-1][:200]
        _emit(bus, clock_start, "sweep_task",
              f"{experiment.name}[{record.index}] {record.status}",
              **fields)

    pending = []
    for index, config in enumerate(experiment.grid):
        key = None
        if cache is not None:
            key = config_key(experiment.name, key_config(config, plan),
                             code_version)
            found, value = cache.get(experiment.name, key)
            if found:
                finish(RunRecord(index=index, config=config, value=value,
                                 cached=True, cache_key=key))
                continue
        pending.append((index, key))

    if pending:
        outcomes = (_run_inline(experiment, pending, retries) if jobs == 0
                    else _run_on_pool(experiment, pending, jobs, timeout,
                                      retries))
        for record in outcomes:
            finish(record)

    ordered = [records[index] for index in sorted(records)]
    _emit(bus, clock_start, "sweep_end", experiment.name,
          ok=sum(1 for r in ordered if r.ok),
          failed=sum(1 for r in ordered if not r.ok),
          cached=sum(1 for r in ordered if r.cached),
          wall=round(time.monotonic() - clock_start, 4))
    return ordered
