"""The sweep executor: fan a grid out across worker processes.

One worker process per run (not a long-lived pool) so that a per-run
timeout can be *enforced* — the scheduler terminates the process, retries
once, and records a structured failure row instead of crashing or
hanging the sweep.  Up to ``jobs`` workers are live at once; finished
slots are refilled immediately, so the wall clock approaches
``serial_time / jobs`` for uniform grids.

Determinism contract: records are returned in grid order, and a run's
value depends only on its config (the :class:`Experiment` purity rule),
so ``--jobs 1`` and ``--jobs 4`` produce identical values —
:func:`records_payload` (without timing) is byte-identical JSON.

With a :class:`~repro.exp.cache.ResultCache` attached, each config is
looked up by content hash of (experiment, config, code-version) first;
hits never spawn a worker.  Progress streams through a
:class:`repro.obs.TraceBus` as ``sweep_begin`` / ``sweep_task`` /
``sweep_end`` events.

The timeout clock starts *before* the worker process is spawned and the
worker reports a ``begin`` handshake when it is about to enter the run
function, so interpreter startup and module import time count against
the budget too; a run that times out records which phase it died in
(``RunRecord.timeout_phase``: ``"startup"`` or ``"run"``).

The retry-aware work list lives in :class:`TaskQueue` so the long-lived
sweep service (:mod:`repro.serve.scheduler`) schedules from the same
structure the batch engine does.
"""

import collections
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Optional

from .cache import config_key, repro_fingerprint

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
#: (shared default between the batch engine and the sweep service).
DEFAULT_RETRIES = 1

#: The lifecycle phases a worker attempt moves through.  ``startup``
#: covers process spawn + interpreter/module import, ``run`` is the run
#: function itself; a timeout records the phase it struck.
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
    #: For failed cells run under the sweep service: the tail of the
    #: worker's flight recorder (a bounded list of breadcrumb dicts) so
    #: post-mortems need no re-run.  Omitted from :meth:`payload` when
    #: absent, keeping successful rows byte-identical to older runs.
    flight: Optional[list] = None
    #: The cell was answered by the analytic surrogate
    #: (:mod:`repro.predict`) instead of a simulation run.  Only present
    #: in :meth:`payload` when True — simulated rows stay byte-identical.
    predicted: bool = False

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
        if self.predicted:
            out["predicted"] = True
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
    scheduler how long it may sleep before new work matures.  Both the
    batch engine below and the long-running sweep service
    (:mod:`repro.serve.scheduler`) drive their workers from this.
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
    names (its benchmark module, typically).  Shared by the batch engine
    and the sweep service so their cache keys agree."""
    version = repro_fingerprint()
    if experiment.code_paths:
        from .cache import code_fingerprint

        version += "+" + code_fingerprint(
            *[os.path.abspath(p) for p in experiment.code_paths])
    return version


def _worker_main(conn, run, config):
    """Child-process body: run one config, ship the outcome back.

    The ``begin`` handshake marks the startup→run phase transition so
    the parent can attribute a timeout to interpreter/import startup
    versus the run function itself.
    """
    import sys

    try:
        try:
            conn.send(("begin", None, None))
            value = run(config)
            conn.send(("ok", value, None))
            return
        except FATAL_EXCEPTIONS:
            # Operator interrupts and resource exhaustion are not
            # ordinary run failures: ship them as ``fatal`` so the
            # parent records the traceback without burning retries
            # re-raising the same condition.
            status, failure = "fatal", traceback.format_exc()
        except BaseException:  # noqa: BLE001 — parent turns this into a row
            status, failure = "error", traceback.format_exc()
        try:
            conn.send((status, None, failure))
        except (OSError, ValueError):
            # The pipe is gone (parent died / timed us out) or closed —
            # nothing structured can be shipped, but don't silently eat
            # the diagnostic: the parent records "worker exited without a
            # result", so leave the traceback on stderr to pair with it.
            print(failure, file=sys.stderr)
    finally:
        conn.close()


@dataclass
class _Task:
    """One live worker and the run it owns."""

    index: int
    attempt: int
    process: Any
    conn: Any
    started: float
    deadline: Optional[float] = None
    cache_key: Optional[str] = None
    phase: str = "startup"


def _spawn(context, experiment, index, attempt, timeout):
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_worker_main,
        args=(child_conn, experiment.run, experiment.grid[index]),
        name=f"sweep-{experiment.name}-{index}",
        daemon=True,
    )
    # The clock starts before the fork/exec so spawn + import time is
    # charged against the same per-run budget as the run itself.
    now = time.monotonic()
    process.start()
    child_conn.close()
    return _Task(
        index=index, attempt=attempt, process=process, conn=parent_conn,
        started=now, deadline=(now + timeout) if timeout else None,
    )


def _recv(task):
    """One message off the worker pipe, or None on EOF/breakage."""
    try:
        return task.conn.recv()
    except (EOFError, OSError):
        return None


def _reap(task, message):
    """Close and join a finished worker; diagnose a silent death."""
    task.conn.close()
    task.process.join()
    if message is None:
        code = task.process.exitcode
        message = ("error", None,
                   f"worker exited without a result (exit code {code})")
    return message


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


def run_experiment(experiment, jobs=None, cache=None, timeout=None,
                   retries=DEFAULT_RETRIES, bus=None, progress=None):
    """Execute every config in ``experiment.grid``; returns RunRecords
    in grid order.

    ``jobs``: worker processes (default :func:`host_cpus`); ``0`` runs
    the grid inline in this process (no isolation, no timeout — the
    debugging path).  ``timeout``: seconds per attempt (spawn + import
    + run); an expired worker is terminated and the run retried up to
    ``retries`` more times before a ``timeout`` record is written.
    ``cache``: any content-addressed store with the
    :class:`~repro.exp.cache.ResultCache` ``get``/``put`` interface;
    hits skip execution entirely.  ``bus``: a :class:`repro.obs.TraceBus`
    for progress telemetry.  ``progress``: callable invoked with each
    finished :class:`RunRecord`.
    """
    if jobs is None:
        jobs = host_cpus()
    clock_start = time.monotonic()
    code_version = (experiment_code_version(experiment)
                    if cache is not None else None)

    records = {}
    pending = TaskQueue()
    _emit(bus, clock_start, "sweep_begin", experiment.name,
          configs=len(experiment.grid), jobs=jobs)

    def finish(record):
        records[record.index] = record
        fields = dict(index=record.index, status=record.status,
                      attempts=record.attempts, cached=record.cached,
                      wall=round(record.wall_seconds, 4))
        if record.error:
            # Surface the failure cause on the bus (last traceback line),
            # not just in the structured row — so a live `repro bench`
            # progress stream shows *why* a grid point failed.
            fields["error"] = record.error.strip().splitlines()[-1][:200]
        _emit(bus, clock_start, "sweep_task",
              f"{experiment.name}[{record.index}] {record.status}",
              **fields)
        if progress is not None:
            progress(record)

    # ------------------------------------------------------------------
    # cache pass
    for index, config in enumerate(experiment.grid):
        key = None
        if cache is not None:
            key = config_key(experiment.name, config, code_version)
            found, value = cache.get(experiment.name, key)
            if found:
                finish(RunRecord(index=index, config=config, status="ok",
                                 value=value, cached=True, cache_key=key))
                continue
        pending.push((index, 0, key))

    def record_outcome(index, attempt, key, message, wall, phase=None):
        status, value, error = message
        config = experiment.grid[index]
        if status == "ok":
            if cache is not None:
                cache.put(experiment.name, key, config, code_version, value)
            finish(RunRecord(index=index, config=config, status="ok",
                             value=value, attempts=attempt + 1,
                             wall_seconds=wall, cache_key=key))
            return None
        if status != "fatal" and attempt < retries:
            return (index, attempt + 1, key)  # reschedule
        finish(RunRecord(index=index, config=config, status=status,
                         error=error, attempts=attempt + 1,
                         wall_seconds=wall, cache_key=key,
                         timeout_phase=phase if status == "timeout" else None))
        return None

    # ------------------------------------------------------------------
    # inline path (jobs=0): no processes, no timeout enforcement
    if jobs == 0:
        while pending:
            index, attempt, key = pending.pop()
            started = time.monotonic()
            try:
                message = ("ok", experiment.run(experiment.grid[index]), None)
            except FATAL_EXCEPTIONS:
                # Operator interrupts and resource exhaustion must stop
                # the whole sweep, not become a retried failure row.
                raise
            except Exception:
                # Anything the run itself raises becomes a structured
                # failure row (and a bus event via finish) — the inline
                # path mirrors the worker-process path's contract.
                message = ("error", None, traceback.format_exc())
            retry = record_outcome(index, attempt, key, message,
                                   time.monotonic() - started)
            if retry is not None:
                pending.push(retry, front=True)
    else:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        running = []
        while pending or running:
            while pending and len(running) < jobs:
                index, attempt, key = pending.pop()
                task = _spawn(context, experiment, index, attempt, timeout)
                task.cache_key = key
                running.append(task)

            now = time.monotonic()
            deadlines = [t.deadline for t in running if t.deadline]
            wait_for = min(deadlines) - now if deadlines else None
            ready = _wait_connections(
                [t.conn for t in running],
                timeout=max(0.0, wait_for) if wait_for is not None else None,
            )

            now = time.monotonic()
            still_running = []
            for task in running:
                if task.conn in ready:
                    message = _recv(task)
                    if message is not None and message[0] == "begin":
                        # Startup handshake: the worker entered its run
                        # function — not a completion, keep waiting.
                        task.phase = "run"
                        still_running.append(task)
                        continue
                    message = _reap(task, message)
                    retry = record_outcome(task.index, task.attempt,
                                           task.cache_key, message,
                                           now - task.started)
                    if retry is not None:
                        pending.push(retry)
                elif task.deadline is not None and now >= task.deadline:
                    task.process.terminate()
                    task.process.join()
                    task.conn.close()
                    message = ("timeout", None,
                               f"run exceeded {timeout}s (in {task.phase} "
                               f"phase) and was terminated")
                    retry = record_outcome(task.index, task.attempt,
                                           task.cache_key, message,
                                           now - task.started,
                                           phase=task.phase)
                    if retry is not None:
                        pending.push(retry)
                else:
                    still_running.append(task)
            running = still_running

    ordered = [records[index] for index in sorted(records)]
    _emit(bus, clock_start, "sweep_end", experiment.name,
          ok=sum(1 for r in ordered if r.ok),
          failed=sum(1 for r in ordered if not r.ok),
          cached=sum(1 for r in ordered if r.cached),
          wall=round(time.monotonic() - clock_start, 4))
    return ordered
