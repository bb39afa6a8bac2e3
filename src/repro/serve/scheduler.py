"""The sweep scheduler: a persistent worker pool in the MapReduce
master/worker shape.

The paper's scalability argument — tolerate latency, keep many
outstanding operations in flight, recover from stragglers — applied to
our own experiment pipeline.  A single :class:`SweepScheduler` owns a
pool of long-lived worker processes and any number of concurrently
running sweeps; cells wait in one :class:`~repro.exp.engine.TaskQueue`
per sweep, and finished values land in a durable content-addressed
store (:mod:`repro.serve.store`) so repeat sweeps never simulate.

It is the repository's one multi-process executor: ``repro serve``
feeds it HTTP requests, ``repro bench`` submits every selected
experiment to one pool up front (so cells of later experiments fill
workers an earlier one leaves idle), and
:func:`repro.exp.engine.run_experiment` runs a ``jobs >= 1`` grid on a
pool of its own.

Failure handling (two of Dean & Ghemawat's three classics):

* **Worker death** — a worker whose pipe hits EOF (crash, OOM kill,
  ``worker_crash_rate`` chaos) has its in-flight cell re-queued with the
  retry/backoff machinery (growing delay, bounded attempts) and the pool
  respawns a replacement lazily.
* **Timeout** — a worker past its per-attempt deadline (which covers
  dispatch + module import + run, with a ``begin`` handshake splitting
  startup from run) is terminated and the cell retried; the final
  failure row records ``timeout_phase``.

The third, backup copies of straggling cells, is left out on purpose:
cells are deterministic and the workers identical, so a second copy
only races its original to the same value while holding a worker and a
CPU.  Each cell has exactly one attempt in flight at a time.

Threading: one background scheduler thread owns all worker pipes and
the store; HTTP/CLI threads call :meth:`submit` / :meth:`status` /
:meth:`events_after` / :meth:`wait`, which only touch state under the
scheduler lock and wake the thread through a self-pipe.  The thread
blocks whenever it cannot act, and wakes only for a worker reply or EOF,
a ``submit``, a per-attempt deadline, or a delayed retry maturing.
Ready cells left queued behind a full pool are not a reason to wake:
only a worker's reply can free a slot for them, the paper's deferred
read rather than a busy-wait (§2.1).
"""

import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Optional

from ..exp.cache import config_key, key_config
from ..exp.engine import (DEFAULT_RETRIES, RunRecord, TaskQueue,
                          experiment_code_version, host_cpus,
                          records_payload)
from ..obs.live import LiveMetrics
from .protocol import (SweepRequest, machine_plan, resolve_experiment,
                       scheduling_plan)

__all__ = ["SweepScheduler", "SweepState"]

#: Base requeue delay (seconds); attempt ``n`` waits ``BACKOFF * 2**n``.
RETRY_BACKOFF = 0.05
#: Upper bound on any single requeue delay.
RETRY_BACKOFF_CAP = 2.0
#: Flight-recorder breadcrumbs attached to a failure row, and pool-level
#: events retained for trace assembly.
FLIGHT_TAIL = 50
POOL_EVENT_LIMIT = 10_000


@dataclass
class _Assignment:
    """One cell attempt running on one worker."""

    sweep_id: str
    index: int
    attempt: int
    key: Optional[str]
    started: float
    deadline: Optional[float]
    phase: str = "startup"


@dataclass
class _Worker:
    """One persistent pool worker process."""

    wid: int
    process: Any
    conn: Any
    busy: Optional[_Assignment] = None
    spawned: float = 0.0
    completed: int = 0
    #: Spill file the worker's flight recorder writes breadcrumbs to;
    #: read back by the scheduler when the worker dies or is terminated
    #: (the pipe is gone by then, so the tail cannot ship over it).
    flight_path: Optional[str] = None


class SweepState:
    """Everything the scheduler tracks for one submitted sweep."""

    def __init__(self, sweep_id, request, experiment, code_version,
                 plan, chaos, retries, timeout, trace_id=None):
        self.id = sweep_id
        self.trace_id = trace_id or f"tr-{sweep_id}"
        self.request = request
        self.experiment = experiment
        self.code_version = code_version
        self.plan = plan          # machine-level fault plan (or None)
        self.chaos = chaos        # scheduling-level chaos (or None)
        self.retries = retries
        self.timeout = timeout
        self.state = "queued"     # queued | running | done | aborted
        self.created = time.monotonic()
        self.created_wall = time.time()
        self.dispatched = None    # first cell handed to a worker
        self.finished = None
        self.wall_seconds = None
        self.records = {}         # index -> RunRecord (completed cells)
        self.queue = TaskQueue()  # (index, attempt, key) awaiting a worker
        self.events = []          # [{seq, t, kind, detail, ...}]
        self.done = threading.Event()
        self.stats = {
            "store_hits": 0, "executed": 0,
            "requeued": 0, "timeouts": 0, "worker_deaths": 0,
            # No backup copies are issued; both keys stay, always 0,
            # for status readers that report them.
            "backups": 0, "backup_wins": 0,
        }

    @property
    def cells(self):
        return len(self.experiment.grid)

    @property
    def remaining(self):
        return self.cells - len(self.records)

    @property
    def run_seconds(self):
        """The sweep's own span once done: first dispatch to last cell,
        so time spent queued behind other sweeps does not count (submit
        to done when no cell reached a worker)."""
        return self.finished - (self.dispatched or self.created)

    def snapshot(self, include_records=True):
        """A JSON-able status view (called under the scheduler lock)."""
        ordered = sorted(self.records.values(), key=lambda r: r.index)
        out = {
            "id": self.id,
            "trace": self.trace_id,
            "experiment": self.experiment.name,
            "label": self.request.label,
            "state": self.state,
            "cells": self.cells,
            "completed": len(self.records),
            "ok": sum(1 for r in ordered if r.ok),
            "failed": sum(1 for r in ordered if not r.ok),
            "cached": sum(1 for r in ordered if r.cached),
            "stats": dict(self.stats),
            "created": self.created_wall,
            "wall_seconds": (self.wall_seconds if self.wall_seconds
                             is not None
                             else round(time.monotonic() - self.created, 3)),
            "events": len(self.events),
        }
        if include_records:
            out["records"] = records_payload(ordered)
        return out


class SweepScheduler:
    """Master of the persistent worker pool; see the module docstring."""

    def __init__(self, store=None, workers=None, timeout=None,
                 retries=DEFAULT_RETRIES, bus=None, bench_dir=None,
                 metrics=None):
        self.store = store
        self.size = max(1, workers if workers is not None
                        else host_cpus())
        self.timeout = timeout
        self.retries = retries
        self.bus = bus
        self.bench_dir = bench_dir
        self.metrics = metrics if metrics is not None else LiveMetrics()
        self._lock = threading.RLock()
        self._sweeps = {}
        self._order = []
        self._workers = {}
        self._tasks = {}           # task_id -> (_Worker, _Assignment)
        self._next_sweep = itertools.count(1)
        self._next_wid = itertools.count(1)
        self._next_task = itertools.count(1)
        self._intake = []
        self._closing = False
        self._clock0 = time.monotonic()
        self._spawned_total = 0
        self._exits_total = 0
        self._flight_dir = None
        #: Pool-level lifecycle events (spawn/exit), kept for sweep trace
        #: assembly — sweep-level events live on each SweepState.
        self.pool_events = []
        self._declare_metrics()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="serve-scheduler")
        self._started = False

    # -- telemetry -----------------------------------------------------
    def _declare_metrics(self):
        """Register the scheduler's metric families (names + help text)
        up front so ``/metrics`` is fully populated from the first
        scrape, counters included, even before any sweep runs."""
        m = self.metrics
        m.counter("sweeps_submitted_total", "Sweep requests accepted")
        m.counter("sweeps_completed_total",
                  "Sweeps finished, labeled by terminal state")
        m.counter("cells_executed_total",
                  "Grid cells computed by a pool worker")
        m.counter("cells_store_hit_total",
                  "Grid cells answered from the durable store")
        m.counter("cells_requeued_total",
                  "Cell attempts requeued after a failure")
        m.counter("cell_timeouts_total",
                  "Cell attempts terminated at their deadline")
        m.counter("worker_deaths_total",
                  "Worker processes that died mid-task")
        m.counter("workers_spawned_total", "Worker processes started")
        m.gauge_fn("sweeps_active",
                   "Sweeps currently queued or running",
                   lambda: self.pool_stats()["active"])
        m.gauge_fn("queue_depth",
                   "Cells awaiting a worker across running sweeps",
                   lambda: self.pool_stats()["queue_depth"])
        m.gauge_fn("workers_alive", "Live pool worker processes",
                   lambda: self.pool_stats()["alive"])
        m.gauge_fn("workers_busy", "Pool workers running a cell",
                   lambda: self.pool_stats()["busy"])
        m.gauge_fn("worker_busy",
                   "Per-worker busy flag (1 = running a cell)",
                   self._worker_gauge)

    def _worker_gauge(self):
        with self._lock:
            return {(("worker", str(w.wid)),):
                    (0 if w.busy is None else 1)
                    for w in self._workers.values()}

    # -- lifecycle -----------------------------------------------------
    def start(self):
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def close(self, timeout=10.0):
        """Stop the scheduler thread and the worker pool.  Unfinished
        sweeps are marked ``aborted`` and their waiters released."""
        with self._lock:
            self._closing = True
        self._wake()
        if self._started:
            self._thread.join(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()

    def _wake(self):
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass

    # -- the public (cross-thread) surface -----------------------------
    def submit(self, payload):
        """Accept a sweep request (a dict or :class:`SweepRequest`);
        returns the sweep id.  Raises
        :class:`~repro.serve.protocol.ProtocolError` on a bad request —
        resolution happens here, in the caller's thread, so a bad
        experiment name fails fast with a clean error."""
        request = (payload if isinstance(payload, SweepRequest)
                   else SweepRequest.from_dict(payload))
        if request.bench_dir is None and self.bench_dir is not None:
            request.bench_dir = self.bench_dir
        plan = machine_plan(request.faults)
        chaos = scheduling_plan(request.faults)
        experiment = resolve_experiment(request.spec(), grid=request.grid,
                                        plan=plan)
        code_version = experiment_code_version(experiment)
        retries = request.retries
        if retries is None:
            # A crash-chaos sweep must outlast its crash budget
            # (attempts at or past max_retries never crash): liveness.
            retries = max(self.retries,
                          chaos["max_retries"] if chaos else 0)
        timeout = (request.timeout if request.timeout is not None
                   else self.timeout)
        with self._lock:
            sweep_id = f"sw{next(self._next_sweep):04d}"
            sweep = SweepState(sweep_id, request, experiment, code_version,
                               plan, chaos, retries, timeout)
            sweep.created_rel = sweep.created - self._clock0
            self._sweeps[sweep_id] = sweep
            self._order.append(sweep_id)
            self._intake.append(sweep_id)
            self._event(sweep, "serve_request", experiment.name,
                        experiment=experiment.name, cells=sweep.cells)
        self.metrics.inc("sweeps_submitted_total")
        self._wake()
        return sweep_id

    def get(self, sweep_id):
        with self._lock:
            return self._sweeps.get(sweep_id)

    def status(self, sweep_id, include_records=True):
        """A JSON-able snapshot of one sweep, or ``None``."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            return (None if sweep is None
                    else sweep.snapshot(include_records))

    def list_sweeps(self):
        with self._lock:
            return [self._sweeps[sid].snapshot(include_records=False)
                    for sid in self._order]

    def events_after(self, sweep_id, since=0):
        """Events with ``seq >= since`` (a snapshot), plus sweep state."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                return None, None
            return list(sweep.events[since:]), sweep.state

    def wait(self, sweep_id, timeout=None):
        """Block until a sweep completes; returns True if it did."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
        if sweep is None:
            raise KeyError(sweep_id)
        return sweep.done.wait(timeout)

    def table_text(self, sweep_id):
        """The assembled result table for a finished, fully-ok sweep
        (``None`` while running / failed / assembler-less)."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None or sweep.state != "done":
                return None
            ordered = sorted(sweep.records.values(), key=lambda r: r.index)
            if any(not r.ok for r in ordered):
                return None
            if sweep.experiment.assemble is None:
                return None
            values = [r.value for r in ordered]
        return str(sweep.experiment.table(values))

    def pool_stats(self):
        with self._lock:
            return {
                "size": self.size,
                "alive": len(self._workers),
                "busy": sum(1 for w in self._workers.values() if w.busy),
                "spawned": self._spawned_total,
                "restarts": self._exits_total,
                "sweeps": len(self._sweeps),
                "active": sum(1 for s in self._sweeps.values()
                              if s.state in ("queued", "running")),
                "queue_depth": sum(
                    len(s.queue) for s in self._sweeps.values()
                    if s.state == "running"),
            }

    # -- events --------------------------------------------------------
    def _event(self, sweep, kind, detail="", **fields):
        record = {"seq": len(sweep.events),
                  "t": round(time.monotonic() - sweep.created, 6),
                  "kind": kind, "detail": detail}
        record.update(fields)
        sweep.events.append(record)
        if self.bus is not None:
            self.bus.emit(round(time.monotonic() - self._clock0, 6),
                          "serve", kind, detail, sweep=sweep.id,
                          trace=sweep.trace_id, **fields)

    def _pool_event(self, kind, detail="", **fields):
        record = {"t": round(time.monotonic() - self._clock0, 6),
                  "kind": kind, "detail": detail}
        record.update(fields)
        if len(self.pool_events) < POOL_EVENT_LIMIT:
            self.pool_events.append(record)
        if self.bus is not None:
            self.bus.emit(record["t"], "serve", kind, detail, **fields)

    # -- scheduler-thread internals (all called under the lock) --------
    def _intake_pass(self, now):
        """Answer freshly submitted sweeps from the store; queue the rest."""
        while self._intake:
            sweep = self._sweeps[self._intake.pop(0)]
            use_store = (self.store is not None
                         and not sweep.request.no_store)
            self._event(sweep, "sweep_begin", sweep.experiment.name,
                        configs=sweep.cells, jobs=self.size)
            sweep.state = "running"
            for index, config in enumerate(sweep.experiment.grid):
                key = None
                if self.store is not None:
                    key = config_key(sweep.experiment.name,
                                     key_config(config, sweep.plan),
                                     sweep.code_version)
                if use_store:
                    found, value = self.store.get(sweep.experiment.name,
                                                  key)
                    if found:
                        sweep.stats["store_hits"] += 1
                        self.metrics.inc("cells_store_hit_total")
                        self._event(sweep, "serve_store_hit",
                                    f"{sweep.experiment.name}[{index}]",
                                    index=index)
                        self._finish_cell(sweep, RunRecord(
                            index=index, config=config, status="ok",
                            value=value, cached=True, cache_key=key))
                        continue
                sweep.queue.push((index, 0, key))
            self._check_done(sweep)

    def _flight_root(self):
        if self._flight_dir is None:
            self._flight_dir = tempfile.mkdtemp(prefix="repro-serve-flight-")
        return self._flight_dir

    def _spawn_worker(self):
        wid = next(self._next_wid)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        from .protocol import pool_worker_main

        flight_path = os.path.join(self._flight_root(),
                                   f"worker{wid}.jsonl")
        # A forked child inherits the scheduler's end of its own pipe and
        # of every earlier worker's; it closes them at once, or its
        # ``recv`` would never see EOF once the scheduler's process dies.
        inherited = ([parent_conn] + [w.conn for w in self._workers.values()]
                     if self._context.get_start_method() == "fork" else [])
        process = self._context.Process(
            target=pool_worker_main, args=(child_conn, wid),
            kwargs={"flight_path": flight_path, "inherited": inherited},
            name=f"serve-worker-{wid}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(wid=wid, process=process, conn=parent_conn,
                         spawned=time.monotonic(),
                         flight_path=flight_path)
        self._workers[wid] = worker
        self._spawned_total += 1
        self.metrics.inc("workers_spawned_total")
        self._pool_event("serve_worker_spawn", f"worker {wid}", worker=wid)
        return worker

    def _idle_worker(self):
        for worker in self._workers.values():
            if worker.busy is None:
                return worker
        if len(self._workers) < self.size:
            return self._spawn_worker()
        return None

    def _dispatch(self, worker, sweep, index, attempt, key, now):
        task_id = next(self._next_task)
        timeout = sweep.timeout
        assignment = _Assignment(
            sweep_id=sweep.id, index=index, attempt=attempt, key=key,
            started=now,
            deadline=(now + timeout) if timeout else None)
        message = ("task", {
            "task_id": task_id,
            "index": index,
            "attempt": attempt,
            "spec": sweep.request.spec(),
            "config": sweep.experiment.grid[index],
            "plan": sweep.plan,
            "chaos": sweep.chaos,
            # Telemetry: the sweep's trace id rides along so the
            # worker's flight-recorder events carry it end to end.
            "sweep": sweep.id,
            "trace": sweep.trace_id,
            "experiment": sweep.experiment.name,
        })
        try:
            worker.conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between completions; reap it and requeue.
            self._worker_died(worker, "send failed")
            sweep.queue.push((index, attempt, key), front=True)
            return
        worker.busy = assignment
        if sweep.dispatched is None:
            sweep.dispatched = now
        self._tasks[task_id] = (worker, assignment)
        self._event(sweep, "serve_assign",
                    f"{sweep.experiment.name}[{index}] -> worker "
                    f"{worker.wid}",
                    index=index, worker=worker.wid, attempt=attempt)

    def _assign_pass(self, now):
        for sid in self._order:
            sweep = self._sweeps[sid]
            if sweep.state != "running":
                continue
            while True:
                item = sweep.queue.pop(now)
                if item is None:
                    break
                worker = self._idle_worker()
                if worker is None:
                    sweep.queue.push(item, front=True)
                    return
                index, attempt, key = item
                self._dispatch(worker, sweep, index, attempt, key, now)

    def _finish_cell(self, sweep, record, worker=None):
        sweep.records[record.index] = record
        fields = dict(index=record.index, status=record.status,
                      attempts=record.attempts, cached=record.cached,
                      wall=round(record.wall_seconds, 4))
        if worker is not None:
            fields["worker"] = worker
        if record.error:
            fields["error"] = record.error.strip().splitlines()[-1][:200]
        self._event(sweep, "sweep_task",
                    f"{sweep.experiment.name}[{record.index}] "
                    f"{record.status}", **fields)
        self._check_done(sweep)

    def _check_done(self, sweep):
        if sweep.state == "running" and sweep.remaining == 0:
            sweep.state = "done"
            sweep.finished = time.monotonic()
            sweep.wall_seconds = round(sweep.finished - sweep.created, 4)
            ordered = sorted(sweep.records.values(), key=lambda r: r.index)
            summary = dict(
                ok=sum(1 for r in ordered if r.ok),
                failed=sum(1 for r in ordered if not r.ok),
                cached=sum(1 for r in ordered if r.cached),
                wall=sweep.wall_seconds)
            self._event(sweep, "sweep_end", sweep.experiment.name,
                        **summary)
            self._event(sweep, "serve_sweep_done", sweep.experiment.name,
                        executed=sweep.stats["executed"], **summary)
            self.metrics.inc("sweeps_completed_total", status="done")
            sweep.done.set()

    def _attempt_over(self, assignment, status, value, error, now,
                      phase=None, worker=None, flight=None):
        """One attempt finished (ok, error, timeout, or worker death)."""
        sweep = self._sweeps.get(assignment.sweep_id)
        if sweep is None:
            return
        index = assignment.index
        if status == "ok":
            # The freed worker gets its next cell before the store write;
            # the write still lands before the sweep can be done, so a
            # repeat sweep submitted after ``done`` hits the store.
            self._assign_pass(now)
            if assignment.key is not None and self.store is not None:
                self.store.put(sweep.experiment.name, assignment.key,
                               key_config(sweep.experiment.grid[index],
                                          sweep.plan),
                               sweep.code_version, value)
            sweep.stats["executed"] += 1
            self.metrics.inc("cells_executed_total")
            self._finish_cell(sweep, RunRecord(
                index=index, config=sweep.experiment.grid[index],
                status="ok", value=value, attempts=assignment.attempt + 1,
                wall_seconds=now - assignment.started,
                cache_key=assignment.key), worker=worker)
            return
        # Failure path.  ``fatal`` (operator interrupt / resource
        # exhaustion in the worker) is never retried: the row lands
        # immediately with its traceback instead of burning attempts.
        if status != "fatal" and assignment.attempt < sweep.retries:
            delay = min(RETRY_BACKOFF_CAP,
                        RETRY_BACKOFF * (2 ** assignment.attempt))
            sweep.queue.push((index, assignment.attempt + 1,
                              assignment.key), not_before=now + delay)
            sweep.stats["requeued"] += 1
            self.metrics.inc("cells_requeued_total")
            self._event(sweep, "serve_requeue",
                        f"{sweep.experiment.name}[{index}] attempt "
                        f"{assignment.attempt} {status}",
                        index=index, attempt=assignment.attempt + 1,
                        reason=status, **(
                            {"worker": worker} if worker is not None
                            else {}))
            return
        self._finish_cell(sweep, RunRecord(
            index=index, config=sweep.experiment.grid[index],
            status=status, error=error, attempts=assignment.attempt + 1,
            wall_seconds=now - assignment.started,
            cache_key=assignment.key,
            timeout_phase=phase if status == "timeout" else None,
            flight=flight), worker=worker)

    def _drop_task(self, worker):
        """Detach the worker's current task; returns the assignment."""
        assignment = worker.busy
        worker.busy = None
        for task_id, (w, a) in list(self._tasks.items()):
            if w is worker and a is assignment:
                del self._tasks[task_id]
        return assignment

    def _read_flight(self, worker):
        """The tail of a dead worker's flight-recorder spill file (the
        pipe is gone, so this is the only copy of its last moments)."""
        path = worker.flight_path
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return None
        tail = []
        for line in lines[-FLIGHT_TAIL:]:
            try:
                tail.append(json.loads(line))
            except ValueError:
                continue  # torn final write mid-crash
        return tail or None

    def _worker_died(self, worker, reason):
        now = time.monotonic()
        self._workers.pop(worker.wid, None)
        assignment = self._drop_task(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        code = worker.process.exitcode
        self._exits_total += 1
        self._pool_event("serve_worker_exit",
                         f"worker {worker.wid}: {reason}",
                         worker=worker.wid, reason=reason)
        if assignment is not None:
            sweep = self._sweeps.get(assignment.sweep_id)
            if sweep is not None:
                sweep.stats["worker_deaths"] += 1
            self.metrics.inc("worker_deaths_total")
            self._attempt_over(
                assignment, "error", None,
                f"worker process died (exit code {code}) while running "
                f"cell {assignment.index}", now, worker=worker.wid,
                flight=self._read_flight(worker))

    def _check_deadlines(self, now):
        for worker in list(self._workers.values()):
            assignment = worker.busy
            if (assignment is None or assignment.deadline is None
                    or now < assignment.deadline):
                continue
            sweep = self._sweeps.get(assignment.sweep_id)
            timeout = sweep.timeout if sweep else None
            self._workers.pop(worker.wid, None)
            self._drop_task(worker)
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            if sweep is not None:
                sweep.stats["timeouts"] += 1
            self._exits_total += 1
            self.metrics.inc("cell_timeouts_total")
            self._pool_event("serve_worker_exit",
                             f"worker {worker.wid}: timeout",
                             worker=worker.wid, reason="timeout")
            self._attempt_over(
                assignment, "timeout", None,
                f"cell exceeded {timeout}s (in {assignment.phase} phase) "
                "and its worker was terminated", now,
                phase=assignment.phase, worker=worker.wid,
                flight=self._read_flight(worker))

    def _handle_message(self, worker, message, now):
        kind = message[0]
        if kind == "begin":
            if worker.busy is not None:
                worker.busy.phase = "run"
            return
        if kind == "done":
            _kind, task_id, status, value, error, flight = message
            entry = self._tasks.pop(task_id, None)
            worker.busy = None
            worker.completed += 1
            if entry is None:
                return  # task was cancelled (timeout path) — stale reply
            _worker, assignment = entry
            self._attempt_over(assignment, status, value, error, now,
                               worker=worker.wid, flight=flight)

    def _wait_timeout(self, now):
        """How long the wait may block (``None``: until a pipe is ready):
        the next per-attempt deadline or delayed retry.  A ready cell
        counts only while a slot is free; after :meth:`_assign_pass` one
        is left queued only when every worker is busy, and then nothing
        can run it until a worker replies, which wakes the wait anyway."""
        slot_free = len(self._workers) < self.size
        horizon = None
        for worker in self._workers.values():
            if worker.busy is None:
                slot_free = True
            elif worker.busy.deadline is not None:
                remaining = worker.busy.deadline - now
                horizon = (remaining if horizon is None
                           else min(horizon, remaining))
        for sid in self._order:
            sweep = self._sweeps[sid]
            if sweep.state != "running":
                continue
            delay = sweep.queue.next_ready(now)
            if delay == 0.0 and not slot_free:
                continue
            if delay is not None:
                horizon = delay if horizon is None else min(horizon, delay)
        if horizon is None:
            return None
        return max(0.0, horizon)

    def _run(self):
        while True:
            with self._lock:
                if self._closing:
                    self._shutdown()
                    return
                now = time.monotonic()
                self._intake_pass(now)
                self._check_deadlines(now)
                self._assign_pass(now)
                conns = [w.conn for w in self._workers.values()]
                conns.append(self._wake_r)
                timeout = self._wait_timeout(now)
            ready = _wait_connections(conns, timeout=timeout)
            with self._lock:
                now = time.monotonic()
                if self._wake_r in ready:
                    while self._wake_r.poll():
                        try:
                            self._wake_r.recv_bytes()
                        except (EOFError, OSError):
                            break
                for worker in list(self._workers.values()):
                    if worker.conn not in ready:
                        continue
                    while True:
                        try:
                            if not worker.conn.poll():
                                break
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            self._worker_died(worker, "pipe closed")
                            break
                        self._handle_message(worker, message, now)

    def _shutdown(self):
        for worker in list(self._workers.values()):
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0,
                                            deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._tasks.clear()
        for sweep in self._sweeps.values():
            if sweep.state in ("queued", "running"):
                sweep.state = "aborted"
                self.metrics.inc("sweeps_completed_total",
                                 status="aborted")
                sweep.done.set()
        if self._flight_dir is not None:
            shutil.rmtree(self._flight_dir, ignore_errors=True)
            self._flight_dir = None
