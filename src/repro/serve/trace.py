"""Assemble one Chrome/Perfetto trace of a whole sweep.

The scheduler already records everything that happens to a sweep — the
ordered event list on :class:`~repro.serve.scheduler.SweepState`
(assignments, store hits, requeues, completions) plus the pool-level
spawn/exit events — and every record is stamped with wall-clock offsets
on one timeline.  This module folds those into the Chrome trace_event
JSON Object Format (the same format :class:`~repro.obs.sinks.
ChromeTraceSink` emits for machine runs), one track per pool worker plus
a scheduler track:

* a **duration slice** (``ph: X``) per cell attempt, opened by its
  ``serve_assign`` event and closed by the matching ``sweep_task``
  completion or ``serve_requeue`` (failure/timeout/crash recovery) —
  a cell has one attempt in flight at a time, so crash retries appear
  as consecutive slices, possibly on different worker tracks;
* an **instant** (``ph: i``) per store hit, worker spawn/exit, sweep
  begin/end, and flight-recorder breadcrumb attached to a failure row;
* **metadata** (``ph: M``) naming the process after the sweep and each
  thread after its worker.

Timestamps are microseconds on the scheduler's clock, so slices from
different workers and sweeps line up.  ``GET /sweeps/<id>/trace`` and
``repro sweeps <id> --trace`` serve the result; it loads directly in
Perfetto / ``chrome://tracing``.
"""

__all__ = ["sweep_trace"]

#: Spare window (seconds) around a sweep in which pool-level events
#: (worker spawn/exit) are considered part of its story.
POOL_WINDOW_PAD = 1.0


def _us(seconds):
    return int(round(seconds * 1e6))


def sweep_trace(scheduler, sweep_id):
    """The Chrome-trace payload (a JSON-able dict) for one sweep, or
    ``None`` when the sweep id is unknown."""
    with scheduler._lock:
        sweep = scheduler._sweeps.get(sweep_id)
        if sweep is None:
            return None
        events = [dict(e) for e in sweep.events]
        pool_events = [dict(e) for e in scheduler.pool_events]
        base = getattr(sweep, "created_rel",
                       sweep.created - scheduler._clock0)
        state = sweep.state
        trace_id = sweep.trace_id
        experiment = sweep.experiment.name
        wall = (sweep.wall_seconds
                if sweep.wall_seconds is not None
                else (events[-1]["t"] if events else 0.0))
        flights = {r.index: r.flight
                   for r in sweep.records.values() if r.flight}

    pid = 0
    trace_events = [{
        "ph": "M", "name": "process_name", "pid": pid,
        "args": {"name": f"repro serve sweep {sweep_id} ({experiment})"},
    }, {
        "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
        "args": {"name": "scheduler"},
    }]
    named_workers = set()

    def worker_tid(wid):
        # Track ids 1.. mirror worker ids directly (wid is 1-based).
        if wid not in named_workers:
            named_workers.add(wid)
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": wid, "args": {"name": f"worker {wid}"},
            })
        return wid

    def instant(name, t, tid, args=None):
        event = {"ph": "i", "name": name, "pid": pid, "tid": tid,
                 "ts": _us(base + t), "s": "t"}
        if args:
            event["args"] = args
        trace_events.append(event)

    # index -> its open assign event (one attempt in flight per cell).
    open_slices = {}

    def close_slice(index, t_end, name_suffix, args):
        start = open_slices.pop(index, None)
        if start is None:
            return
        slice_args = {"attempt": start.get("attempt", 0),
                      "trace": trace_id}
        slice_args.update(args)
        trace_events.append({
            "ph": "X",
            "name": f"{experiment}[{index}]{name_suffix}",
            "pid": pid, "tid": worker_tid(start["worker"]),
            "ts": _us(base + start["t"]),
            "dur": max(1, _us(t_end - start["t"])),
            "args": slice_args,
        })

    for event in events:
        kind = event["kind"]
        t = event["t"]
        index = event.get("index")
        if kind == "serve_assign":
            open_slices[index] = event
        elif kind == "sweep_task":
            if event.get("cached"):
                continue  # the store hit instant covers it
            args = {"status": event.get("status")}
            suffix = ("" if event.get("status") == "ok"
                      else f" {event.get('status')}")
            close_slice(index, t, suffix, args)
            for crumb in flights.get(index) or []:
                instant(f"flight:{crumb.get('kind', '?')}", t,
                        worker_tid(event["worker"])
                        if event.get("worker") is not None else 0,
                        args={k: v for k, v in crumb.items()
                              if k not in ("t",)})
        elif kind == "serve_requeue":
            close_slice(index, t, f" requeue:{event.get('reason')}",
                        {"reason": event.get("reason")})
        elif kind == "serve_store_hit":
            instant(f"{experiment}[{index}] store_hit", t, 0)
        elif kind in ("serve_request", "sweep_begin", "sweep_end",
                      "serve_sweep_done"):
            instant(kind, t, 0,
                    args={k: v for k, v in event.items()
                          if k not in ("seq", "t", "kind", "detail")})

    # Anything still open (running cells, or a worker death whose
    # retry is pending) shows as an instant at its start.
    for index, start in open_slices.items():
        instant(f"{experiment}[{index}] in-flight", start["t"],
                worker_tid(start["worker"]),
                args={"attempt": start.get("attempt", 0)})

    # Pool lifecycle inside (a pad around) the sweep's window.
    lo = base - POOL_WINDOW_PAD
    hi = base + wall + POOL_WINDOW_PAD
    for event in pool_events:
        if not lo <= event["t"] <= hi:
            continue
        wid = event.get("worker")
        tid = worker_tid(wid) if wid is not None else 0
        trace_events.append({
            "ph": "i", "name": event["kind"], "pid": pid, "tid": tid,
            "ts": _us(event["t"]), "s": "t",
            "args": {k: v for k, v in event.items()
                     if k not in ("t", "kind", "detail")},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "sweep": sweep_id,
            "trace": trace_id,
            "experiment": experiment,
            "state": state,
        },
    }
