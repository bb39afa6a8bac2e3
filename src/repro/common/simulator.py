"""A deterministic discrete-event simulation kernel.

Every timed model in this reproduction — the tagged-token dataflow machine,
the I-structure controllers, the packet networks, and the von Neumann
multiprocessors — runs on this kernel.  The design goals are:

* **Determinism.**  Events that are posted for the same instant fire in
  the order they were posted (FIFO within an instant; distinct instants
  fire in time order).  Two runs of the same configuration produce
  identical traces.
* **Simplicity.**  The whole API is :meth:`~Simulator.post` and
  :meth:`~Simulator.run`.  Components post plain callables; there is no
  process/coroutine machinery and no cancellation.  Units that need
  multi-step behaviour keep explicit state and post themselves again,
  which mirrors how the hardware units in the paper are described
  (waiting-matching section, instruction fetch, ALU, output section each
  as a pipeline stage with a service time).  A run ends when the queue
  drains: "a program terminates when no enabled instructions are left"
  (§2.2.2).  Each model then inspects its own state to tell completion
  from deadlock.
* **Speed.**  The models cluster events heavily on a small set of
  instants (nearly every delay is a small whole number of cycles).
  :class:`Simulator` exploits that with a *calendar queue*: a dict maps
  each occupied instant (its exact float time) to a FIFO bucket of bare
  ``(fn, args)`` tuples, and only the set of occupied instants lives in
  a heap of plain floats, so every heap comparison is a C-level float
  comparison — never a Python ``__lt__`` call.  Ordering within a bucket
  is exactly arrival order, which is what the determinism contract
  requires; ordering across buckets is float order.

Time is a float measured in *cycles*; each model documents its own cycle
convention.  An "instant" is an exact float value: all arithmetic that
lands on the same cycle produces the identical float, so same-cycle
events share one bucket.
"""

import heapq
import math
import time

from .errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """The event queue and clock shared by all components of one model.

    Calendar scheduler: per-instant FIFO buckets (``dict`` keyed by the
    exact float time) of ``(fn, args)`` tuples, plus a binary heap of the
    occupied instants.
    """

    __slots__ = ("_buckets", "_keys", "_now", "_events_fired", "bus",
                 "wall_seconds")

    def __init__(self):
        self._buckets = {}  # float instant -> [(fn, args), ...] FIFO
        self._keys = []  # heap of the occupied instants (plain floats)
        self._now = 0.0
        self._events_fired = 0
        self.bus = None  # optional repro.obs.TraceBus
        self.wall_seconds = 0.0  # host time spent inside run()

    @property
    def now(self):
        """Current simulated time in cycles: the instant of the last
        event fired."""
        return self._now

    @property
    def events_fired(self):
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending(self):
        """Number of events still in the queue.  Like
        :attr:`events_fired`, it is settled once per instant, so read it
        between :meth:`run` calls, not from inside a callback."""
        return sum(map(len, self._buckets.values()))

    def post(self, delay, fn, *args):
        """Run ``fn(*args)`` ``delay`` cycles from now.  The queue entry
        is a bare ``(fn, args)`` tuple in its instant's bucket."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(fn, args)]
            heapq.heappush(self._keys, time)
        else:
            bucket.append((fn, args))

    def attach_bus(self, bus):
        """Publish kernel lifecycle events (run begin/end, quiescence) to
        ``bus``.  The hot event loop itself is untouched — observability
        of individual events belongs to the components that post them,
        which know what the events mean."""
        self.bus = bus
        return bus

    def run(self, max_events=None):
        """Fire events until the queue drains.

        Raises :class:`SimulationError` if more than ``max_events`` events
        would fire; the unfired events stay queued.  Wall-clock time spent
        here accumulates in :attr:`wall_seconds` (kept out of the trace
        stream — traces stay deterministic).
        """
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self._now, "sim", "run_begin", "", pending=self.pending)
        wall_start = time.perf_counter()
        try:
            self._run(max_events)
        finally:
            self.wall_seconds += time.perf_counter() - wall_start
            if bus is not None and bus.enabled:
                bus.emit(self._now, "sim", "run_end", "",
                         events=self._events_fired)

    def _run(self, max_events):
        # The hot loop.  Each instant dispatches as one batch with the
        # clock set once and the counter flushed once; the bus check
        # happens only at quiescence.
        buckets = self._buckets
        keys = self._keys
        heappop = heapq.heappop
        heappush = heapq.heappush
        budget = math.inf if max_events is None else max_events
        fired = 0
        while keys:
            key = keys[0]
            allowed = budget - fired
            if allowed <= 0:
                # Checked before the clock moves: ``now`` stays at the
                # last instant that fired an event.
                raise _exhausted(max_events, key)
            heappop(keys)
            bucket = buckets[key]
            self._now = key
            idx = 0
            try:
                # The outer loop re-reads ``len(bucket)`` only at batch
                # boundaries: callbacks may post at the current instant
                # and extend the list mid-drain.
                while True:
                    n = len(bucket)
                    if idx >= n:
                        break
                    while idx < n:
                        if idx >= allowed:
                            raise _exhausted(max_events, key)
                        fn, args = bucket[idx]
                        idx += 1
                        fn(*args)
            finally:
                fired += idx
                self._events_fired += idx
                if idx < len(bucket):
                    # Interrupted mid-instant (budget/exception): keep
                    # the unfired tail and requeue the instant.
                    del bucket[:idx]
                    heappush(keys, key)
                else:
                    del buckets[key]
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self._now, "sim", "quiescent", "",
                     events=self._events_fired)

    def kernel_stats(self):
        """Deterministic kernel-level counters for this run.

        Wall-clock time is deliberately absent — these values feed
        byte-stable result payloads."""
        return {
            "kernel": "calendar",
            "events_fired": self._events_fired,
            "pending": self.pending,
        }

    def __repr__(self):
        return (
            f"<Simulator t={self._now} pending={self.pending} "
            f"fired={self._events_fired}>"
        )


def _exhausted(max_events, at):
    return SimulationError(
        f"event budget exhausted ({max_events} events) at t={at}; "
        "possible livelock"
    )
