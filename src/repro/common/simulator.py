"""A deterministic discrete-event simulation kernel.

Every timed model in this reproduction — the tagged-token dataflow machine,
the I-structure controllers, the packet networks, and the von Neumann
multiprocessors — runs on this kernel.  The design goals are:

* **Determinism.**  Events that are scheduled for the same instant fire in
  the order they were scheduled (FIFO within an instant; distinct instants
  fire in time order).  Two runs of the same configuration produce
  identical traces.
* **Simplicity.**  Components schedule plain callables.  There is no
  process/coroutine machinery; units that need multi-step behaviour keep
  explicit state and reschedule themselves, which mirrors how the hardware
  units in the paper are described (waiting-matching section, instruction
  fetch, ALU, output section each as a pipeline stage with a service time).
* **Introspection.**  The kernel counts events, exposes the current time,
  and supports quiescence detection so machine models can detect
  termination ("a program terminates when no enabled instructions are
  left", §2.2.2) and deadlock.
* **Speed.**  The models cluster events heavily on a small set of
  instants (nearly every delay is a small whole number of cycles).
  :class:`Simulator` exploits that with a *calendar queue*: a dict maps
  each occupied instant (its exact float time) to a FIFO bucket of
  callbacks, and only the set of occupied instants lives in a heap of
  plain floats, so every heap comparison is a C-level float comparison —
  never a Python ``__lt__`` call.  Fire-and-forget
  :meth:`~Simulator.post` entries are bare ``(fn, args)`` tuples: no
  :class:`Event` record exists at any point on the dominant path.
  Ordering within a bucket is exactly arrival order, which is what the
  determinism contract requires; ordering across buckets is float order.
  Cancellation is lazy and O(1) (an :class:`Event` flag), and the queue
  compacts cancelled debris away when it would otherwise dominate.

Time is a float measured in *cycles*; each model documents its own cycle
convention.  An "instant" is an exact float value: all arithmetic that
lands on the same cycle produces the identical float, so same-cycle
events share one bucket.
"""

import heapq
import math
import time

from .errors import SimulationError

__all__ = ["Event", "Simulator"]

#: Lazily-cancelled events tolerated before the queue is compacted.
_COMPACT_MIN = 512


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code normally
    only keeps them to call :meth:`cancel`.  The fire-and-forget
    :meth:`Simulator.post` path does not build Events at all — a posted
    entry is a bare ``(fn, args)`` tuple in its instant's bucket.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "sim")

    def __init__(self, time, fn, args, sim):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self):
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op on an event that already fired."""
        if self.cancelled:
            return
        self.cancelled = True
        self.sim._note_cancel()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name} [{state}]>"


class Simulator:
    """The event queue and clock shared by all components of one model.

    Calendar scheduler: per-instant FIFO buckets (``dict`` keyed by the
    exact float time) plus a binary heap of the occupied instants.
    Bucket entries are bare ``(fn, args)`` tuples for posted events and
    :class:`Event` records for cancellable ones.  Cancels are lazy and
    O(1); the queue compacts itself when cancelled debris would otherwise
    dominate, so schedule-then-cancel loops stay bounded.
    """

    __slots__ = (
        "_buckets", "_keys", "_now", "_events_fired", "_live",
        "_ncancelled", "_needs_compact", "_dispatching",
        "_quiescence_hooks", "bus", "wall_seconds",
    )

    def __init__(self):
        self._buckets = {}  # float instant -> [(fn, args) | Event, ...] FIFO
        self._keys = []  # heap of the occupied instants (plain floats)
        self._now = 0.0
        self._events_fired = 0
        self._live = 0  # scheduled, not yet fired or cancelled
        self._ncancelled = 0  # cancelled but still queued (lazy)
        self._needs_compact = False
        self._dispatching = False  # a bucket is being drained in place
        self._quiescence_hooks = []
        self.bus = None  # optional repro.obs.TraceBus
        self.wall_seconds = 0.0  # host time spent inside run()

    # ------------------------------------------------------------------
    # Clock and bookkeeping
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_fired(self):
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending(self):
        """Number of not-yet-cancelled events still in the queue.  O(1)."""
        return self._live

    def _note_cancel(self):
        self._live -= 1
        n = self._ncancelled + 1
        self._ncancelled = n
        if n >= _COMPACT_MIN and n > self._live:
            if self._dispatching:
                self._needs_compact = True
            else:
                self._compact()

    def _compact(self):
        """Drop cancelled debris.  Mutates the containers in place so the
        hot loop's local aliases stay valid.  Bare-tuple entries are posts
        and can never be cancelled; only Event records are filtered."""
        survivors = {}
        for key, bucket in self._buckets.items():
            bucket[:] = [
                e for e in bucket if type(e) is tuple or not e.cancelled
            ]
            if bucket:
                survivors[key] = bucket
        self._buckets.clear()
        self._buckets.update(survivors)
        keys = list(survivors)
        heapq.heapify(keys)
        self._keys[:] = keys
        self._ncancelled = 0
        self._needs_compact = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        time = float(time)
        event = Event(time, fn, args, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._keys, time)
        else:
            bucket.append(event)
        self._live += 1
        return event

    def post(self, delay, fn, *args):
        """Fire-and-forget :meth:`schedule`: no Event is returned and no
        Event record is ever built — the queue entry is a bare
        ``(fn, args)`` tuple in its instant's bucket.  This is the fast
        path every hot component uses."""
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
        self._live += 1

    def post_at(self, time, fn, *args):
        """Absolute-time :meth:`post`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self.post(time - self._now, fn, *args)

    def attach_bus(self, bus):
        """Publish kernel lifecycle events (run begin/end, quiescence) to
        ``bus``.  The hot event loop itself is untouched — observability
        of individual events belongs to the components that schedule
        them, which know what the events mean."""
        self.bus = bus
        return bus

    def add_quiescence_hook(self, hook):
        """Register ``hook()`` to run when the event queue drains.

        A hook may schedule new events (e.g. a machine model that injects
        the next phase of a workload); the run then continues.  Hooks fire
        in registration order.
        """
        self._quiescence_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Execute the single next event.  Returns False if none remain."""
        keys = self._keys
        buckets = self._buckets
        while keys:
            key = keys[0]
            bucket = buckets[key]
            idx = 0
            n = len(bucket)
            while idx < n:
                entry = bucket[idx]
                if type(entry) is tuple or not entry.cancelled:
                    break
                idx += 1
                self._ncancelled -= 1
            if idx == n:
                # Nothing but cancelled debris at this instant.
                del buckets[key]
                heapq.heappop(keys)
                continue
            entry = bucket[idx]
            del bucket[: idx + 1]
            if not bucket:
                del buckets[key]
                heapq.heappop(keys)
            self._now = key
            self._events_fired += 1
            self._live -= 1
            if type(entry) is tuple:
                fn, args = entry
            else:
                fn = entry.fn
                args = entry.args
                # Mark consumed so a late cancel() is a no-op.
                entry.cancelled = True
            fn(*args)
            return True
        return False

    def run(self, until=None, max_events=None):
        """Run until the queue drains, ``until`` cycles pass, or the event
        budget ``max_events`` is exhausted.

        Returns the simulated time at which the run stopped.  Quiescence
        hooks are given a chance to refill the queue whenever it drains.
        Wall-clock time spent here accumulates in :attr:`wall_seconds`
        (kept out of the trace stream — traces stay deterministic).
        """
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self._now, "sim", "run_begin", "", pending=self._live)
        wall_start = time.perf_counter()
        try:
            return self._run(until, max_events)
        finally:
            self.wall_seconds += time.perf_counter() - wall_start
            if bus is not None and bus.enabled:
                bus.emit(self._now, "sim", "run_end", "",
                         events=self._events_fired)

    def _run(self, until, max_events):
        # The hot loop.  Locals alias both containers (compaction mutates
        # them in place, so the aliases stay valid); each instant
        # dispatches as one batch with the clock set once and the
        # counters flushed once, and the bus check happens only at
        # quiescence.
        bus = self.bus
        buckets = self._buckets
        keys = self._keys
        heappop = heapq.heappop
        heappush = heapq.heappush
        until_f = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired = 0
        while True:
            if self._needs_compact:
                self._compact()
            if self._live == 0:
                # Nothing but cancelled debris (or nothing at all) left.
                if keys:
                    keys.clear()
                    buckets.clear()
                    self._ncancelled = 0
                if bus is not None and bus.enabled:
                    bus.emit(self._now, "sim", "quiescent", "",
                             events=self._events_fired)
                if self._run_quiescence_hooks():
                    continue
                return self._now
            key = keys[0]
            if key > until_f:
                self._now = float(until)
                return self._now
            heappop(keys)
            bucket = buckets[key]
            prev_now = self._now
            self._now = key
            idx = 0
            nfired = 0
            ncancelled = 0
            allowed = budget - fired
            self._dispatching = True
            try:
                # The outer loop re-reads ``len(bucket)`` only at batch
                # boundaries: callbacks may post at the current instant
                # and extend the list mid-drain.
                while True:
                    n = len(bucket)
                    if idx >= n:
                        break
                    while idx < n:
                        entry = bucket[idx]
                        idx += 1
                        if type(entry) is tuple:
                            if nfired >= allowed:
                                idx -= 1
                                raise SimulationError(
                                    f"event budget exhausted ({max_events} "
                                    f"events) at t={self._now}; possible "
                                    "livelock"
                                )
                            nfired += 1
                            fn, args = entry
                            fn(*args)
                        elif entry.cancelled:
                            ncancelled += 1
                        else:
                            if nfired >= allowed:
                                idx -= 1
                                raise SimulationError(
                                    f"event budget exhausted ({max_events} "
                                    f"events) at t={self._now}; possible "
                                    "livelock"
                                )
                            nfired += 1
                            entry.cancelled = True
                            fn = entry.fn
                            args = entry.args
                            fn(*args)
            finally:
                self._dispatching = False
                fired += nfired
                self._events_fired += nfired
                self._live -= nfired
                self._ncancelled -= ncancelled
                if nfired == 0:
                    # Cancelled-only instant: the clock never advances.
                    self._now = prev_now
                if idx < len(bucket):
                    # Interrupted mid-instant (budget/exception): keep
                    # the unfired tail and requeue the instant.
                    del bucket[:idx]
                    heappush(keys, key)
                else:
                    del buckets[key]

    def _run_quiescence_hooks(self):
        """Run hooks until one of them schedules work.  True if any did."""
        for hook in self._quiescence_hooks:
            hook()
            if self._live:
                return True
        return False

    def kernel_stats(self):
        """Deterministic kernel-level counters for this run.

        Wall-clock time is deliberately absent — these values feed
        byte-stable result payloads."""
        return {
            "kernel": "calendar",
            "events_fired": self._events_fired,
            "pending": self._live,
            "cancelled_queued": self._ncancelled,
        }

    def __repr__(self):
        return (
            f"<Simulator t={self._now} pending={self.pending} "
            f"fired={self._events_fired}>"
        )
