"""Unit tests for the discrete-event kernel.

:class:`ReferenceKernel` below is the oracle: the simplest kernel that
meets the determinism contract, one ``heapq`` of ``(time, seq)``-ordered
records.  The calendar-queue :class:`Simulator` must fire the same
events in the same order at the same times, with the same ``now``,
``events_fired`` and ``pending``, on fixed workloads and on random
programs.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError, Simulator


class _RefEvent:
    __slots__ = ("sim", "fn", "args", "done")

    def __init__(self, sim, fn, args):
        self.sim = sim
        self.fn = fn
        self.args = args
        self.done = False  # fired or cancelled

    def cancel(self):
        if not self.done:
            self.done = True
            self.sim._live -= 1


class ReferenceKernel:
    """Single-``heapq`` event kernel with the :class:`Simulator` API."""

    def __init__(self):
        self._queue = []  # (time, seq, _RefEvent)
        self._seq = itertools.count()
        self._live = 0
        self._hooks = []
        self.now = 0.0
        self.events_fired = 0

    @property
    def pending(self):
        return self._live

    def schedule_at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(f"t={time} is before t={self.now}")
        event = _RefEvent(self, fn, args)
        heapq.heappush(self._queue, (float(time), next(self._seq), event))
        self._live += 1
        return event

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    post = schedule
    post_at = schedule_at

    def add_quiescence_hook(self, hook):
        self._hooks.append(hook)

    def _peek(self):
        queue = self._queue
        while queue and queue[0][2].done:
            heapq.heappop(queue)
        return queue[0] if queue else None

    def _fire(self):
        time, _, event = heapq.heappop(self._queue)
        self.now = time
        event.done = True
        self._live -= 1
        self.events_fired += 1
        event.fn(*event.args)

    def step(self):
        if self._peek() is None:
            return False
        self._fire()
        return True

    def _run_hooks(self):
        for hook in self._hooks:
            hook()
            if self._live:
                return True
        return False

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            head = self._peek()
            if head is None:
                if self._run_hooks():
                    continue
                return self.now
            if until is not None and head[0] > until:
                self.now = float(until)
                return self.now
            if max_events is not None and fired >= max_events:
                raise SimulationError(f"event budget exhausted ({max_events})")
            self._fire()
            fired += 1


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "b")
    sim.schedule(1, fired.append, "a")
    sim.schedule(9, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(3, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_schedule_from_within_event():
    sim = Simulator()
    trace = []

    def first():
        trace.append(("first", sim.now))
        sim.schedule(2, second)

    def second():
        trace.append(("second", sim.now))

    sim.schedule(1, first)
    sim.run()
    assert trace == [("first", 1.0), ("second", 3.0)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1, fired.append, "x")
    sim.schedule(2, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(10, fired.append, "b")
    stopped = sim.run(until=5)
    assert fired == ["a"]
    assert stopped == 5
    sim.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1, lambda: None)


def test_event_budget_detects_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_quiescence_hook_refills_queue_once():
    sim = Simulator()
    fired = []
    refills = []

    def hook():
        if not refills:
            refills.append(True)
            sim.schedule(4, fired.append, "late")

    sim.add_quiescence_hook(hook)
    sim.schedule(1, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 5


def test_pending_and_counters():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending == 2
    assert sim.events_fired == 0
    sim.run()
    assert sim.pending == 0
    assert sim.events_fired == 2


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


# ----------------------------------------------------------------------
# Kernel edge cases
# ----------------------------------------------------------------------

def test_post_fires_and_counts():
    sim = Simulator()
    fired = []
    sim.post(2, fired.append, "a")
    sim.post(1, fired.append, "b")
    assert sim.pending == 2
    sim.run()
    assert fired == ["b", "a"]
    assert sim.pending == 0
    assert sim.events_fired == 2


def test_event_exactly_at_until_boundary_fires():
    # `until` is inclusive: an event AT the bound fires and the clock
    # lands on the bound, not past it.
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "edge")
    sim.schedule(5.5, fired.append, "past")
    stopped = sim.run(until=5)
    assert fired == ["edge"]
    assert stopped == 5.0
    assert sim.now == 5.0


def test_cancel_during_same_instant_dispatch():
    # An event cancels a later event at the SAME instant while the
    # instant is being dispatched: the victim must not fire.
    sim = Simulator()
    fired = []
    victim = []

    def killer():
        fired.append("killer")
        victim[0].cancel()

    sim.schedule(1, killer)
    victim.append(sim.schedule(1, fired.append, "victim"))
    sim.schedule(1, fired.append, "after")
    sim.run()
    assert fired == ["killer", "after"]
    assert sim.pending == 0


def test_cancel_during_step():
    sim = Simulator()
    fired = []
    later = sim.schedule(2, fired.append, "later")
    sim.schedule(1, later.cancel)
    assert sim.step() is True  # runs the cancel
    assert sim.step() is False  # nothing live remains
    assert fired == []


def test_quiescence_hook_can_schedule_at_current_instant():
    sim = Simulator()
    fired = []
    refilled = []

    def hook():
        if not refilled:
            refilled.append(True)
            sim.post(0, fired.append, "now")

    sim.add_quiescence_hook(hook)
    sim.post(3, fired.append, "first")
    sim.run()
    assert fired == ["first", "now"]
    assert sim.now == 3.0


def test_int_and_float_times_share_an_instant():
    # post(1) and post(1.0) are the same instant; FIFO holds across the
    # int/float spelling and across post()/schedule() entries.
    sim = Simulator()
    fired = []
    sim.post(1, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    sim.post(1.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 1.0


def test_fifo_across_integer_and_fractional_instants():
    sim = Simulator()
    fired = []
    sim.post(1, fired.append, "t1-first")
    sim.post(0.5, fired.append, "t0.5")
    sim.schedule(1, fired.append, "t1-second")
    sim.post(1.5, fired.append, "t1.5")
    sim.post(1, fired.append, "t1-third")
    sim.run()
    assert fired == ["t0.5", "t1-first", "t1-second", "t1-third", "t1.5"]


def test_same_instant_posts_from_within_dispatch_fire_same_instant():
    # A callback posting at delay 0 extends the current instant's batch.
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.post(0, second)

    def second():
        fired.append(("second", sim.now))

    sim.post(2, first)
    sim.run()
    assert fired == [("first", 2.0), ("second", 2.0)]


def test_cancelled_only_instant_does_not_advance_clock():
    sim = Simulator()
    fired = []
    decoy = sim.schedule(7, fired.append, "decoy")
    sim.schedule(1, fired.append, "real")
    decoy.cancel()
    sim.run()
    assert fired == ["real"]
    assert sim.now == 1.0  # never advanced to the cancelled instant


def test_budget_exhaustion_keeps_unfired_events():
    # Hitting the budget mid-instant must not lose the unfired tail.
    sim = Simulator()
    fired = []
    for name in "abcd":
        sim.post(1, fired.append, name)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=2)
    assert fired == ["a", "b"]
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_double_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending == 0
    sim.run()
    assert sim.events_fired == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1, fired.append, "x")
    sim.run()
    event.cancel()  # already consumed; must not corrupt counters
    assert fired == ["x"]
    assert sim.pending == 0
    assert sim.events_fired == 1


def test_mass_cancellation_keeps_queue_bounded():
    # Regression: 10k schedule-then-cancel cycles used to leave 10k dead
    # Event records in the heap.  The kernel compacts lazily; the debris
    # must stay bounded and the final state clean.
    sim = Simulator()
    fired = []
    for i in range(10_000):
        event = sim.schedule(1_000_000 + i, fired.append, i)
        event.cancel()
        # Debris never exceeds the compaction threshold by more than one
        # pending sweep's worth.
        assert sim._ncancelled <= 1024
    sim.schedule(1, fired.append, "live")
    assert sim.pending == 1
    sim.run()
    assert fired == ["live"]
    assert sim._ncancelled == 0
    assert not sim._buckets
    assert not sim._keys


# ----------------------------------------------------------------------
# Differential: Simulator against the reference kernel
# ----------------------------------------------------------------------

def test_simulator_matches_reference_kernel():
    # A workload mixing posts, schedules, cancels and re-posts fires in
    # the same total order on both kernels.
    def workload(sim):
        order = []

        def spawn(name, depth):
            order.append((name, sim.now))
            if depth > 0:
                sim.post(1, spawn, f"{name}.a", depth - 1)
                sim.post(0.5, spawn, f"{name}.b", depth - 1)
                doomed = sim.schedule(2, order.append, ("doomed", name))
                sim.post(0, doomed.cancel)

        for i in range(3):
            sim.post(i, spawn, f"root{i}", 3)
        sim.run()
        return order, sim.now, sim.events_fired, sim.pending

    assert workload(Simulator()) == workload(ReferenceKernel())


_DELAYS = st.sampled_from([0, 0.5, 1, 1.0, 2, 3.25])

#: One kernel call: (kind, delay, n).  A scheduled callback's label is
#: the caller's label plus n, so labels only grow and every program
#: ends; a cancel picks the n-th handle (mod the handles made).
_CALL = st.tuples(st.sampled_from(["post", "post_at", "schedule", "cancel"]),
                  _DELAYS, st.integers(min_value=1, max_value=3))
_CALLS = st.lists(_CALL, max_size=2)

#: Random programs over the whole kernel surface: ``reactions[label]``
#: lists the calls an event with that label makes when it fires (labels
#: past the end make none); each hook lists the calls it makes on its
#: first invocations; the top level interleaves calls with
#: ``run(until=, max_events=)`` and ``step()``.
kernel_programs = st.tuples(
    st.lists(_CALLS, max_size=10),
    st.lists(st.lists(_CALLS, max_size=2), max_size=2),
    st.lists(st.one_of(
        _CALL,
        st.tuples(st.just("run"), st.one_of(st.none(), _DELAYS),
                  st.one_of(st.none(), st.integers(min_value=0, max_value=12))),
        st.tuples(st.just("step"), st.none(), st.none()),
    ), min_size=1, max_size=12),
)


def _execute(sim, program):
    """Run ``program`` on ``sim``; returns everything observable."""
    reactions, hooks, top = program
    log = []
    handles = []

    def fire(label):
        log.append(("fire", label, sim.now))
        for op in reactions[label] if label < len(reactions) else ():
            apply(op, label)

    def apply(op, label=0):
        kind = op[0]
        if kind == "post":
            sim.post(op[1], fire, label + op[2])
        elif kind == "post_at":
            sim.post_at(sim.now + op[1], fire, label + op[2])
        elif kind == "schedule":
            handles.append(sim.schedule(op[1], fire, label + op[2]))
        elif kind == "cancel":
            if handles:
                handles[op[2] % len(handles)].cancel()
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            try:
                log.append(("run", sim.run(until=until, max_events=op[2])))
            except SimulationError:
                log.append(("budget", sim.now))
        else:
            log.append(("step", sim.step()))

    def make_hook(index, rounds):
        def hook():
            log.append(("quiescent", index, sim.now))
            if rounds:
                for op in rounds.pop(0):
                    apply(op)
        return hook

    for index, rounds in enumerate(hooks):
        sim.add_quiescence_hook(make_hook(index, list(rounds)))
    # The kernel flushes its counters once per instant, so they are
    # compared between top-level calls, never from inside a callback.
    for op in top:
        apply(op)
        log.append(("state", sim.now, sim.events_fired, sim.pending))
    sim.run()
    log.append(("final", sim.now, sim.events_fired, sim.pending))
    return log


@settings(max_examples=300, deadline=None)
@given(program=kernel_programs)
def test_random_programs_match_reference_kernel(program):
    assert _execute(Simulator(), program) == _execute(ReferenceKernel(),
                                                      program)
