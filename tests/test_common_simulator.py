"""Unit tests for the discrete-event kernel.

:class:`ReferenceKernel` below is the oracle: the simplest kernel that
meets the determinism contract, one ``heapq`` of ``(time, seq)``-ordered
entries.  The calendar-queue :class:`Simulator` must fire the same
events in the same order at the same times, with the same ``now``,
``events_fired`` and ``pending``, on fixed workloads and on random
programs.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError, Simulator


class ReferenceKernel:
    """Single-``heapq`` event kernel with the :class:`Simulator` API."""

    def __init__(self):
        self._queue = []  # (time, seq, fn, args)
        self._seq = itertools.count()
        self.now = 0.0
        self.events_fired = 0

    @property
    def pending(self):
        return len(self._queue)

    def post(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._seq), fn, args))

    def run(self, max_events=None):
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                raise SimulationError(f"event budget exhausted ({max_events})")
            self.now, _, fn, args = heapq.heappop(self._queue)
            self.events_fired += 1
            fired += 1
            fn(*args)


class _Boom(Exception):
    """Raised by a callback to interrupt an instant."""


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.post(5, fired.append, "b")
    sim.post(1, fired.append, "a")
    sim.post(9, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.post(3, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_schedule_from_within_event():
    sim = Simulator()
    trace = []

    def first():
        trace.append(("first", sim.now))
        sim.post(2, second)

    def second():
        trace.append(("second", sim.now))

    sim.post(1, first)
    sim.run()
    assert trace == [("first", 1.0), ("second", 3.0)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)


def test_event_budget_detects_livelock():
    sim = Simulator()

    def forever():
        sim.post(1, forever)

    sim.post(0, forever)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_pending_and_counters():
    sim = Simulator()
    sim.post(1, lambda: None)
    sim.post(2, lambda: None)
    assert sim.pending == 2
    assert sim.events_fired == 0
    sim.run()
    assert sim.pending == 0
    assert sim.events_fired == 2


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


def test_int_and_float_times_share_an_instant():
    # post(1) and post(1.0) are the same instant; FIFO holds across the
    # int/float spelling.
    sim = Simulator()
    fired = []
    sim.post(1, fired.append, "a")
    sim.post(1.0, fired.append, "b")
    sim.post(1, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 1.0


def test_fifo_across_integer_and_fractional_instants():
    sim = Simulator()
    fired = []
    sim.post(1, fired.append, "t1-first")
    sim.post(0.5, fired.append, "t0.5")
    sim.post(1, fired.append, "t1-second")
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


def test_budget_exhaustion_keeps_unfired_events():
    # Hitting the budget mid-instant must not lose the unfired tail.
    sim = Simulator()
    fired = []
    for name in "abcd":
        sim.post(1, fired.append, name)
    sim.post(2, fired.append, "e")
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=2)
    assert fired == ["a", "b"]
    # A budget that runs out at an instant boundary leaves the clock on
    # the last instant that fired, not on the next one.
    with pytest.raises(SimulationError, match=r"at t=2\.0"):
        sim.run(max_events=2)
    assert (fired, sim.now, sim.pending) == (list("abcd"), 1.0, 1)
    sim.run()
    assert fired == list("abcde")


def test_exception_mid_instant_keeps_the_tail():
    # A callback that raises ends run(); the events after it at the same
    # instant fire, in order, on the next run().
    def program(sim):
        fired = []

        def boom():
            fired.append("boom")
            raise _Boom

        sim.post(1, fired.append, "a")
        sim.post(1, boom)
        sim.post(1, fired.append, "b")
        sim.post(1, fired.append, "c")
        sim.post(2, fired.append, "d")
        with pytest.raises(_Boom):
            sim.run()
        interrupted = (list(fired), sim.now, sim.events_fired, sim.pending)
        sim.run()
        return interrupted, (fired, sim.now, sim.events_fired, sim.pending)

    got = program(Simulator())
    assert got == program(ReferenceKernel())
    assert got == ((["a", "boom"], 1.0, 2, 3),
                   (["a", "boom", "b", "c", "d"], 2.0, 5, 0))


# ----------------------------------------------------------------------
# Differential: Simulator against the reference kernel
# ----------------------------------------------------------------------

def test_simulator_matches_reference_kernel():
    # A fan-out workload with same-instant, fractional and integer
    # posts fires in the same total order on both kernels, across a
    # budget interruption and the drain that follows it.
    def workload(sim):
        order = []

        def spawn(name, depth):
            order.append((name, sim.now))
            if depth > 0:
                sim.post(1, spawn, f"{name}.a", depth - 1)
                sim.post(0.5, spawn, f"{name}.b", depth - 1)
                sim.post(0, order.append, ("same-instant", name))

        for i in range(3):
            sim.post(i, spawn, f"root{i}", 3)
        with pytest.raises(SimulationError):
            sim.run(max_events=40)
        states = [(sim.now, sim.events_fired, sim.pending)]
        sim.run()
        states.append((sim.now, sim.events_fired, sim.pending))
        return order, states

    assert workload(Simulator()) == workload(ReferenceKernel())


_DELAYS = st.sampled_from([0, 0.5, 1, 1.0, 2, 3.25])

#: One callback action: (kind, delay, n).  A ``post`` labels its event
#: with the caller's label plus n, so labels only grow and every
#: program ends; a ``raise`` aborts the callback (and its run()) there.
_CALL = st.tuples(st.sampled_from(["post", "post", "post", "raise"]),
                  _DELAYS, st.integers(min_value=1, max_value=3))

#: Random programs over the whole kernel surface: ``reactions[label]``
#: lists the actions an event with that label takes when it fires
#: (labels past the end take none); the top level interleaves posts
#: with ``run(max_events=)``.
kernel_programs = st.tuples(
    st.lists(st.lists(_CALL, max_size=2), max_size=10),
    st.lists(st.one_of(
        _CALL.filter(lambda op: op[0] == "post"),
        st.tuples(st.just("run"), st.none(),
                  st.one_of(st.none(), st.integers(min_value=0, max_value=12))),
    ), min_size=1, max_size=12),
)


def _execute(sim, program):
    """Run ``program`` on ``sim``; returns everything observable."""
    reactions, top = program
    log = []

    def fire(label):
        log.append(("fire", label, sim.now))
        for op in reactions[label] if label < len(reactions) else ():
            apply(op, label)

    def apply(op, label=0):
        kind = op[0]
        if kind == "post":
            sim.post(op[1], fire, label + op[2])
        elif kind == "raise":
            raise _Boom(label)
        else:
            run(op[2])

    def run(max_events=None):
        try:
            sim.run(max_events=max_events)
            log.append(("drained",))
        except SimulationError:
            log.append(("budget",))
        except _Boom as exc:
            log.append(("raised", exc.args))

    # The kernel flushes its counters once per instant, so they are
    # compared between top-level calls, never from inside a callback.
    for op in top:
        apply(op)
        log.append(("state", sim.now, sim.events_fired, sim.pending))
    for _ in range(1000):  # each raise ends one run(); bounded drain
        if not sim.pending:
            break
        run()
    log.append(("final", sim.now, sim.events_fired, sim.pending))
    return log


@settings(max_examples=300, deadline=None)
@given(program=kernel_programs)
def test_random_programs_match_reference_kernel(program):
    assert _execute(Simulator(), program) == _execute(ReferenceKernel(),
                                                      program)
