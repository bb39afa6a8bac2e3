"""Tests for the FIFO server, result tables, sweeps and analytic models."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    Table,
    contexts_needed,
    crossover_point,
    efficiency,
    geometric_range,
    harmonic_mean,
    multithreaded_utilization,
    speedup,
    sweep,
    von_neumann_utilization,
)
from repro.common import SimulationError, Simulator
from repro.common.queueing import FifoServer
from repro.common.stats import TimeWeighted, UtilizationTracker


class TestFifoServer:
    def test_fifo_order(self):
        sim = Simulator()
        server = FifoServer(sim, service_time=2)
        done = []
        for item in "abc":
            server.submit(item, done.append)
        sim.run()
        assert done == ["a", "b", "c"]
        assert sim.now == 6
        assert server.items_served == 3

    def test_custom_service_time(self):
        sim = Simulator()
        server = FifoServer(sim, service_time=1)
        done = []
        server.submit("big", done.append, service_time=10)
        sim.run()
        assert sim.now == 10

    def test_resubmission_from_completion(self):
        sim = Simulator()
        server = FifoServer(sim, service_time=1)
        done = []

        def chain(item):
            done.append(item)
            if item < 3:
                server.submit(item + 1, chain)

        server.submit(0, chain)
        sim.run()
        assert done == [0, 1, 2, 3]
        assert sim.now == 4

    def test_utilization_and_queue_depth(self):
        sim = Simulator()
        server = FifoServer(sim, service_time=5)
        server.submit("a", lambda _: None)
        server.submit("b", lambda _: None)
        sim.run()
        assert server.utilization(sim.now) == pytest.approx(1.0)
        assert server.queue_max == 1  # b waited while a served

    def test_idle_server_stays_idle(self):
        sim = Simulator()
        server = FifoServer(sim, service_time=5)
        sim.run()
        assert not server.busy
        assert server.queued == 0


class _OracleFifoServer:
    """The FIFO server as it was built on the stats trackers: one
    ``TimeWeighted`` queue depth updated on every push and pop, and one
    ``UtilizationTracker`` with a begin/end pair per item.  FifoServer
    keeps the same numbers in its own slots and must match this exactly."""

    def __init__(self, sim, service_time):
        self.sim = sim
        self.service_time = service_time
        self._queue = deque()
        self._busy = False
        self.queue_depth = TimeWeighted()
        self.utilization = UtilizationTracker()
        self.items_served = 0

    def submit(self, item, on_done, service_time=None):
        self._queue.append((item, on_done, service_time))
        self.queue_depth.update(self.sim.now, len(self._queue))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            return
        item, on_done, service_time = self._queue.popleft()
        now = self.sim.now
        self.queue_depth.update(now, len(self._queue))
        self._busy = True
        self.utilization.begin(now)
        duration = self.service_time if service_time is None else service_time
        self.sim.post(duration, self._complete, item, on_done)

    def _complete(self, item, on_done):
        self.utilization.end(self.sim.now)
        self._busy = False
        self.items_served += 1
        on_done(item)
        if not self._busy:
            self._start_next()


def _oracle_stats(oracle, now):
    depth, util = oracle.queue_depth, oracle.utilization
    return (oracle.items_served, util.operations, util.busy_time(),
            util.busy_time(now), util.utilization(now),
            depth.mean(), depth.mean(end_time=now), depth.max, depth.current)


def _server_stats(server, now):
    return (server.items_served, server.operations, server.busy_time(),
            server.busy_time(now), server.utilization(now),
            server.queue_mean(), server.queue_mean(end_time=now),
            server.queue_max, float(server.queued))


#: Service and gap times, fractional ones included: 1/3 and 0.1 have no
#: exact binary form, so any reordering of the float sums would show.
_TIMES = st.sampled_from([0, 1, 2, 5, 1 / 3, 0.1, 0.25, 2.5, 7 / 3])

#: One arrival: (gap after the previous one, service-time override or
#: None, how many times on_done resubmits the item synchronously).
_ARRIVALS = st.lists(
    st.tuples(_TIMES, st.one_of(st.none(), _TIMES), st.integers(0, 2)),
    max_size=12,
)


def _replay(make_server, stats, service_time, arrivals, probe_every):
    """Drive one server through ``arrivals``; return every completion
    and the server's statistics (read by ``stats``) after every event."""
    sim = Simulator()
    server = make_server(sim, service_time)
    log = []

    def record(event):
        log.append((event, sim.now) + stats(server, sim.now))

    def done(item):
        name, override, resubmits = item
        record(("done", name))
        if resubmits:
            server.submit((name + "'", override, resubmits - 1), done,
                          service_time=override)
            record(("resubmit", name))

    def arrive(index, override, resubmits):
        server.submit((str(index), override, resubmits), done,
                      service_time=override)
        record(("arrive", index))

    at = 0  # the clock is at 0, so each delay is an absolute time
    for index, (gap, override, resubmits) in enumerate(arrivals):
        at += gap
        sim.post(at, arrive, index, override, resubmits)
    horizon = at + 40
    probe = probe_every
    while probe < horizon:  # mid-service readings
        sim.post(probe, record, ("probe",))
        probe += probe_every
    sim.run()
    return log


class TestFifoServerMatchesTrackers:
    @settings(max_examples=150, deadline=None)
    @given(service_time=_TIMES.filter(lambda t: t > 0),
           arrivals=_ARRIVALS,
           probe_every=st.sampled_from([0.7, 1, 1 / 3]))
    def test_every_event_matches_the_tracker_oracle(self, service_time,
                                                    arrivals, probe_every):
        ours = _replay(FifoServer, _server_stats, service_time, arrivals,
                       probe_every)
        oracle = _replay(_OracleFifoServer, _oracle_stats, service_time,
                         arrivals, probe_every)
        assert ours == oracle

    def test_resubmission_behind_a_queue_keeps_fifo_order(self):
        # "0" completes while "1" waits; its on_done resubmits "0'",
        # which must queue behind "1" rather than jump it.
        arrivals = [(0, None, 1), (0, 1 / 3, 0)]
        ours = _replay(FifoServer, _server_stats, 0.1, arrivals, 0.7)
        assert ours == _replay(_OracleFifoServer, _oracle_stats, 0.1,
                               arrivals, 0.7)
        done = [entry[0][1] for entry in ours if entry[0][0] == "done"]
        assert done == ["0", "1", "0'"]


class TestFifoServerServiceTime:
    def test_negative_service_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FifoServer(sim, -1).submit("a", lambda _: None)
        server = FifoServer(Simulator(), 1)
        with pytest.raises(SimulationError):
            server.submit("b", lambda _: None, -0.5)
        # A queued item's override is checked when its service starts.
        sim = Simulator()
        server = FifoServer(sim, 1)
        server.submit("c", lambda _: None)
        server.submit("d", lambda _: None, -2)
        with pytest.raises(SimulationError):
            sim.run()


class TestTable:
    def test_alignment_and_title(self):
        table = Table("My results", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 20000.0)
        text = str(table)
        assert text.splitlines()[0] == "My results"
        assert "alpha" in text and "2e+04" in text

    def test_wrong_cell_count_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            table.add_row(1)

    def test_bool_and_float_formatting(self):
        table = Table("t", ["x"])
        table.add_row(True)
        table.add_row(0.5)
        table.add_row(0.000123)
        assert table.column("x") == ["yes", "0.5", "0.000123"]

    def test_csv(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        assert table.to_csv() == "a,b\n1,2"

    def test_notes_rendered(self):
        table = Table("t", ["a"], notes=["first"])
        table.note("second")
        text = str(table)
        assert "* first" in text and "* second" in text


class TestSweepHelpers:
    def test_sweep(self):
        assert sweep([1, 2, 3], lambda v: v * v) == [(1, 1), (2, 4), (3, 9)]

    def test_geometric_range(self):
        assert geometric_range(1, 16) == [1, 2, 4, 8, 16]
        assert geometric_range(3, 20, factor=3) == [3, 9]

    def test_crossover_point(self):
        a = [(1, 10), (2, 10), (3, 10)]
        b = [(1, 1), (2, 9), (3, 12)]
        assert crossover_point(a, b) == 3

    def test_no_crossover(self):
        a = [(1, 10), (2, 10)]
        b = [(1, 1), (2, 2)]
        assert crossover_point(a, b) is None

    def test_mismatched_x_rejected(self):
        with pytest.raises(ValueError):
            crossover_point([(1, 0)], [(2, 0)])


class TestMetrics:
    def test_von_neumann_law(self):
        assert von_neumann_utilization(4, 4) == pytest.approx(0.5)
        assert von_neumann_utilization(1, 99) == pytest.approx(0.01)

    def test_multithreaded_saturates(self):
        assert multithreaded_utilization(100, 1, 9) == 1.0
        assert multithreaded_utilization(2, 1, 9) == pytest.approx(0.2)

    def test_contexts_needed_grows_linearly(self):
        small = contexts_needed(1, 10)
        large = contexts_needed(1, 100)
        assert large > small
        assert contexts_needed(1, 100) == pytest.approx(
            10 * contexts_needed(1, 10), rel=0.2
        )

    def test_speedup_and_efficiency(self):
        assert speedup(100, 25) == 4.0
        assert efficiency(100, 25, 8) == 0.5

    def test_harmonic_mean(self):
        assert harmonic_mean([1, 1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 6]) == pytest.approx(3.0)
        assert harmonic_mean([]) == 0.0
