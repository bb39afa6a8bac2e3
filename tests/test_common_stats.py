"""Unit tests for the measurement primitives."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    Counter,
    Histogram,
    SeriesRecorder,
    Simulator,
    TimeWeighted,
    UtilizationTracker,
    summarize,
)
from repro.network import IdealNetwork


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("reads")
        c.add("reads", 4)
        assert c.get("reads") == 5
        assert c["reads"] == 5

    def test_missing_is_zero(self):
        assert Counter().get("nothing") == 0

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestHistogram:
    def test_moments(self):
        h = Histogram()
        for v in [1, 2, 3, 4]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.variance == pytest.approx(1.25)
        assert h.min == 1 and h.max == 4

    def test_weighted_observation(self):
        h = Histogram()
        h.observe(10, weight=3)
        h.observe(20)
        assert h.count == 4
        assert h.mean == pytest.approx(12.5)

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(100) == 100

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.percentile(50) is None


class EagerHistogram:
    """The oracle: every observation applied as it arrives."""

    def __init__(self):
        self.bins = {}
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = None
        self.max = None

    def observe(self, value, weight=1):
        self.bins[value] = self.bins.get(value, 0) + weight
        self.count += weight
        self.total += value * weight
        self.total_sq += value * value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def readings(self):
        mean = self.total / self.count if self.count else 0.0
        variance = (max(0.0, self.total_sq / self.count - mean * mean)
                    if self.count else 0.0)
        percentiles = []
        for q in (0, 10, 50, 95, 100):
            found = None
            if self.count:
                running = 0
                target = q / 100.0 * self.count
                for value in sorted(self.bins):
                    running += self.bins[value]
                    if running >= target:
                        found = value
                        break
                else:
                    found = self.max
            percentiles.append(found)
        return readings_of(self.count, mean, variance, self.min, self.max,
                           percentiles, sorted(self.bins.items()))


def readings_of(count, mean, variance, low, high, percentiles, items):
    # repr tells 1 from 1.0, so an int and a float bin cannot stand in
    # for each other.
    return (repr(count), repr(mean), repr(variance), repr(low), repr(high),
            repr(percentiles), repr(items))


def histogram_readings(h):
    return readings_of(h.count, h.mean, h.variance, h.min, h.max,
                       [h.percentile(q) for q in (0, 10, 50, 95, 100)],
                       h.items())


VALUES = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, 1.5, 4.0, -0.0, 1e-9]),
)
WEIGHTS = st.one_of(st.integers(min_value=0, max_value=4),
                    st.floats(min_value=0.1, max_value=3.0))
OPS = st.lists(st.one_of(
    st.tuples(st.just("unit"), VALUES),
    st.tuples(st.just("burst"), VALUES,
              st.integers(min_value=1, max_value=2 * Histogram.PENDING_MAX)),
    st.tuples(st.just("weighted"), VALUES, WEIGHTS),
    st.tuples(st.just("read")),
), max_size=40)


class TestLazyFold:
    """Values appended to ``pending`` and folded later read exactly as
    eager ``observe`` calls, compared with ``==`` on their reprs."""

    @staticmethod
    def record(h, value):
        # What a per-event recorder does: append, and fold at the bound.
        h.pending.append(value)
        if len(h.pending) >= Histogram.PENDING_MAX:
            h.fold()

    @settings(max_examples=150, deadline=None)
    @given(OPS)
    def test_lazy_equals_eager(self, ops):
        lazy, eager = Histogram(), EagerHistogram()
        for op in ops:
            if op[0] == "unit":
                self.record(lazy, op[1])
                eager.observe(op[1])
            elif op[0] == "burst":
                for _ in range(op[2]):
                    self.record(lazy, op[1])
                    eager.observe(op[1])
                assert len(lazy.pending) < Histogram.PENDING_MAX
            elif op[0] == "weighted":
                lazy.observe(op[1], weight=op[2])
                eager.observe(op[1], weight=op[2])
            else:
                assert histogram_readings(lazy) == eager.readings()
                assert not lazy.pending
        assert histogram_readings(lazy) == eager.readings()

    def test_fractional_sums_keep_arrival_order(self):
        values = [0.1, 1e16, -1e16, 0.2, 0.3] * 5
        lazy, eager = Histogram(), EagerHistogram()
        for value in values:
            lazy.pending.append(value)
            eager.observe(value)
        assert histogram_readings(lazy) == eager.readings()

    def test_copies_round_trip_and_stay_independent(self):
        h = Histogram()
        h.observe(3, weight=2)
        h.pending.extend([0.5, 7, 0.25])
        expected = EagerHistogram()
        for value, weight in ((3, 2), (0.5, 1), (7, 1), (0.25, 1)):
            expected.observe(value, weight)
        copies = [copy.deepcopy(h), pickle.loads(pickle.dumps(h))]
        for clone in copies:
            assert clone.pending == [0.5, 7, 0.25]
            clone.pending.append(100)
        assert h.pending == [0.5, 7, 0.25]
        assert histogram_readings(h) == expected.readings()
        expected.observe(100)
        for clone in copies:
            assert histogram_readings(clone) == expected.readings()


def _drop(packet):
    pass


def ideal_network_with_pending(n_packets):
    sim = Simulator()
    net = IdealNetwork(sim, 2, latency=1.5)
    net.attach(0, _drop)
    net.attach(1, _drop)
    for i in range(n_packets):
        net.send(i % 2, (i // 2) % 2, i)
        if i % 3 == 0:
            sim.run()
    sim.run()
    return sim, net


def network_readings(net):
    return (histogram_readings(net.latency),
            histogram_readings(net.hop_counts))


class TestNetworkHistograms:
    def test_deliveries_fold_at_the_bound(self):
        sim, net = ideal_network_with_pending(0)
        latencies, hops = EagerHistogram(), EagerHistogram()
        for i in range(2 * Histogram.PENDING_MAX + 5):
            src, dst = i % 2, (i // 3) % 2
            net.send(src, dst, i)
            sim.run()
            latencies.observe(1.5)
            hops.observe(0 if src == dst else 1)
            assert len(net.latency.pending) < Histogram.PENDING_MAX
            assert len(net.hop_counts.pending) < Histogram.PENDING_MAX
        assert net.latency.pending and net.hop_counts.pending
        assert network_readings(net) == (latencies.readings(),
                                         hops.readings())

    @pytest.mark.parametrize("clone", [
        copy.deepcopy,
        lambda net: pickle.loads(pickle.dumps(net)),
    ], ids=["deepcopy", "pickle"])
    def test_network_copies_round_trip_and_stay_independent(self, clone):
        sim, net = ideal_network_with_pending(7)
        assert net.latency.pending and net.hop_counts.pending
        copied = clone(net)
        assert network_readings(copied) == network_readings(net)
        # Deliveries into the copy reach its own histograms only.
        before = network_readings(net)
        for i in range(5):
            copied.send(0, 1, i)
        copied.sim.run()
        assert copied.latency.count == net.latency.count + 5
        assert network_readings(net) == before


class TestTimeWeighted:
    def test_mean_occupancy(self):
        tw = TimeWeighted(initial=0)
        tw.update(10, 4)  # 0 for 10 cycles
        tw.update(20, 0)  # 4 for 10 cycles
        assert tw.mean() == pytest.approx(2.0)
        assert tw.max == 4

    def test_extend_to_end_time(self):
        tw = TimeWeighted(initial=2)
        tw.update(5, 6)
        assert tw.mean(end_time=10) == pytest.approx((2 * 5 + 6 * 5) / 10)

    def test_adjust(self):
        tw = TimeWeighted()
        tw.adjust(1, +3)
        tw.adjust(2, -1)
        assert tw.current == 2

    def test_time_going_backwards_rejected(self):
        tw = TimeWeighted()
        tw.update(5, 1)
        with pytest.raises(ValueError):
            tw.update(4, 2)


class TestUtilizationTracker:
    def test_simple_busy_interval(self):
        u = UtilizationTracker()
        u.begin(2)
        u.end(6)
        assert u.utilization(10) == pytest.approx(0.4)
        assert u.operations == 1

    def test_overlapping_intervals_count_once(self):
        u = UtilizationTracker()
        u.begin(0)
        u.begin(1)
        u.end(2)
        u.end(4)
        assert u.busy_time() == pytest.approx(4.0)

    def test_open_interval_extends_to_now(self):
        u = UtilizationTracker()
        u.begin(5)
        assert u.busy_time(now=8) == pytest.approx(3.0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError):
            UtilizationTracker().end(1)

    def test_zero_window(self):
        assert UtilizationTracker().utilization(0) == 0.0


def test_series_recorder():
    s = SeriesRecorder()
    s.record(1, 10)
    s.record(2, 20)
    assert len(s) == 2
    assert list(s) == [(1, 10), (2, 20)]
    assert s.times == [1, 2]
    assert s.values == [10, 20]


def test_summarize():
    mean, std, low, high = summarize([2, 4, 6])
    assert mean == pytest.approx(4.0)
    assert low == 2 and high == 6
    assert std == pytest.approx(1.632993, rel=1e-5)
    assert summarize([]) == (0.0, 0.0, None, None)
