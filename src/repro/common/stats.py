"""Measurement primitives used by every machine model.

The paper's figure of merit is "ALU utilization / idle time" (§1.2); the
classes here make that and related quantities (queue occupancy over time,
latency distributions, message counts) cheap to record during a simulation
and easy to summarize afterwards.
"""

import math

__all__ = [
    "Counter",
    "SlotCounter",
    "Histogram",
    "TimeWeighted",
    "TimeWeightedView",
    "UtilizationTracker",
    "UtilizationView",
    "SeriesRecorder",
    "summarize",
    "time_weighted_mean",
]


class Counter:
    """A named bundle of monotonically increasing integer counters."""

    def __init__(self):
        self._counts = {}

    def add(self, name, amount=1):
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name, default=0):
        return self._counts.get(name, default)

    def as_dict(self):
        return dict(self._counts)

    def __getitem__(self, name):
        return self.get(name)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Counter({inner})"


class SlotCounter(Counter):
    """A Counter whose hottest counts live in their owner's own slots.

    An owner on a per-event path bumps plain integer attributes instead
    of calling :meth:`add`; ``read()`` returns those counts as a dict,
    and they are folded in only when someone reads the counter.  Counts
    recorded through :meth:`add` (the rare ones) are merged in after
    them.  A hot count that is still zero stays absent, exactly as a
    name never passed to ``add`` is absent from a plain Counter.
    """

    def __init__(self, read):
        super().__init__()
        self._read = read

    def get(self, name, default=0):
        return self.as_dict().get(name, default)

    def as_dict(self):
        counts = {name: value for name, value in self._read().items() if value}
        for name, value in self._counts.items():
            counts[name] = counts.get(name, 0) + value
        return counts


class Histogram:
    """An exact histogram over discrete (or binned) observations."""

    def __init__(self):
        self._bins = {}
        self._count = 0
        self._total = 0.0
        self._total_sq = 0.0
        self._min = None
        self._max = None

    def observe(self, value, weight=1):
        self._bins[value] = self._bins.get(value, 0) + weight
        self._count += weight
        self._total += value * weight
        self._total_sq += value * value * weight
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def count(self):
        return self._count

    @property
    def mean(self):
        return self._total / self._count if self._count else 0.0

    @property
    def variance(self):
        if not self._count:
            return 0.0
        mean = self.mean
        return max(0.0, self._total_sq / self._count - mean * mean)

    @property
    def stddev(self):
        return math.sqrt(self.variance)

    @property
    def min(self):
        return self._min

    @property
    def max(self):
        return self._max

    def percentile(self, q):
        """Exact q-th percentile (0 <= q <= 100) of the observed values."""
        if not self._count:
            return None
        target = q / 100.0 * self._count
        running = 0
        for value in sorted(self._bins):
            running += self._bins[value]
            if running >= target:
                return value
        return self._max

    def items(self):
        return sorted(self._bins.items())

    def __repr__(self):
        return (
            f"Histogram(n={self._count}, mean={self.mean:.3f}, "
            f"min={self._min}, max={self._max})"
        )


class TimeWeighted:
    """Tracks a piecewise-constant quantity over simulated time.

    Typical uses: waiting-matching store occupancy, deferred-read-list
    length, network queue depth.  ``update`` must be called with
    non-decreasing timestamps.
    """

    def __init__(self, initial=0.0, start_time=0.0):
        self._value = float(initial)
        self._last_time = float(start_time)
        self._weighted_total = 0.0
        self._elapsed = 0.0
        self._max = float(initial)

    def update(self, time, value):
        """Record that the quantity changed to ``value`` at ``time``."""
        dt = time - self._last_time
        if dt < 0:
            raise ValueError(f"time moved backwards: {self._last_time} -> {time}")
        self._weighted_total += self._value * dt
        self._elapsed += dt
        self._last_time = time
        self._value = float(value)
        if self._value > self._max:
            self._max = self._value

    def adjust(self, time, delta):
        """Convenience: change the quantity by ``delta`` at ``time``."""
        self.update(time, self._value + delta)

    @property
    def current(self):
        return self._value

    @property
    def max(self):
        return self._max

    def mean(self, end_time=None):
        """Time-weighted mean, optionally extending the last value to
        ``end_time``."""
        return time_weighted_mean(self._weighted_total, self._elapsed,
                                  self._last_time, self._value, end_time)


def time_weighted_mean(total, elapsed, last_time, value, end_time=None):
    """The mean :meth:`TimeWeighted.mean` reports, from its state: the
    area under the curve, the time it covers, when the quantity last
    changed and its ``value`` since then."""
    if end_time is not None and end_time > last_time:
        total += value * (end_time - last_time)
        elapsed += end_time - last_time
    return total / elapsed if elapsed > 0 else value


class TimeWeightedView:
    """Read-only :class:`TimeWeighted` over state its owner keeps in
    its own slots and updates inline, with the same float operations in
    the same order.  ``state()`` returns ``(area, elapsed, last_time,
    value, max)``; ``value`` and ``max`` may be ints and are reported as
    floats, as :class:`TimeWeighted` reports them."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    @property
    def current(self):
        return float(self._state()[3])

    @property
    def max(self):
        return float(self._state()[4])

    def mean(self, end_time=None):
        area, elapsed, last_time, value, _max = self._state()
        return time_weighted_mean(area, elapsed, last_time, float(value),
                                  end_time)


class UtilizationTracker:
    """Busy/idle accounting for a hardware unit (ALU, link, port).

    Units report half-open busy intervals; utilization is total busy time
    divided by the observation window.  Overlapping busy intervals (a unit
    with internal parallelism) are supported by tracking a busy *count*.
    """

    def __init__(self, start_time=0.0):
        self._busy_depth = 0
        self._busy_since = None
        self._busy_total = 0.0
        self._start = float(start_time)
        self._operations = 0

    def begin(self, time):
        if self._busy_depth == 0:
            self._busy_since = time
        self._busy_depth += 1
        self._operations += 1

    def end(self, time):
        if self._busy_depth <= 0:
            raise ValueError("UtilizationTracker.end() without matching begin()")
        self._busy_depth -= 1
        if self._busy_depth == 0:
            self._busy_total += time - self._busy_since
            self._busy_since = None

    def busy_time(self, now=None):
        total = self._busy_total
        if self._busy_depth > 0 and now is not None:
            total += now - self._busy_since
        return total

    @property
    def operations(self):
        return self._operations

    def utilization(self, now):
        """Fraction of [start, now] during which the unit was busy."""
        window = now - self._start
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / window)


class UtilizationView:
    """Read-only :class:`UtilizationTracker` (start 0, one operation at
    a time) over state its owner keeps in its own slots.  ``state()``
    returns ``(busy_total, busy_since, operations)``, with
    ``busy_since`` None while the unit is idle."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def busy_time(self, now=None):
        total, since, _operations = self._state()
        if since is not None and now is not None:
            total += now - since
        return total

    @property
    def operations(self):
        return self._state()[2]

    def utilization(self, now):
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / now)


class SeriesRecorder:
    """Records (time, value) samples for post-hoc plotting or assertions."""

    def __init__(self):
        self._times = []
        self._values = []

    def record(self, time, value):
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self):
        return list(self._times)

    @property
    def values(self):
        return list(self._values)

    def __len__(self):
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))


def summarize(values):
    """Return (mean, stddev, min, max) of an iterable of numbers."""
    data = list(values)
    if not data:
        return (0.0, 0.0, None, None)
    n = len(data)
    mean = sum(data) / n
    var = sum((x - mean) ** 2 for x in data) / n
    return (mean, math.sqrt(var), min(data), max(data))
