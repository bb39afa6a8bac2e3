"""Host-speed calibration: a fixed pure-Python loop timed between ops.

A small shared host can drift in speed by tens of percent over minutes,
so a raw wall time mixes the program's speed with the host's.  The loop below does the same kind of work the simulator's
hot path does (a heap of timestamped tuples, dict probes, small-object
attribute traffic, bound-method calls, list queues) and imports nothing
from ``repro``, so a change to the program cannot move it.  Dividing an
op's wall time by the loop time measured around it, then multiplying by
:data:`NOMINAL_CALIB_MS`, gives the op's time on a host where the loop
takes exactly that long.
"""

import bisect
import gc
import heapq
import os
import statistics
import time

#: Loop time (ms) the calibrated figures are scaled to: roughly what one
#: :func:`calib_loop` takes on an idle core of the reference host.
NOMINAL_CALIB_MS = 2.3

#: How an op on one thread scales with the loop: its time goes as the
#: loop time to this power.  On the reference host, runs whose CPUs
#: stayed slow all run (loop 4.2-4.8 ms against 2.3 ms) slowed the
#: simulator by the 0.69 (dataflow) and 0.77 (vonneumann) power of the
#: loop's slowdown, while runs whose CPUs flipped between the states
#: read steadiest at power 1; 0.85 splits the difference (README.md).
#: Ops spread over processes scale as the loop does.
THREAD_EXPONENT = 0.85

#: Seconds of samples on each side of an op over which its steal share
#: is taken: /proc/stat counts in 10 ms ticks, too coarse for one op.
STEAL_WINDOW = 1.0

class _Token:
    __slots__ = ("tag", "value", "port")

    def __init__(self, tag, value, port):
        self.tag = tag
        self.value = value
        self.port = port


class _Server:
    def __init__(self):
        self.queue = []
        self.busy = 0
        self.served = 0

    def submit(self, item):
        self.queue.append(item)
        self.busy += 1

    def drain(self):
        total = 0
        while self.queue:
            token = self.queue.pop()
            total += token.value
            self.served += 1
        return total


def calib_loop(n=2400):
    """One fixed unit of interpreter work; returns a checksum so the
    work cannot be optimised away."""
    heap = []
    waiting = {}
    servers = [_Server() for _ in range(8)]
    checksum = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i, i & 7))
        if len(heap) > 32:
            when, seq, port = heapq.heappop(heap)
            key = (seq % 97, port)
            partner = waiting.pop(key, None)
            if partner is None:
                waiting[key] = _Token(key, when, port)
            else:
                server = servers[port]
                server.submit(_Token(key, partner.value + when, port))
                if server.busy % 4 == 0:
                    checksum += server.drain()
    while heap:
        checksum += heapq.heappop(heap)[0]
    return checksum + sum(s.served for s in servers) + len(waiting)


def calib_sample():
    """CPU seconds of one :func:`calib_loop` on this thread.

    CPU time rather than wall: the host's slow state shows in both, but
    a sample taken while other processes compete for the CPUs (as in
    the middle of a ``suite`` op) would count their share in its wall.
    The collector is off while the loop runs, so the loop's time does
    not depend on how many objects the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        calib_loop()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def calib_sample_cpus():
    """Loop seconds for the host's CPUs together: one :func:`calib_sample`
    pinned to each CPU this process may use, combined as their joint
    rate (the harmonic mean of the per-CPU times).

    The CPUs of a small shared host run at different speeds, each
    changing within a second, so an op spread over several processes
    runs at their joint speed rather than at the speed of whichever CPU
    an unpinned sample lands on.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calib_sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return len(times) / sum(1.0 / t for t in times)


def steal_counters():
    """(steal, busy) ticks summed over the host's CPUs, from /proc/stat.

    Steal is time a CPU of this virtual machine wanted to run but the
    hypervisor ran another guest; busy is all the time the CPUs wanted
    to run, steal included.  A stolen slice stops the program's wall
    clock but not the loop's CPU clock, so the loop cannot see it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    # cpu user nice system idle iowait irq softirq steal [guest ...]
    ticks = [int(value) for value in fields[1:9]]
    if len(ticks) < 8:
        return 0, 0
    return ticks[7], sum(ticks) - ticks[3] - ticks[4]


class Calibrator:
    """Calibration samples taken between ops, keyed by when they ran.

    ``maybe()`` takes a sample when ``interval`` seconds have passed
    since the last one (0: after every op).  An op that ran from ``t0``
    to ``t1`` is scaled by the nominal loop time over the last sample
    before it and the first sample after it.

    For ops that run on one thread (``all_cpus`` false) a sample is the
    loop on the CPU the thread is on, and the faster bracketing sample is
    the reference: the op ran on the same CPU, whose speed flips within
    a second, and the faster sample proved the steadier reference over
    repeated runs (see README.md).  For ops spread over processes a
    sample is :func:`calib_sample_cpus` and the reference is the mean of
    the two bracketing samples.

    A single-thread op scales by that ratio to the power
    :data:`THREAD_EXPONENT`.  The scale is then cut by the share of the
    CPUs' busy time the hypervisor stole within :data:`STEAL_WINDOW` of
    the op, since a stolen slice lengthens the op's wall but not the
    loop's CPU time.
    """

    def __init__(self, interval=0.0, all_cpus=False):
        self.interval = interval
        self.all_cpus = all_cpus
        self.exponent = 1.0 if all_cpus else THREAD_EXPONENT
        self.times = []         # perf_counter at each sample
        self.seconds = []       # loop seconds of each sample
        self.steal = []         # steal_counters() at each sample

    def sample(self):
        seconds = calib_sample_cpus() if self.all_cpus else calib_sample()
        self.times.append(time.perf_counter())
        self.seconds.append(seconds)
        self.steal.append(steal_counters())
        return seconds

    def maybe(self):
        if (not self.times
                or time.perf_counter() - self.times[-1] >= self.interval):
            self.sample()

    def local_ms(self, t0, t1):
        """Loop time (ms) around the span [t0, t1]."""
        before = max(0, bisect.bisect(self.times, t0) - 1)
        after = min(len(self.times) - 1, bisect.bisect(self.times, t1))
        pair = (self.seconds[before], self.seconds[after])
        return 1000.0 * (statistics.fmean(pair) if self.all_cpus
                         else min(pair))

    def steal_share(self, t0=None, t1=None):
        """Share of busy CPU time stolen within :data:`STEAL_WINDOW` of
        the span [t0, t1], or over the whole run."""
        lo, hi = 0, len(self.times) - 1
        if t0 is not None:
            lo = max(lo, bisect.bisect(self.times, t0 - STEAL_WINDOW) - 1)
            hi = min(hi, bisect.bisect(self.times, t1 + STEAL_WINDOW))
        steal = self.steal[hi][0] - self.steal[lo][0]
        busy = self.steal[hi][1] - self.steal[lo][1]
        return steal / busy if busy > 0 else 0.0

    def factor(self, t0, t1, during_ms=None):
        """Scale for an op that ran from ``t0`` to ``t1``; ``during_ms``
        is a loop time the op measured while it ran, if it did."""
        if during_ms is None:
            during_ms = self.local_ms(t0, t1)
        return ((NOMINAL_CALIB_MS / during_ms) ** self.exponent
                * (1.0 - self.steal_share(t0, t1)))

    def summary(self):
        """(median loop ms, spread) over the run, spread being the
        interquartile range as a share of the median."""
        values = [1000.0 * s for s in self.seconds]
        median = statistics.median(values)
        if len(values) < 4:
            return median, 0.0
        q1, _, q3 = statistics.quantiles(values, n=4)
        return median, (q3 - q1) / median
