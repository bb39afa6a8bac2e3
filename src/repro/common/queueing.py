"""A single-server FIFO queue — the workhorse of every timed resource.

Network links, crossbar output ports, memory modules, buses: all are
modelled as a server that holds one item at a time for a service time and
keeps arrivals in FIFO order.  Completion hands the item to a callback.

This sits on the hot path of every machine model, so it is deliberately
lean: a ``deque`` (O(1) at both ends, unlike ``list.pop(0)``), the
fire-and-forget ``post`` scheduling fast path, ``__slots__``, and its own
statistics kept in its own slots rather than in separate tracker objects.

The statistics are the ones a ``UtilizationTracker`` (busy time,
operations) and a ``TimeWeighted`` queue depth would record, computed
with exactly the same floating-point operations in the same order, so
every busy time, utilization and queue mean is bit-identical to theirs,
fractional cycle times included.  A submit to an idle server with an
empty queue starts service at once: the queue depth would step 0 -> 1 -> 0
at one instant, and of that transient only ``elapsed += now - last``,
``last = now`` and the maximum survive (``area += 0.0 * dt`` and
``area += 1.0 * 0.0`` leave the sums unchanged in IEEE arithmetic).
"""

from collections import deque

from .stats import time_weighted_mean

__all__ = ["FifoServer"]


class FifoServer:
    """One resource serving one item at a time, FIFO."""

    __slots__ = ("sim", "service_time", "name", "_queue", "_busy",
                 "items_served", "_operations", "_busy_total", "_busy_since",
                 "_q_area", "_q_elapsed", "_q_last", "_q_depth", "_q_max")

    def __init__(self, sim, service_time, name="server"):
        self.sim = sim
        self.service_time = service_time
        self.name = name
        self._queue = deque()
        self._busy = False
        self.items_served = 0
        # Busy-time accounting over the window [0, now].
        self._operations = 0
        self._busy_total = 0.0
        self._busy_since = None
        # Time-weighted queue depth: area under the depth curve, the time
        # it covers, when it last changed, its value since then, its peak.
        self._q_area = 0.0
        self._q_elapsed = 0.0
        self._q_last = 0.0
        self._q_depth = 0.0
        self._q_max = 0.0

    def submit(self, item, on_done, service_time=None):
        """Enqueue ``item``; call ``on_done(item)`` when service completes."""
        sim = self.sim
        now = sim._now
        queue = self._queue
        if self._busy or queue:
            queue.append((item, on_done, service_time))
            dt = now - self._q_last
            self._q_area += self._q_depth * dt
            self._q_elapsed += dt
            self._q_last = now
            depth = self._q_depth = self._q_depth + 1.0
            if depth > self._q_max:
                self._q_max = depth
            if not self._busy:  # inside an on_done: start the queue's head
                self._start_next()
            return
        self._q_elapsed += now - self._q_last
        self._q_last = now
        if self._q_max < 1.0:
            self._q_max = 1.0
        self._busy = True
        self._busy_since = now
        self._operations += 1
        sim.post(self.service_time if service_time is None else service_time,
                 self._complete, item, on_done)

    def _start_next(self):
        item, on_done, service_time = self._queue.popleft()
        sim = self.sim
        now = sim._now
        dt = now - self._q_last
        self._q_area += self._q_depth * dt
        self._q_elapsed += dt
        self._q_last = now
        self._q_depth -= 1.0
        self._busy = True
        self._busy_since = now
        self._operations += 1
        sim.post(self.service_time if service_time is None else service_time,
                 self._complete, item, on_done)

    def _complete(self, item, on_done):
        self._busy_total += self.sim._now - self._busy_since
        self._busy = False
        self.items_served += 1
        on_done(item)
        # on_done may have resubmitted synchronously (and so started one).
        if not self._busy and self._queue:
            self._start_next()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def operations(self):
        """Services started so far."""
        return self._operations

    def busy_time(self, now=None):
        """Cycles spent serving; ``now`` counts a service in progress."""
        total = self._busy_total
        if self._busy and now is not None:
            total += now - self._busy_since
        return total

    def utilization(self, now):
        """Fraction of [0, now] during which the server was busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / now)

    def queue_mean(self, end_time=None):
        """Time-weighted mean queue depth, optionally extending the
        current depth to ``end_time``."""
        return time_weighted_mean(self._q_area, self._q_elapsed,
                                  self._q_last, self._q_depth, end_time)

    @property
    def queue_max(self):
        """Deepest the queue has been; an arrival counts for the instant
        it is queued, even when it starts service at once."""
        return self._q_max

    @property
    def queued(self):
        return len(self._queue)

    @property
    def busy(self):
        return self._busy

    def __repr__(self):
        return (
            f"<FifoServer {self.name!r} queued={self.queued} busy={self._busy} "
            f"served={self.items_served}>"
        )
