"""The timed I-structure memory controller.

Wraps the untimed :class:`~repro.istructure.store.IStructureModule` with a
single-server queue and the service costs the paper states (§2.1): "A read
operation is as efficient as in a traditional memory.  Write operations
take twice as long, however, due to the prefetching of presence bits."

Satisfied reads (immediate or deferred) are handed to a ``deliver``
callback; in the dataflow machine that callback injects the d=0 result
token into the network back toward the requesting PE.

Like :class:`~repro.common.queueing.FifoServer`, the controller keeps
its queue-depth and busy-time statistics in its own attributes, with the
float operations a ``TimeWeighted`` and a ``UtilizationTracker`` would
apply, in the same order; ``queue_depth`` and ``utilization`` read them.
Its per-request counts live in attributes too, and ``counters`` (a
``SlotCounter``) reads them under their usual names.
"""

from collections import deque

from ..common.stats import SlotCounter, TimeWeightedView, UtilizationView
from .store import DEFERRED, IStructureModule

__all__ = ["IStructureController", "ReadRequest", "WriteRequest"]


class ReadRequest:
    """A d=1 FETCH token's payload: read ``key``, answer to ``reply``."""

    __slots__ = ("key", "reply", "cause", "retries", "fault_delay")

    def __init__(self, key, reply, cause=None):
        self.key = key
        self.reply = reply
        self.cause = cause  # provenance eid of the requesting event
        self.retries = 0  # injected transient failures survived so far
        self.fault_delay = 0.0  # injected extra reply latency (slow bank)


class WriteRequest:
    """A d=1 STORE token's payload: write ``value`` into ``key``."""

    __slots__ = ("key", "value", "cause", "retries", "fault_delay")

    def __init__(self, key, value, cause=None):
        self.key = key
        self.value = value
        self.cause = cause  # provenance eid of the requesting event
        self.retries = 0  # injected transient failures survived so far
        self.fault_delay = 0.0  # injected extra reply latency (slow bank)


class IStructureController:
    """One controller serving one I-structure module, FIFO, one request at
    a time."""

    def __init__(
        self,
        sim,
        deliver,
        name="isc",
        read_cycles=1,
        write_cycles=2,
        drain_cycles_per_deferred=1,
        module=None,
        trace=None,
        bus=None,
        faults=None,
    ):
        self.sim = sim
        self.deliver = deliver
        self.name = name
        self.read_cycles = read_cycles
        self.write_cycles = write_cycles
        self.drain_cycles_per_deferred = drain_cycles_per_deferred
        self.module = module if module is not None else IStructureModule(name)
        self._queue = deque()
        self._busy = False
        # Per-request counts; fault_retries goes through counters.add.
        self._requests = 0
        self._reads = 0
        self._writes = 0
        self._reads_deferred = 0
        self._reads_drained = 0
        self.counters = SlotCounter(self._hot_counts)
        # Queue depth over time: area, time covered, last change, depth
        # since then, peak.
        self._q_area = 0.0
        self._q_elapsed = 0.0
        self._q_last = 0.0
        self._q_depth = 0.0
        self._q_max = 0.0
        self.queue_depth = TimeWeightedView(
            lambda: (self._q_area, self._q_elapsed, self._q_last,
                     self._q_depth, self._q_max))
        # Busy time: total over finished services, start of the current
        # one, services started.
        self._busy_total = 0.0
        self._busy_since = 0.0
        self._operations = 0
        self.utilization = UtilizationView(
            lambda: (self._busy_total,
                     self._busy_since if self._busy else None,
                     self._operations))
        #: Optional ``trace(kind, detail, **fields)`` observability hook;
        #: None (the default) keeps the controller's hot path free of any
        #: per-event work beyond this attribute check.  ``bus`` is only
        #: consulted for its ``enabled`` flag, so detail strings are not
        #: built while no sink is listening.  The hook returns the event's
        #: provenance eid (or None).
        self._trace = trace
        self._bus = bus
        #: Optional :class:`repro.faults.FaultInjector`; None keeps the
        #: service path at one attribute check.
        self.faults = faults
        #: Provenance eid to attach to the token built by the very next
        #: ``deliver`` call; set synchronously right before each delivery.
        self.reply_cause = None
        self._deferred_causes = {}

    def _hot_counts(self):
        return {"requests": self._requests, "reads": self._reads,
                "writes": self._writes,
                "reads_deferred": self._reads_deferred,
                "reads_drained": self._reads_drained}

    # ------------------------------------------------------------------
    def _queue_step(self, delta):
        """The queue depth changes by ``delta`` now."""
        now = self.sim._now
        dt = now - self._q_last
        self._q_area += self._q_depth * dt
        self._q_elapsed += dt
        self._q_last = now
        depth = self._q_depth = self._q_depth + delta
        if depth > self._q_max:
            self._q_max = depth

    def submit(self, request):
        """Accept a read or write request (arrival of a d=1 token)."""
        self._queue.append(request)
        self._queue_step(1.0)
        self._requests += 1
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            return
        request = self._queue.popleft()
        self._queue_step(-1.0)
        if isinstance(request, ReadRequest):
            service = self.read_cycles
        else:
            service = self.write_cycles
        faults = self.faults
        if faults is not None:
            verdict = faults.memory_fault(self.sim, self.name,
                                          retries=request.retries,
                                          cause=request.cause)
            if verdict is not None:
                kind, cycles = verdict
                if kind == "fail":
                    # Transient bank failure: nothing is applied; the
                    # controller itself retries the request after a
                    # growing backoff (the machine-layer recovery
                    # policy) and meanwhile serves the next one.
                    request.retries += 1
                    self.counters.add("fault_retries")
                    self.sim.post(cycles, self.submit, request)
                    self._start_next()
                    return
                # Slow bank: latency-shaped — the op applies on schedule
                # and the controller stays available, but the reply (and
                # any reads this write drains) lands ``cycles`` late.
                # This is the fault a split-phase machine can overlap.
                request.fault_delay = cycles
        self._busy = True
        self._busy_since = self.sim._now
        self._operations += 1
        self.sim.post(service, self._complete, request)

    def _complete(self, request):
        extra = 0.0
        tracing = self._trace is not None and (
            self._bus is None or self._bus.enabled
        )
        if isinstance(request, ReadRequest):
            # A deferred read costs nothing extra now; it pays its
            # processing cycle when the write drains the list.
            value = self.module.read(request.key, request.reply)
            if value is DEFERRED:
                self._reads_deferred += 1
                if tracing:
                    eid = self._trace("is_defer", repr(request.key),
                                      parent=request.cause)
                    if eid is not None:
                        self._deferred_causes[request.reply] = eid
            else:
                self._reads += 1
                self.reply_cause = None
                if tracing:
                    self.reply_cause = self._trace(
                        "is_read", repr(request.key), parent=request.cause,
                        dur=self.read_cycles,
                    )
                if request.fault_delay:
                    self.sim.post(request.fault_delay, self._deliver_delayed,
                                  request.reply, value, self.reply_cause)
                else:
                    self.deliver(request.reply, value)
        else:
            drained = self.module.write(request.key, request.value)
            extra = self.drain_cycles_per_deferred * len(drained)
            self._writes += 1
            self._reads_drained += len(drained)
            eid = None
            if tracing:
                # The write joins the deferred reads it drains, so the
                # read-side chains stay connected through the DAG.
                joins = [
                    self._deferred_causes.pop(reply)
                    for reply in drained
                    if reply in self._deferred_causes
                ] or None
                eid = self._trace("is_write", repr(request.key),
                                  drained=len(drained),
                                  parent=request.cause, joins=joins,
                                  dur=self.write_cycles)
            for reply in drained:
                if request.fault_delay:
                    self.sim.post(request.fault_delay, self._deliver_delayed,
                                  reply, request.value, eid)
                else:
                    self.reply_cause = eid
                    self.deliver(reply, request.value)
        if extra > 0:
            self.sim.post(extra, self._finish_drain)
        else:
            self._finish_drain()

    def _deliver_delayed(self, reply, value, cause):
        # Slow-bank fault delivery: reply_cause is consumed synchronously
        # by the deliver callback, so setting it here is race-free.
        self.reply_cause = cause
        self.deliver(reply, value)

    def _finish_drain(self):
        self._busy_total += self.sim._now - self._busy_since
        self._busy = False
        self._start_next()

    # ------------------------------------------------------------------
    @property
    def pending_reads(self):
        return self.module.pending_reads()

    @property
    def queued(self):
        return len(self._queue)

    def __repr__(self):
        return (
            f"<IStructureController {self.name!r} queued={self.queued} "
            f"busy={self._busy} pending_reads={self.pending_reads}>"
        )
