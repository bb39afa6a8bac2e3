"""An Omega (multistage shuffle-exchange) network with combining switches.

This is the NYU Ultracomputer's interconnect (§1.2.3): "a synchronous
packet communication network which connects n processors to an n-port
memory", whose switches combine FETCH-AND-ADD packets addressed to the
same cell: "If two packets collide, say FETCH-AND-ADD(A,x) and
FETCH-AND-ADD(A,y), the switch extracts the values x and y, forms a new
packet (FETCH-AND-ADD(A,x+y)), forwards it to the memory, and stores the
value of x temporarily.  When the memory returns the old value of location
A, the switch returns two values ((A) and (A)+x).  Hence, one memory
reference may involve as many as log2(n) additions, and implies
substantial hardware complexity."

The forward path is fully contended (FIFO queue per switch output rail);
the return path retraces the forward route at a fixed per-hop delay and
performs the splits.  Combining can be switched off to measure the
hot-spot serialization it prevents (experiment E5).
"""

from dataclasses import dataclass
from typing import Optional

from ..common.errors import NetworkError
from ..common.stats import Histogram, SlotCounter, UtilizationTracker

__all__ = ["CombiningOmegaNetwork", "FetchAddRequest", "MemoryRequest"]


@dataclass
class FetchAddRequest:
    """FETCH-AND-ADD(address, value): combinable in the switches."""

    address: int
    value: object

    @property
    def combine_key(self):
        return ("faa", self.address)


@dataclass
class MemoryRequest:
    """A plain (non-combinable) LOAD or STORE."""

    address: int
    op: str = "load"  # "load" or "store"
    value: Optional[object] = None

    @property
    def combine_key(self):
        return None


class _FlightRecord:
    """Network-side state of one request packet."""

    __slots__ = ("src", "payload", "trace", "injected_at", "pid")
    _next_pid = 0

    def __init__(self, src, payload, now):
        self.src = src
        self.payload = payload
        self.trace = []  # (stage, rail) switch outputs visited
        self.injected_at = now
        self.pid = _FlightRecord._next_pid
        _FlightRecord._next_pid += 1


class _SwitchOutput:
    """One output rail of one 2x2 switch: a FIFO with combining."""

    def __init__(self, net, stage, rail):
        self.net = net
        self.stage = stage
        self.rail = rail
        self.queue = []
        self.busy = False
        self.utilization = UtilizationTracker()

    def submit(self, record):
        if self.net.combining:
            key = record.payload.combine_key
            if key is not None:
                for index, waiting in enumerate(self.queue):
                    if waiting.payload.combine_key == key:
                        del self.queue[index]
                        self._combine(waiting, record)
                        return
        self.queue.append(record)
        self._kick()

    def _combine(self, first, second):
        x = first.payload.value
        merged = FetchAddRequest(first.payload.address, x + second.payload.value)
        combined = _FlightRecord(None, merged, self.net.sim.now)
        combined.trace = [(self.stage, self.rail)]
        self.net._wait_buffers[(self.stage, self.rail, combined.pid)] = (first, second, x)
        self.net.counters.add("combines")
        if self.net._bus is not None and self.net._bus.enabled:
            self.net._bus.emit(
                self.net.sim.now, self.net._bus_source, "net_combine",
                f"A={merged.address}", stage=self.stage, rail=self.rail,
            )
        self.queue.append(combined)
        self._kick()

    def _kick(self):
        if not self.busy and self.queue:
            self.busy = True
            self.utilization.begin(self.net.sim.now)
            record = self.queue.pop(0)
            delay = self.net.switch_time
            faults = self.net.faults
            if faults is not None:
                delay += faults.net_delay(
                    self.net.sim, f"{self.net.name}.s{self.stage}", record)
            self.net.sim.post(delay, self._advance, record)

    def _advance(self, record):
        self.busy = False
        self.utilization.end(self.net.sim.now)
        self.net._forward(record, self.stage + 1, self.rail)
        self._kick()


class CombiningOmegaNetwork:
    """n = 2**stages processors to n memory ports through 2x2 switches."""

    def __init__(self, sim, stages, switch_time=1.0, return_hop_time=1.0,
                 combining=True, name="omega"):
        if stages < 1:
            raise NetworkError("omega network needs at least one stage")
        self.sim = sim
        self.stages = stages
        self.n_ports = 2**stages
        self.switch_time = switch_time
        self.return_hop_time = return_hop_time
        self.combining = combining
        self.name = name
        self._switches = {
            (stage, rail): _SwitchOutput(self, stage, rail)
            for stage in range(stages)
            for rail in range(self.n_ports)
        }
        self._wait_buffers = {}
        self._memory_handlers = [None] * self.n_ports
        self._processor_handlers = [None] * self.n_ports
        # Per-request counts live in slots; combines and splits go
        # through ``counters.add``.
        self._requests = 0
        self._memory_arrivals = 0
        self._replies = 0
        self.counters = SlotCounter(self._hot_counts)
        self.round_trip_latency = Histogram()
        self._bus = None
        self._bus_source = name
        #: Optional :class:`repro.faults.FaultInjector`; latency spikes
        #: land on the switch rails (the synchronous network's clock is
        #: exactly what a glitch would slip).
        self.faults = None

    def _hot_counts(self):
        return {"requests": self._requests,
                "memory_arrivals": self._memory_arrivals,
                "replies": self._replies}

    # ------------------------------------------------------------------
    def attach_bus(self, bus, source=None):
        """Publish combine/split/delivery events to a TraceBus."""
        self._bus = bus
        if source is not None:
            self._bus_source = source
        return bus

    def register_metrics(self, registry, prefix=None):
        """Register the omega network's instruments under ``prefix``."""
        prefix = prefix if prefix is not None else self.name
        registry.register(prefix, self.counters)
        registry.register(f"{prefix}.round_trip", self.round_trip_latency)
        return registry

    # ------------------------------------------------------------------
    def attach_memory(self, port, handler):
        """``handler(record, payload)`` runs when a request reaches memory
        port ``port``; the machine must eventually call :meth:`reply`."""
        self._memory_handlers[port] = handler

    def attach_processor(self, port, handler):
        """``handler(payload, value)`` runs when a reply reaches the
        processor at ``port``."""
        self._processor_handlers[port] = handler

    def memory_port_of(self, address):
        """Address interleaving across the n memory ports."""
        return address % self.n_ports

    # ------------------------------------------------------------------
    def request(self, src, payload):
        """Inject a memory request from processor port ``src``."""
        if not 0 <= src < self.n_ports:
            raise NetworkError(f"{self.name}: bad source port {src}")
        record = _FlightRecord(src, payload, self.sim.now)
        self._requests += 1
        self._forward(record, 0, src)
        return record

    def _forward(self, record, stage, rail):
        if stage == self.stages:
            port = self.memory_port_of(record.payload.address)
            handler = self._memory_handlers[port]
            if handler is None:
                raise NetworkError(f"{self.name}: no memory at port {port}")
            self._memory_arrivals += 1
            handler(record, record.payload)
            return
        dst = self.memory_port_of(record.payload.address)
        dst_bit = (dst >> (self.stages - 1 - stage)) & 1
        next_rail = ((rail << 1) & (self.n_ports - 1)) | dst_bit
        record.trace.append((stage, next_rail))
        self._switches[(stage, next_rail)].submit(record)

    # ------------------------------------------------------------------
    def reply(self, record, value):
        """Send ``value`` back toward the requester, splitting combined
        packets at the switches that combined them."""
        self._return_hop(record, value, len(record.trace) - 1)

    def _return_hop(self, record, value, index):
        if index < 0:
            self._deliver_reply(record, value)
            return
        self.sim.post(
            self.return_hop_time, self._return_arrive, record, value, index
        )

    def _return_arrive(self, record, value, index):
        stage, rail = record.trace[index]
        buffered = self._wait_buffers.pop((stage, rail, record.pid), None)
        if buffered is not None:
            first, second, x = buffered
            self.counters.add("splits")
            if self._bus is not None and self._bus.enabled:
                self._bus.emit(self.sim.now, self._bus_source, "net_split",
                               f"A={record.payload.address}", stage=stage,
                               rail=rail)
            # first receives (A); second receives (A) + x.  Both parts
            # queued at this switch output, so each resumes its return
            # here: a part that was itself combined here (it combined
            # again while still queued) splits at once, any other part
            # takes its next hop back.
            self._return_arrive(first, value, len(first.trace) - 1)
            self._return_arrive(second, value + x, len(second.trace) - 1)
            return
        self._return_hop(record, value, index - 1)

    def _deliver_reply(self, record, value):
        if record.src is None:
            raise NetworkError(
                f"{self.name}: combined packet {record.pid} reached a "
                "processor port without being split"
            )
        handler = self._processor_handlers[record.src]
        if handler is None:
            raise NetworkError(f"{self.name}: no processor at port {record.src}")
        self._replies += 1
        self.round_trip_latency.observe(self.sim.now - record.injected_at)
        handler(record.payload, value)

    def __repr__(self):
        return (
            f"<CombiningOmegaNetwork n={self.n_ports} "
            f"combining={self.combining} combines={self.counters['combines']}>"
        )
