"""Common interface and accounting for all interconnection networks.

The abstract multiprocessor of Figure 1-1 interconnects processing and
memory elements through "a number of *ports*, each with a bounded
*bandwidth*".  Every concrete topology here exposes the same surface:
``attach`` a handler per port, ``send`` packets between ports, and read
back latency/hop/utilization statistics afterwards.
"""

from ..common.errors import NetworkError
from ..common.stats import Histogram, SlotCounter
from .packet import Packet

__all__ = ["Network"]

_FOLD_EVERY = Histogram.PENDING_MAX


class Network:
    """Base class: port bookkeeping plus delivery statistics."""

    def __init__(self, sim, n_ports, name="net"):
        if n_ports < 1:
            raise NetworkError(f"network needs at least one port, got {n_ports}")
        self.sim = sim
        self.n_ports = n_ports
        self.name = name
        self._handlers = [None] * n_ports
        # Hot counts; subclasses and faults add theirs through counters.add.
        self._injected = 0
        self._delivered = 0
        self.counters = SlotCounter(self._hot_counts)
        self.latency = Histogram()
        self.hop_counts = Histogram()
        # Each delivery appends to these, and _deliver folds both every
        # _FOLD_EVERY deliveries; any read of a histogram folds its own.
        self._latencies = self.latency.pending
        self._hops = self.hop_counts.pending
        self._bus = None
        self._bus_source = name
        #: Optional :class:`repro.faults.FaultInjector`; None keeps the
        #: delivery path at a single attribute check.
        self.faults = None

    def _hot_counts(self):
        return {"injected": self._injected, "delivered": self._delivered}

    # ------------------------------------------------------------------
    def attach_bus(self, bus, source=None):
        """Publish per-packet events (``net_inject``/``net_deliver``) to
        a :class:`repro.obs.TraceBus` under track ``source``."""
        self._bus = bus
        if source is not None:
            self._bus_source = source
        return bus

    def register_metrics(self, registry, prefix=None):
        """Register this network's instruments under ``prefix``."""
        prefix = prefix if prefix is not None else self.name
        registry.register(prefix, self.counters)
        registry.register(f"{prefix}.latency", self.latency)
        registry.register(f"{prefix}.hops", self.hop_counts)
        return registry

    # ------------------------------------------------------------------
    def attach(self, port, handler):
        """Register ``handler(packet)`` to receive deliveries at ``port``."""
        self._check_port(port)
        self._handlers[port] = handler

    def send(self, src, dst, payload, size=1, cause=None):
        """Inject a packet; returns the :class:`Packet` for tracing.

        ``cause`` is the provenance eid of the event that produced the
        payload; the injection event links to it and the packet carries
        the chain forward to delivery.
        """
        n_ports = self.n_ports
        if not (0 <= src < n_ports and 0 <= dst < n_ports):
            self._check_port(src)
            self._check_port(dst)
        now = self.sim._now
        packet = Packet(src, dst, payload, size, now, cause=cause)
        self._injected += 1
        bus = self._bus
        if bus is not None and bus.enabled:
            eid = bus.emit_id(now, self._bus_source, "net_inject",
                              f"{src}->{dst}", size=size, parent=cause)
            if eid is not None:
                packet.cause = eid
        self._route(packet)
        return packet

    def _route(self, packet):
        raise NotImplementedError

    def _deliver(self, packet):
        faults = self.faults
        if faults is not None and not packet.fault_checked:
            # One spike draw per packet, at the moment it would have
            # arrived.  A hit re-queues delivery, which also reorders
            # the packet against anything injected in the meantime.
            packet.fault_checked = True
            extra = faults.net_delay(self.sim, self.name, packet)
            if extra > 0.0:
                self.counters.add("fault_delays")
                self.sim.post(extra, self._deliver, packet)
                return
        handler = self._handlers[packet.dst]
        if handler is None:
            raise NetworkError(
                f"{self.name}: no handler attached at port {packet.dst}"
            )
        delivered = self._delivered = self._delivered + 1
        now = self.sim._now
        latency = now - packet.injected_at
        self._latencies.append(latency)
        self._hops.append(packet.hops)
        if not delivered % _FOLD_EVERY:
            self.latency.fold()
            self.hop_counts.fold()
        bus = self._bus
        if bus is not None and bus.enabled:
            eid = bus.emit_id(now, self._bus_source, "net_deliver",
                              f"{packet.src}->{packet.dst}", latency=latency,
                              hops=packet.hops, parent=packet.cause,
                              dur=latency)
            if eid is not None:
                packet.cause = eid
        handler(packet)

    def _check_port(self, port):
        if not 0 <= port < self.n_ports:
            raise NetworkError(
                f"{self.name}: port {port} out of range [0, {self.n_ports})"
            )

    # ------------------------------------------------------------------
    @property
    def in_flight(self):
        """Packets injected but not yet delivered."""
        return self._injected - self._delivered

    def mean_latency(self):
        return self.latency.mean

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name!r} ports={self.n_ports} "
            f"delivered={self._delivered}>"
        )
