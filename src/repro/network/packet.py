"""Packets: the unit of communication in every network model."""

import itertools

__all__ = ["Packet"]

_packet_ids = itertools.count()


class Packet:
    """One message in flight from ``src`` port to ``dst`` port.

    ``size`` is in flits (link transfer units); a link with per-flit time
    ``t`` occupies the wire for ``size * t`` cycles.  ``payload`` is opaque
    to the network (a dataflow token, a memory request, ...).
    """

    __slots__ = ("src", "dst", "payload", "size", "injected_at", "hops",
                 "pid", "cause", "fault_checked")

    def __init__(self, src, dst, payload, size=1, injected_at=None, hops=0,
                 pid=None, cause=None, fault_checked=False):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.injected_at = injected_at
        self.hops = hops
        self.pid = next(_packet_ids) if pid is None else pid
        # Provenance: eid of the latest network event in this packet's
        # history (net_inject, then net_deliver); None outside profiling.
        self.cause = cause
        # Fault injection: True once this packet has had its
        # delivery-spike draw, so a delayed packet is not re-drawn when
        # it re-arrives.
        self.fault_checked = fault_checked

    def __repr__(self):
        return (
            f"<Packet #{self.pid} {self.src}->{self.dst} hops={self.hops} "
            f"{self.payload!r}>"
        )
