"""An ideal network: fixed latency, unbounded bandwidth.

Useful as the control arm of latency experiments — it lets a machine model
dial memory/communication latency directly (the independent variable of
Issue 1) without any contention effects mixed in.
"""

from .base import Network

__all__ = ["IdealNetwork"]


class IdealNetwork(Network):
    """Delivers every packet exactly ``latency`` cycles after injection."""

    def __init__(self, sim, n_ports, latency=1.0, name="ideal"):
        super().__init__(sim, n_ports, name=name)
        self.latency_cycles = latency

    def _route(self, packet):
        packet.hops = 0 if packet.src == packet.dst else 1
        self.sim.post(self.latency_cycles, self._deliver, packet)
