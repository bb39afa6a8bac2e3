"""A crossbar switch in the style of C.mmp (§1.2.1).

Every input can reach every output in one switch transit; contention only
arises when two packets want the same *output* port, which is modelled as
a FIFO server per output.  The paper's complaint is not the latency — "the
switch speed was comparable to the speed of a local memory reference" —
but the *cost*: "the cost of building a larger switch which maintains the
same performance level grows at least quadratically".  The cost model is
exposed as :meth:`crosspoint_count` and exercised by experiment E13.
"""

from ..common.queueing import FifoServer
from .base import Network

__all__ = ["CrossbarNetwork"]


class CrossbarNetwork(Network):
    """An n-port crossbar with per-output FIFO queues."""

    def __init__(self, sim, n_ports, switch_latency=1.0, port_service_time=1.0,
                 name="crossbar"):
        super().__init__(sim, n_ports, name=name)
        self.switch_latency = switch_latency
        self.output_ports = [
            FifoServer(sim, port_service_time, name=f"{name}.out{i}")
            for i in range(n_ports)
        ]

    def _route(self, packet):
        packet.hops = 1
        # Transit the switch fabric, then queue for the output port.
        self.sim.post(self.switch_latency, self._enqueue_output, packet)

    def _enqueue_output(self, packet):
        server = self.output_ports[packet.dst]
        server.submit(packet, self._deliver, service_time=packet.size * server.service_time)

    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix=None):
        prefix = prefix if prefix is not None else self.name
        super().register_metrics(registry, prefix=prefix)
        for index, port in enumerate(self.output_ports):
            registry.register(f"{prefix}.out{index}", port)
        return registry

    @staticmethod
    def crosspoint_count(n_ports):
        """Hardware cost of the switch: one crosspoint per (input, output)
        pair, i.e. quadratic growth — the scaling barrier of C.mmp."""
        return n_ports * n_ports

    def output_utilization(self):
        """Per-output-port utilization at the current simulated time."""
        now = self.sim.now
        return [port.utilization(now) for port in self.output_ports]
