"""A binary hypercube packet network — the emulation facility's topology.

Section 3 of the paper describes "a seven dimensional hypercube with each
connection implemented as a 4 megabyte per second bit-serial link", chosen
"for its flexibility": a routing table per switch lets the experimenter
map "any *emulated* topology which can be mapped onto the hypercube", the
redundancy of the cube is exploited "for message routing and for fault
tolerance", and table-based routing "allows the facility to be statically
partitioned into two or more smaller emulation machines".

All four properties are implemented here: dimension-order routing by
default, per-(node, destination) routing tables, adaptive detours around
failed links, and static partitions that refuse traffic across partition
boundaries.
"""

from ..common.errors import NetworkError
from ..common.queueing import FifoServer
from .base import Network

__all__ = ["HypercubeNetwork"]


class HypercubeNetwork(Network):
    """2**dimensions nodes; one FIFO bit-serial link per directed edge."""

    def __init__(self, sim, dimensions, flit_time=1.0, wire_latency=1.0,
                 name="hypercube"):
        if dimensions < 1:
            raise NetworkError("hypercube needs at least one dimension")
        super().__init__(sim, 2**dimensions, name=name)
        self.dimensions = dimensions
        self.flit_time = flit_time
        self.wire_latency = wire_latency
        self.links = {}
        for node in range(self.n_ports):
            for dim in range(dimensions):
                neighbor = node ^ (1 << dim)
                self.links[(node, neighbor)] = FifoServer(
                    sim, flit_time, name=f"{name}.link{node}->{neighbor}"
                )
        self._dead_links = set()
        self._routing_table = None
        self._partition_of = None

    # ------------------------------------------------------------------
    # Configuration: faults, tables, partitions
    # ------------------------------------------------------------------
    def fail_link(self, a, b, bidirectional=True):
        """Mark the link a->b (and b->a) as failed."""
        self._check_link(a, b)
        self._dead_links.add((a, b))
        if bidirectional:
            self._dead_links.add((b, a))

    def repair_link(self, a, b, bidirectional=True):
        self._dead_links.discard((a, b))
        if bidirectional:
            self._dead_links.discard((b, a))

    def link_alive(self, a, b):
        self._check_link(a, b)
        return (a, b) not in self._dead_links

    def load_routing_table(self, table):
        """Install explicit routing: ``table[(node, dst)] = next_node``.

        Destinations absent from the table fall back to dimension-order
        routing, so a table only needs entries where it wants to override.
        """
        for (node, dst), nxt in table.items():
            self._check_port(node)
            self._check_port(dst)
            self._check_link(node, nxt)
        self._routing_table = dict(table)

    def clear_routing_table(self):
        self._routing_table = None

    def set_partitions(self, partitions):
        """Statically split the cube; traffic may not cross partitions."""
        partition_of = {}
        for index, nodes in enumerate(partitions):
            for node in nodes:
                self._check_port(node)
                if node in partition_of:
                    raise NetworkError(f"node {node} in two partitions")
                partition_of[node] = index
        self._partition_of = partition_of

    def clear_partitions(self):
        self._partition_of = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, packet):
        if self._partition_of is not None:
            src_part = self._partition_of.get(packet.src)
            dst_part = self._partition_of.get(packet.dst)
            if src_part is None or dst_part is None or src_part != dst_part:
                raise NetworkError(
                    f"{self.name}: packet {packet.src}->{packet.dst} crosses "
                    "a static partition boundary"
                )
        self._hop(packet, packet.src)

    def _hop(self, packet, node):
        if node == packet.dst:
            self._deliver(packet)
            return
        if packet.hops > 4 * self.dimensions:
            raise NetworkError(
                f"{self.name}: packet {packet!r} exceeded TTL; link failures "
                "have disconnected its destination"
            )
        nxt = self._next_hop(node, packet.dst)
        link = self.links[(node, nxt)]
        link.submit(
            packet,
            lambda p, _n=nxt: self.sim.post(self.wire_latency, self._advance, p, _n),
            service_time=packet.size * self.flit_time,
        )

    def _advance(self, packet, node):
        packet.hops += 1
        self._hop(packet, node)

    def _next_hop(self, node, dst):
        if self._routing_table is not None:
            override = self._routing_table.get((node, dst))
            if override is not None:
                if not self.link_alive(node, override):
                    raise NetworkError(
                        f"{self.name}: routing table uses dead link "
                        f"{node}->{override}"
                    )
                return override
        # Dimension-order routing over live links.
        differing = node ^ dst
        for dim in range(self.dimensions):
            if differing & (1 << dim):
                candidate = node ^ (1 << dim)
                if self.link_alive(node, candidate):
                    return candidate
        # All productive links dead: detour through any live link.
        for dim in range(self.dimensions):
            candidate = node ^ (1 << dim)
            if self.link_alive(node, candidate):
                return candidate
        raise NetworkError(f"{self.name}: node {node} is completely cut off")

    def _check_link(self, a, b):
        if (a, b) not in self.links:
            raise NetworkError(f"{self.name}: {a}->{b} is not a hypercube edge")

    # ------------------------------------------------------------------
    def link_utilization(self):
        """Mean utilization across all live links at the current time."""
        now = self.sim.now
        values = [
            server.utilization(now)
            for key, server in self.links.items()
            if key not in self._dead_links
        ]
        return sum(values) / len(values) if values else 0.0

    @staticmethod
    def minimum_hops(a, b):
        """Hamming distance — the conflict-free hop count."""
        return bin(a ^ b).count("1")
