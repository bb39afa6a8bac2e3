"""A Cm*-style hierarchical (cluster) network (§1.2.2).

Cm* interconnected "a number of microprocessors, each with its own memory"
through a hierarchy: references within a cluster go through the cluster's
Kmap controller; references between clusters additionally cross an
intercluster bus.  "Because of the hierarchical structure, this meant that
greater interprocessor distances translated into longer memory reference
times and decreased processor utilization."

The model: each cluster has one Kmap FIFO server, and one global
intercluster bus connects them.  A packet between clusters queues at the
source Kmap, the intercluster bus, and the destination Kmap in turn, so
both the *latency* hierarchy and the *contention* hierarchy are present.
"""

from ..common.errors import NetworkError
from ..common.queueing import FifoServer
from .base import Network

__all__ = ["HierarchicalNetwork"]


class HierarchicalNetwork(Network):
    """``n_clusters`` clusters of ``cluster_size`` nodes each."""

    def __init__(self, sim, n_clusters, cluster_size, kmap_time=3.0,
                 intercluster_time=9.0, local_time=1.0, node_map=None,
                 name="cmstar"):
        if n_clusters < 1 or cluster_size < 1:
            raise NetworkError("need at least one cluster of one node")
        n_ports = len(node_map) if node_map is not None else (
            n_clusters * cluster_size
        )
        super().__init__(sim, n_ports, name=name)
        self.n_clusters = n_clusters
        self.cluster_size = cluster_size
        self.local_time = local_time
        #: Optional port -> (cluster, member) affinity.  Lets a processor
        #: port and its local memory-module port share one computer module:
        #: traffic between ports with identical affinity is a *local*
        #: reference and bypasses the Kmap entirely.
        self.node_map = list(node_map) if node_map is not None else None
        self.kmaps = [
            FifoServer(sim, kmap_time, name=f"{name}.kmap{i}")
            for i in range(n_clusters)
        ]
        self.intercluster_bus = FifoServer(
            sim, intercluster_time, name=f"{name}.global"
        )

    def cluster_of(self, node):
        self._check_port(node)
        if self.node_map is not None:
            return self.node_map[node][0]
        return node // self.cluster_size

    def _same_module(self, src, dst):
        if src == dst:
            return True
        if self.node_map is not None:
            return self.node_map[src] == self.node_map[dst]
        return False

    # ------------------------------------------------------------------
    def _route(self, packet):
        src_cluster = self.cluster_of(packet.src)
        dst_cluster = self.cluster_of(packet.dst)
        if self._same_module(packet.src, packet.dst):
            packet.hops = 0
            self.counters.add("local")
            self.sim.post(self.local_time, self._deliver, packet)
        elif src_cluster == dst_cluster:
            packet.hops = 1
            self.counters.add("intra_cluster")
            self.kmaps[src_cluster].submit(packet, self._deliver)
        else:
            packet.hops = 3
            self.counters.add("inter_cluster")
            self.kmaps[src_cluster].submit(
                packet, lambda p: self._to_global(p, dst_cluster)
            )

    def _to_global(self, packet, dst_cluster):
        self.intercluster_bus.submit(
            packet, lambda p: self.kmaps[dst_cluster].submit(p, self._deliver)
        )

    # ------------------------------------------------------------------
    def kmap_utilization(self):
        now = self.sim.now
        return [k.utilization(now) for k in self.kmaps]

    def bus_utilization(self):
        return self.intercluster_bus.utilization(self.sim.now)
