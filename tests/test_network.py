"""Unit tests for the interconnection networks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import NetworkError, Simulator
from repro.network import (
    CombiningOmegaNetwork,
    CrossbarNetwork,
    FetchAddRequest,
    HierarchicalNetwork,
    HypercubeNetwork,
    IdealNetwork,
    build_shortest_path_table,
    emulated_neighbors,
    gray_code,
    grid_embedding,
    ring_embedding,
)


def collect(net, port):
    """Attach a collector to a port; returns the list it fills."""
    received = []
    net.attach(port, received.append)
    return received


class TestIdealNetwork:
    def test_fixed_latency(self):
        sim = Simulator()
        net = IdealNetwork(sim, 4, latency=7)
        inbox = collect(net, 2)
        net.send(0, 2, "hello")
        sim.run()
        assert [p.payload for p in inbox] == ["hello"]
        assert sim.now == 7
        assert net.mean_latency() == 7

    def test_bad_port_rejected(self):
        net = IdealNetwork(Simulator(), 2)
        with pytest.raises(NetworkError):
            net.send(0, 5, "x")

    def test_missing_handler_raises(self):
        sim = Simulator()
        net = IdealNetwork(sim, 2)
        net.send(0, 1, "x")
        with pytest.raises(NetworkError, match="no handler"):
            sim.run()


class TestCrossbar:
    def test_output_port_contention_serializes(self):
        sim = Simulator()
        net = CrossbarNetwork(sim, 4, switch_latency=1, port_service_time=2)
        inbox = collect(net, 3)
        for src in range(3):
            net.send(src, 3, f"p{src}")
        sim.run()
        assert len(inbox) == 3
        # switch transit 1 + serialized service 2 each: 3, 5, 7
        assert net.latency.max == pytest.approx(7)

    def test_distinct_outputs_do_not_contend(self):
        sim = Simulator()
        net = CrossbarNetwork(sim, 4, switch_latency=1, port_service_time=2)
        boxes = [collect(net, i) for i in range(4)]
        for i in range(4):
            net.send(0, i, i)
        sim.run()
        assert net.latency.max == pytest.approx(3)
        assert all(len(b) == 1 for b in boxes)

    def test_quadratic_cost_model(self):
        assert CrossbarNetwork.crosspoint_count(16) == 256
        assert CrossbarNetwork.crosspoint_count(64) == 4096


class TestHypercube:
    def test_hop_count_is_hamming_distance(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 4, flit_time=1, wire_latency=1)
        inbox = collect(net, 0b1111)
        net.send(0b0000, 0b1111, "x")
        sim.run()
        assert inbox[0].hops == 4
        assert HypercubeNetwork.minimum_hops(0b0000, 0b1111) == 4

    def test_local_delivery_is_immediate(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 2)
        inbox = collect(net, 1)
        net.send(1, 1, "self")
        sim.run()
        assert inbox[0].hops == 0

    def test_fault_detour(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 3)
        inbox = collect(net, 0b011)
        net.fail_link(0b000, 0b001)
        net.send(0b000, 0b011, "x")
        sim.run()
        assert len(inbox) == 1
        # It must still arrive, possibly via dimension 1 first.
        assert inbox[0].hops == 2

    def test_cut_off_node_raises(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 2)
        collect(net, 3)
        net.fail_link(0, 1)
        net.fail_link(0, 2)
        with pytest.raises(NetworkError, match="cut off"):
            net.send(0, 3, "x")

    def test_partitions_block_cross_traffic(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 2)
        net.set_partitions([{0, 1}, {2, 3}])
        collect(net, 1)
        net.send(0, 1, "ok")
        sim.run()
        with pytest.raises(NetworkError, match="partition"):
            net.send(0, 2, "blocked")

    def test_routing_table_override(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 2)
        inbox = collect(net, 3)
        # Force 0->3 via node 2 instead of dimension-order via 1.
        net.load_routing_table({(0, 3): 2})
        net.send(0, 3, "x")
        sim.run()
        assert inbox[0].hops == 2

    def test_non_edge_link_rejected(self):
        net = HypercubeNetwork(Simulator(), 3)
        with pytest.raises(NetworkError, match="not a hypercube edge"):
            net.fail_link(0, 3)


class TestRoutingHelpers:
    def test_gray_code_neighbors_differ_by_one_bit(self):
        for i in range(63):
            diff = gray_code(i) ^ gray_code(i + 1)
            assert bin(diff).count("1") == 1

    def test_ring_embedding_is_a_permutation(self):
        ring = ring_embedding(4)
        assert sorted(ring) == list(range(16))

    def test_ring_neighbors_one_hop(self):
        ring = ring_embedding(3)
        for a, b in emulated_neighbors(ring, "ring"):
            assert HypercubeNetwork.minimum_hops(a, b) == 1

    def test_grid_embedding_neighbors_one_hop(self):
        grid = grid_embedding(2, 2)
        for a, b in emulated_neighbors(grid, "grid"):
            assert HypercubeNetwork.minimum_hops(a, b) == 1

    def test_shortest_path_table_avoids_dead_links(self):
        sim = Simulator()
        net = HypercubeNetwork(sim, 3)
        net.fail_link(0, 1)
        table = build_shortest_path_table(net, pairs=[(0, 1)])
        assert table[(0, 1)] in (2, 4)  # detour around the dead link
        net.load_routing_table(table)
        inbox = collect(net, 1)
        net.send(0, 1, "x")
        sim.run()
        assert inbox[0].hops == 3  # one-bit distance becomes a 3-hop detour


def _networkx_path_table(network, pairs=None):
    """Reference routing table: the networkx construction it replaced."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.n_ports))
    for (a, b) in network.links:
        if network.link_alive(a, b):
            graph.add_edge(a, b)
    table = {}
    if pairs is None:
        pairs = [
            (src, dst)
            for src in range(network.n_ports)
            for dst in range(network.n_ports)
            if src != dst
        ]
    paths_to = {
        dst: nx.shortest_path(graph.reverse(copy=False), source=dst)
        for dst in {dst for _, dst in pairs}
    }
    for src, dst in pairs:
        if src == dst:
            continue
        path = paths_to[dst].get(src)
        if path is None:
            raise NetworkError(f"no live route from {src} to {dst}")
        for i in range(len(path) - 1, 0, -1):
            table[(path[i], dst)] = path[i - 1]
    return table


@st.composite
def _faulty_cubes(draw):
    dimensions = draw(st.integers(min_value=1, max_value=5))
    links = [
        (node, node ^ (1 << dim))
        for node in range(2**dimensions)
        for dim in range(dimensions)
    ]
    failures = draw(st.lists(
        st.tuples(st.sampled_from(links), st.booleans()), max_size=12,
    ))
    nodes = st.integers(min_value=0, max_value=2**dimensions - 1)
    pairs = draw(st.none() | st.lists(st.tuples(nodes, nodes), max_size=20))
    return dimensions, failures, pairs


class TestShortestPathTableDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_faulty_cubes())
    def test_matches_networkx_reference(self, case):
        dimensions, failures, pairs = case
        net = HypercubeNetwork(Simulator(), dimensions)
        for (a, b), bidirectional in failures:
            net.fail_link(a, b, bidirectional=bidirectional)
        try:
            expected = _networkx_path_table(net, pairs)
        except NetworkError as exc:
            with pytest.raises(NetworkError) as raised:
                build_shortest_path_table(net, pairs)
            assert str(raised.value) == str(exc)
            return
        table = build_shortest_path_table(net, pairs)
        assert table == expected
        assert list(table) == list(expected)


class TestHierarchical:
    def test_latency_grows_with_distance(self):
        sim = Simulator()
        net = HierarchicalNetwork(sim, n_clusters=2, cluster_size=2,
                                  kmap_time=3, intercluster_time=9, local_time=1)
        boxes = {i: collect(net, i) for i in range(3)}
        net.send(0, 0, "local")
        net.send(0, 1, "intra")
        net.send(0, 2, "inter")
        sim.run()
        assert all(len(b) == 1 for b in boxes.values())
        latencies = sorted(net.latency.items())
        # local 1; intra 3; inter queues behind intra at the Kmap:
        # wait 3 + kmap 3 + bus 9 + remote kmap 3 = 18.
        assert [lat for lat, _ in latencies] == [1, 3, 18]

    def test_kmap_contention(self):
        sim = Simulator()
        net = HierarchicalNetwork(sim, 1, 3, kmap_time=5)
        collect(net, 2)
        net.send(0, 2, "a")
        net.send(1, 2, "b")
        sim.run()
        assert net.latency.max == pytest.approx(10)

    def test_cluster_of(self):
        net = HierarchicalNetwork(Simulator(), 3, 4)
        assert net.cluster_of(0) == 0
        assert net.cluster_of(11) == 2


class TestOmega:
    def _run_hotspot(self, stages, combining, n_requesters=None,
                     requests_per_port=1):
        """All processors FETCH-AND-ADD the same address
        ``requests_per_port`` times each."""
        sim = Simulator()
        net = CombiningOmegaNetwork(sim, stages, combining=combining)
        n = net.n_ports if n_requesters is None else n_requesters
        memory = {}

        def memory_handler(record, payload):
            old = memory.get(payload.address, 0)
            memory[payload.address] = old + payload.value
            net.reply(record, old)

        replies = []
        for port in range(net.n_ports):
            net.attach_memory(port, memory_handler)
            net.attach_processor(
                port, lambda payload, value: replies.append(value)
            )
        for _ in range(requests_per_port):
            for src in range(n):
                net.request(src, FetchAddRequest(address=0, value=1))
        sim.run()
        return net, memory, replies

    @pytest.mark.parametrize("combining,rpp,stages", [
        pytest.param(c, rpp, 3, id=str(c) if rpp == 1 else f"{c}-rpp{rpp}")
        for rpp in (1, 2, 3) for c in (True, False)]
        + [pytest.param(True, 1, 5, id="True-32procs")])
    def test_fetch_and_add_is_serializable(self, combining, rpp, stages):
        # rpp >= 2 queues combined packets behind each other, so a
        # combined packet can combine again at the same switch output.
        net, memory, replies = self._run_hotspot(
            stages, combining, requests_per_port=rpp)
        # Sum is preserved and the returned values are a permutation of
        # 0..n*rpp-1
        n = 2 ** stages * rpp
        assert memory[0] == n
        assert sorted(replies) == list(range(n))
        assert net.counters["combines"] == net.counters["splits"]

    def test_combining_happens_on_hot_spot(self):
        net, _, _ = self._run_hotspot(4, combining=True)
        assert net.counters["combines"] > 0
        assert net.counters["combines"] == net.counters["splits"]

    def test_no_combining_when_disabled(self):
        net, _, _ = self._run_hotspot(4, combining=False)
        assert net.counters["combines"] == 0

    def test_combining_reduces_memory_traffic(self):
        with_c, _, _ = self._run_hotspot(4, combining=True)
        without, _, _ = self._run_hotspot(4, combining=False)
        assert with_c.counters["memory_arrivals"] < without.counters["memory_arrivals"]

    def test_distinct_addresses_do_not_combine(self):
        sim = Simulator()
        net = CombiningOmegaNetwork(sim, 2, combining=True)
        memory = {}

        def memory_handler(record, payload):
            old = memory.get(payload.address, 0)
            memory[payload.address] = old + payload.value
            net.reply(record, old)

        replies = []
        for port in range(net.n_ports):
            net.attach_memory(port, memory_handler)
            net.attach_processor(port, lambda p, v: replies.append((p.address, v)))
        for src in range(4):
            net.request(src, FetchAddRequest(address=src, value=1))
        sim.run()
        assert net.counters["combines"] == 0
        assert len(replies) == 4
