"""Topology embeddings and routing-table construction for the hypercube.

The emulation facility's switches hold "a routing table which allows the
experimenter to specify any *emulated* topology which can be mapped onto
the hypercube" (§3).  These helpers build such tables: Gray-code ring and
grid embeddings, and a generic shortest-path table over the live links of
a (possibly faulty) cube, computed by breadth-first search from each
destination.
"""

from ..common.errors import NetworkError

__all__ = [
    "gray_code",
    "ring_embedding",
    "grid_embedding",
    "build_shortest_path_table",
    "emulated_neighbors",
]


def gray_code(i):
    """The i-th binary-reflected Gray code."""
    return i ^ (i >> 1)


def ring_embedding(dimensions):
    """Map ring position -> hypercube node so neighbors are 1 hop apart."""
    n = 2**dimensions
    return [gray_code(i) for i in range(n)]


def grid_embedding(rows_log2, cols_log2):
    """Embed a 2^rows x 2^cols end-around grid into a hypercube.

    Returns a dict (row, col) -> node of a (rows_log2 + cols_log2)-cube.
    Row neighbors and column neighbors are each exactly one hop apart
    (Gray code per axis), so an Illiac IV style grid maps with dilation 1.
    """
    rows = 2**rows_log2
    cols = 2**cols_log2
    return {
        (r, c): (gray_code(r) << cols_log2) | gray_code(c)
        for r in range(rows)
        for c in range(cols)
    }


def _live_predecessors(network):
    """Per-node lists of live in-neighbors, in ``network.links`` order."""
    preds = [[] for _ in range(network.n_ports)]
    for (a, b) in network.links:
        if network.link_alive(a, b):
            preds[b].append(a)
    return preds


def _next_hops_to(preds, dst):
    """Map every node that can reach ``dst`` to its next hop toward it.

    A level-by-level breadth-first search back from ``dst``: each node is
    claimed by the first node of the previous level that lists it as a
    predecessor, so ties between equal-length routes go to the earlier
    level entry and then the earlier link.
    """
    next_hop = {dst: None}
    level = [dst]
    while level:
        following = []
        for node in level:
            for pred in preds[node]:
                if pred not in next_hop:
                    next_hop[pred] = node
                    following.append(pred)
        level = following
    return next_hop


def build_shortest_path_table(network, pairs=None):
    """Build a (node, dst) -> next_hop table over the cube's live links.

    ``pairs`` restricts the table to specific (src, dst) pairs; by default
    every ordered pair gets an entry.  Raises :class:`NetworkError` when a
    requested destination is unreachable (the cube is partitioned by
    faults).
    """
    preds = _live_predecessors(network)
    table = {}
    if pairs is None:
        pairs = [
            (src, dst)
            for src in range(network.n_ports)
            for dst in range(network.n_ports)
            if src != dst
        ]
    hops_to = {dst: _next_hops_to(preds, dst) for dst in {d for _, d in pairs}}
    for src, dst in pairs:
        if src == dst:
            continue
        next_hop = hops_to[dst]
        if src not in next_hop:
            raise NetworkError(f"no live route from {src} to {dst}")
        node = src
        while node != dst:
            hop = next_hop[node]
            table[(node, dst)] = hop
            node = hop
    return table


def emulated_neighbors(embedding, topology="ring"):
    """Adjacent (node, node) pairs of an emulated topology.

    For ``ring`` embeddings (a list), consecutive positions (end-around).
    For ``grid`` embeddings (a dict keyed by (row, col)), the four NEWS
    neighbors with end-around connections, as in Illiac IV.
    """
    pairs = []
    if topology == "ring":
        n = len(embedding)
        for i in range(n):
            pairs.append((embedding[i], embedding[(i + 1) % n]))
    elif topology == "grid":
        rows = 1 + max(r for r, _ in embedding)
        cols = 1 + max(c for _, c in embedding)
        for (r, c), node in embedding.items():
            pairs.append((node, embedding[((r + 1) % rows, c)]))
            pairs.append((node, embedding[(r, (c + 1) % cols)]))
    else:
        raise NetworkError(f"unknown emulated topology {topology!r}")
    return pairs
