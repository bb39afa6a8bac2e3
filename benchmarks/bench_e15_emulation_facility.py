"""E15 — the emulation facility's hypercube network (§3, Fig 3-1).

"The network topology will be a seven dimensional hypercube ... chosen for
its flexibility.  Each switch module also includes a routing table which
allows the experimenter to specify any *emulated* topology which can be
mapped onto the hypercube.  The hardware has the capability of exploiting
the redundancy in the hypercube network for message routing and for fault
tolerance.  Table-based routing also allows the facility to be statically
partitioned into two or more smaller emulation machines."

Three demonstrations on a 7-cube (128 switch modules, as built):

* **emulation** — ring and grid embeddings where every emulated neighbour
  is exactly one physical hop;
* **fault tolerance** — random link failures, rerouted via tables built
  over the surviving links; all traffic still delivered;
* **partitioning** — the cube split into independent halves.
"""

import random

from repro.analysis import Table
from repro.common import Simulator
from repro.exp import Experiment, one_row
from repro.network import (
    HypercubeNetwork,
    build_shortest_path_table,
    emulated_neighbors,
    grid_embedding,
    ring_embedding,
)

DIMENSIONS = 7  # the facility as described: 2^7 = 128 modules


def embedding_stats(dimensions=DIMENSIONS):
    ring = ring_embedding(dimensions)
    ring_hops = [
        HypercubeNetwork.minimum_hops(a, b)
        for a, b in emulated_neighbors(ring, "ring")
    ]
    rows_log2 = dimensions // 2
    cols_log2 = dimensions - rows_log2
    grid = grid_embedding(rows_log2, cols_log2)
    grid_hops = [
        HypercubeNetwork.minimum_hops(a, b)
        for a, b in emulated_neighbors(grid, "grid")
    ]
    return ring_hops, grid_hops


def fault_tolerance_run(n_failures, dimensions=5, n_messages=60, seed=11):
    rng = random.Random(seed)
    sim = Simulator()
    net = HypercubeNetwork(sim, dimensions)
    edges = sorted({tuple(sorted(edge)) for edge in net.links})
    for a, b in rng.sample(edges, n_failures):
        net.fail_link(a, b)
    pairs = [
        (rng.randrange(net.n_ports), rng.randrange(net.n_ports))
        for _ in range(n_messages)
    ]
    pairs = [(s, d) for s, d in pairs if s != d]
    table = build_shortest_path_table(net, pairs=pairs)
    net.load_routing_table(table)
    received = []
    for port in range(net.n_ports):
        net.attach(port, received.append)
    for s, d in pairs:
        net.send(s, d, (s, d))
    sim.run()
    extra_hops = [
        p.hops - HypercubeNetwork.minimum_hops(p.src, p.dst) for p in received
    ]
    return len(pairs), len(received), sum(extra_hops) / len(received)


def partition_run(dimensions=4, per_partition_messages=24, seed=3):
    rng = random.Random(seed)
    sim = Simulator()
    net = HypercubeNetwork(sim, dimensions)
    half = net.n_ports // 2
    low = set(range(half))
    high = set(range(half, net.n_ports))
    net.set_partitions([low, high])
    received = []
    for port in range(net.n_ports):
        net.attach(port, received.append)
    for partition in (sorted(low), sorted(high)):
        for _ in range(per_partition_messages):
            s, d = rng.sample(partition, 2)
            net.send(s, d, None)
    sim.run()
    blocked = 0
    try:
        net.send(0, half, None)
    except Exception:
        blocked = 1
    return len(received), blocked


#: Failed links of each fault-tolerance run.
FAILURES = [0, 4, 10]


def run_point(config):
    """One demonstration's numbers: the embeddings' max hops per
    emulated edge, a fault run's [sent, delivered, mean detour], or the
    partitioned run's [delivered, blocked]."""
    demonstration = config["demonstration"]
    if demonstration == "embeddings":
        return [max(hops) for hops in embedding_stats()]
    if demonstration == "faults":
        return list(fault_tolerance_run(config["failures"]))
    return list(partition_run())


def _assemble(experiment, values):
    table = Table(
        "E15  Emulation facility: hypercube routing tables, faults, "
        "partitions (paper §3)",
        ["demonstration", "result"],
        notes=["7-cube embeddings; fault runs on a 5-cube for speed"],
    )
    for config, value in zip(experiment.grid, values):
        demonstration = config["demonstration"]
        if demonstration == "embeddings":
            ring_max, grid_max = value
            table.add_row("ring embedding: max hops per emulated edge",
                          ring_max)
            table.add_row("grid embedding: max hops per emulated edge",
                          grid_max)
        elif demonstration == "faults":
            sent, delivered, extra = value
            table.add_row(
                f"{config['failures']} failed links: delivered/sent",
                f"{delivered}/{sent} (mean detour {extra:.2f} hops)",
            )
        else:
            delivered, blocked = value
            table.add_row("partitioned halves: intra-partition delivered",
                          delivered)
            table.add_row("partitioned halves: cross-partition sends blocked",
                          blocked)
    return table


SWEEPS = {"e15_emulation_facility": Experiment(
    name="e15_emulation_facility",
    run=run_point,
    grid=([{"demonstration": "embeddings"}]
          + [{"demonstration": "faults", "failures": failures}
             for failures in FAILURES]
          + [{"demonstration": "partition"}]),
    assemble=_assemble,
)}


def _result(rows, demonstration):
    return one_row(rows, {"demonstration": demonstration})["result"]


#: The paper's claims, read off the table.
CLAIMS = {"e15_emulation_facility": {
    # Every emulated neighbour is exactly one physical hop.
    "embeddings_one_hop": lambda rows: all(
        _result(rows, f"{kind} embedding: max hops per emulated edge") == 1
        for kind in ("ring", "grid")),
    # Table routing over the surviving links still delivers everything.
    "faults_rerouted": lambda rows: all(
        sent == got for got, sent in (
            _result(rows, f"{failures} failed links: delivered/sent")
            .split()[0].split("/") for failures in (0, 4, 10))),
    "partitions_isolated": lambda rows: _result(
        rows, "partitioned halves: cross-partition sends blocked") == 1,
}}
