"""E13 — C.mmp: the crossbar circumvents latency, at quadratic cost
(§1.2.1).

"The switch speed was comparable to the speed of a local memory reference,
but the cost of building a larger switch which maintains the same
performance level grows at least quadratically.  This reliance on
technology doesn't solve the memory latency problem; it merely circumvents
it."  Plus the semaphore observation: "the performance cost of this
relative to, say, an ALU operation is rather high."

Ported to the sweep engine: each port count is one pure run through the
machine registry; the growth columns (relative to the smallest size) are
computed at assembly time.  The semaphore costing is a one-point sweep.
"""

from repro.analysis import Table
from repro.exp import Experiment, one_row, row_at
from repro.machines import registry

PORTS = [2, 4, 8, 16, 32]


def run_point(config):
    """One C.mmp array-sum run at a given crossbar size."""
    model = registry.create("cmmp", n_procs=config["ports"])
    result = model.run(workload="array_sum",
                       iterations=config.get("iterations", 40))
    return [
        result.metric("n_procs"),
        result.metric("crosspoints"),
        result.metric("mean_latency"),
        result.metric("mean_utilization"),
    ]


def _assemble(experiment, values):
    table = Table(
        "E13  C.mmp crossbar: cost vs latency scaling (paper §1.2.1)",
        ["ports", "crosspoints", "cost growth", "mean latency",
         "latency growth", "mean utilization"],
        notes=[
            "cost growth / latency growth are relative to the smallest size",
            "uniform disjoint-address workload (conflict-light)",
        ],
    )
    base_cost = values[0][1]
    base_latency = values[0][2]
    for n, cost, latency, utilization in values:
        table.add_row(n, cost, cost / base_cost, latency,
                      latency / base_latency, utilization)
    return table


def run_semaphore_point(config):
    """One Hydra-style semaphore costing run."""
    model = registry.create("cmmp", n_procs=config["n_procs"])
    result = model.run(workload="semaphore",
                       increments=config.get("increments", 16))
    return [
        result.metric("cycles_per_section"),
        result.metric("alu_cycles"),
        result.metric("ratio"),
    ]


def _assemble_semaphore(experiment, values):
    cycles, alu, ratio = values[0]
    table = Table(
        "E13b  Hydra-style semaphore cost (paper §1.2.1)",
        ["measurement", "value"],
    )
    table.add_row("cycles per lock-protected critical section", cycles)
    table.add_row("cycles per ALU operation", alu)
    table.add_row("ratio", ratio)
    return table


SWEEPS = {
    "e13_cmmp_crossbar": Experiment(
        name="e13_cmmp_crossbar",
        run=run_point,
        grid=[{"ports": ports, "iterations": 40} for ports in PORTS],
        assemble=_assemble,
    ),
    "e13b_semaphore_cost": Experiment(
        name="e13b_semaphore_cost",
        run=run_semaphore_point,
        grid=[{"n_procs": 8, "increments": 16}],
        assemble=_assemble_semaphore,
    ),
}


def run_experiment():
    experiment = SWEEPS["e13_cmmp_crossbar"]
    return experiment.table(experiment.run_inline())


def semaphore_table():
    experiment = SWEEPS["e13b_semaphore_cost"]
    return experiment.table(experiment.run_inline())


_at = row_at("ports")

#: The paper's claims, read off the tables (2 against 32 ports).
CLAIMS = {
    "e13_cmmp_crossbar": {
        # 16x the ports -> 256x the crosspoints, but latency within ~3x.
        "cost_grows_quadratically": lambda rows: _at(
            rows, 32)["cost growth"] == 256.0,
        "latency_held_flat": lambda rows: _at(
            rows, 32)["latency growth"] < 4.0,
    },
    "e13b_semaphore_cost": {
        # A semaphore costs far more than an ALU operation.
        "semaphore_dwarfs_alu": lambda rows: one_row(
            rows, {"measurement": "ratio"})["value"] > 10,
    },
}
