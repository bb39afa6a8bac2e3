"""E10 — scalability of the tagged-token machine (§2.3, §3).

The payoff claim: with tagged tokens, associative matching and I-structure
storage, adding PEs speeds programs up without reprogramming — the
"thousand-fold parallelism grail" motivation of §3.  Matmul and wavefront
sweep the PE count; the mapping-policy ablation (hash vs by-context)
quantifies the locality/balance trade the mapping information of §2.2.2
controls.

Ported to the sweep engine: every (workload, PE count) point is one pure
run through the machine registry; the speedup column (relative to each
workload's smallest PE count) is computed at assembly time.
"""

from repro.analysis import Table, speedup
from repro.exp import Experiment, one_row, row_at
from repro.machines import registry

PE_COUNTS = [1, 2, 4, 8, 16]


def run_point(config):
    """One (workload, PE count, mapping) run on the tagged-token machine."""
    model = registry.create("ttda", n_pes=config["n_pes"],
                            mapping=config.get("mapping", "hash"))
    result = model.run(workload=config["workload"],
                       args=tuple(config["args"]))
    return [
        result.metric("time"),
        result.metric("mean_alu_utilization"),
        result.metric("tokens_network"),
        result.metric("tokens_local"),
    ]


def _scaling_grid(pe_counts, matmul_n, wavefront_n):
    return [{"workload": workload, "args": list(args), "n_pes": n_pes,
             "mapping": "hash"}
            for workload, args in (("matmul", (matmul_n,)),
                                   ("wavefront", (wavefront_n,)))
            for n_pes in pe_counts]


def _assemble_scaling(experiment, values):
    table = Table(
        "E10  Tagged-token machine scaling (paper §2.3, §3)",
        ["PEs", "workload", "time", "speedup", "mean ALU util",
         "network tokens"],
        notes=["same program, same arguments; only the PE count changes"],
    )
    base = None
    base_workload = None
    for config, (time, util, net_tokens, _) in zip(experiment.grid, values):
        if config["workload"] != base_workload:
            base_workload = config["workload"]
            base = time
        table.add_row(config["n_pes"], config["workload"], time,
                      speedup(base, time), util, net_tokens)
    return table


def _assemble_ablation(experiment, values):
    table = Table(
        "E10b  Mapping policy ablation: hash vs by-context (paper §2.2.2)",
        ["policy", "time", "network tokens", "local tokens"],
        notes=["by-context trades load balance for locality"],
    )
    for config, (time, _, net_tokens, local_tokens) in zip(experiment.grid,
                                                           values):
        table.add_row(config["mapping"], time, net_tokens, local_tokens)
    return table


SWEEPS = {
    "e10_ttda_scaling": Experiment(
        name="e10_ttda_scaling",
        run=run_point,
        grid=_scaling_grid(PE_COUNTS, matmul_n=5, wavefront_n=7),
        assemble=_assemble_scaling,
    ),
    "e10b_mapping_ablation": Experiment(
        name="e10b_mapping_ablation",
        run=run_point,
        grid=[{"workload": "matmul", "args": [5], "n_pes": 8,
               "mapping": policy} for policy in ("hash", "context")],
        assemble=_assemble_ablation,
    ),
}


def run_experiment():
    experiment = SWEEPS["e10_ttda_scaling"]
    return experiment.table(experiment.run_inline())


def mapping_ablation():
    experiment = SWEEPS["e10b_mapping_ablation"]
    return experiment.table(experiment.run_inline())


_speedup = row_at("workload", "PEs")


def _local_share(rows, policy):
    row = one_row(rows, {"policy": policy})
    return row["local tokens"] / (row["network tokens"] + row["local tokens"])


#: The paper's claims, read off the tables (1, 4 and 8 PEs).
CLAIMS = {
    "e10_ttda_scaling": {
        # More PEs speed the same program up without reprogramming.
        "matmul_scales": lambda rows: (
            _speedup(rows, "matmul", 1)["speedup"] == 1.0
            and _speedup(rows, "matmul", 4)["speedup"] > 1.5
            and _speedup(rows, "matmul", 8)["speedup"]
            > _speedup(rows, "matmul", 4)["speedup"]),
        "wavefront_scales": lambda rows: _speedup(
            rows, "wavefront", 8)["speedup"] > 1.3,
    },
    "e10b_mapping_ablation": {
        # By-context keeps more tokens local than pure hashing.
        "context_mapping_keeps_tokens_local": lambda rows: (
            _local_share(rows, "context") > _local_share(rows, "hash")),
    },
}
