"""E12 — the waiting–matching section tracks exposed parallelism (§2.2.3).

"When a match is expected but not found, the token remains in the
waiting-matching unit's associative memory until its partner arrives."
The associative store is the hardware budget for exposed parallelism:
the more iterations/calls in flight, the more first-operand tokens parked
awaiting partners.  We sweep problem size and PE count and record mean and
peak occupancy.
"""

from repro.analysis import Table
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.exp import Experiment, row_at
from repro.workloads import compile_workload

#: PEs of every E12 run.
N_PES = 4


def run_point(config):
    """One matmul run: [instructions, time, mean waiting tokens, peak
    waiting tokens on one PE, tokens parked]."""
    program, _, _ = compile_workload("matmul")
    machine = TaggedTokenMachine(program, MachineConfig(n_pes=config["n_pes"]))
    result = machine.run(config["n"])
    mean_occ, peak_occ = machine.matching_store_occupancy()
    return [result.instructions, result.time, mean_occ, peak_occ,
            result.counters.get("tokens_parked", 0)]


def _assemble(experiment, values):
    table = Table(
        "E12  Waiting-matching store occupancy vs exposed parallelism "
        "(paper §2.2.3)",
        ["matmul n", "instructions", "time", "mean waiting tokens",
         "peak waiting tokens", "tokens parked"],
        notes=[f"{N_PES} PEs; occupancy summed over the machine"],
    )
    for config, row in zip(experiment.grid, values):
        table.add_row(config["n"], *row)
    return table


def _assemble_pes(experiment, values):
    table = Table(
        "E12b  Occupancy concentration vs PE count",
        ["PEs", "mean waiting tokens (machine)", "peak waiting tokens (one PE)"],
        notes=["total exposed parallelism is a program property; per-PE "
               "associative stores share the load as PEs are added"],
    )
    for config, (_, _, mean_occ, peak_occ, _) in zip(experiment.grid, values):
        table.add_row(config["n_pes"], mean_occ, peak_occ)
    return table


SWEEPS = {
    "e12_matching_store": Experiment(
        name="e12_matching_store",
        run=run_point,
        grid=[{"n": n, "n_pes": N_PES} for n in (3, 4, 5, 6)],
        assemble=_assemble,
    ),
    "e12b_matching_store_pes": Experiment(
        name="e12b_matching_store_pes",
        run=run_point,
        grid=[{"n": 5, "n_pes": n_pes} for n_pes in (1, 2, 4, 8)],
        assemble=_assemble_pes,
    ),
}


_size = row_at("matmul n")
_pes = row_at("PEs")

#: The paper's claims, read off the tables.
CLAIMS = {
    "e12_matching_store": {
        # Bigger problems expose more parallelism => more parked tokens.
        "occupancy_tracks_parallelism": lambda rows: (
            _size(rows, 5)["mean waiting tokens"]
            > _size(rows, 3)["mean waiting tokens"]
            and _size(rows, 5)["peak waiting tokens"]
            >= _size(rows, 3)["peak waiting tokens"]),
    },
    "e12b_matching_store_pes": {
        # Spreading activities over 8 PEs lowers the worst single store.
        "pes_share_the_store": lambda rows: (
            _pes(rows, 8)["peak waiting tokens (one PE)"]
            < _pes(rows, 1)["peak waiting tokens (one PE)"]),
    },
}
