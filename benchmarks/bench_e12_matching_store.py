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
from repro.exp import row_at
from repro.workloads import compile_workload


def run_point(workload, args, n_pes=4):
    program, _, _ = compile_workload(workload)
    machine = TaggedTokenMachine(program, MachineConfig(n_pes=n_pes))
    result = machine.run(*args)
    mean_occ, peak_occ = machine.matching_store_occupancy()
    return result, mean_occ, peak_occ


def run_experiment(n_pes=4):
    table = Table(
        "E12  Waiting-matching store occupancy vs exposed parallelism "
        "(paper §2.2.3)",
        ["matmul n", "instructions", "time", "mean waiting tokens",
         "peak waiting tokens", "tokens parked"],
        notes=[f"{n_pes} PEs; occupancy summed over the machine"],
    )
    for n in (3, 4, 5, 6):
        result, mean_occ, peak_occ = run_point("matmul", (n,), n_pes)
        table.add_row(n, result.instructions, result.time, mean_occ, peak_occ,
                      result.counters.get("tokens_parked", 0))
    return table


def pe_sweep():
    table = Table(
        "E12b  Occupancy concentration vs PE count",
        ["PEs", "mean waiting tokens (machine)", "peak waiting tokens (one PE)"],
        notes=["total exposed parallelism is a program property; per-PE "
               "associative stores share the load as PEs are added"],
    )
    for n_pes in (1, 2, 4, 8):
        _, mean_occ, peak_occ = run_point("matmul", (5,), n_pes)
        table.add_row(n_pes, mean_occ, peak_occ)
    return table


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
