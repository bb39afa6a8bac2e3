"""E17 (extension) — ablating the unbounded associative store (§2.2.3).

The paper's waiting-matching section is an associative memory where
unmatched tokens wait indefinitely.  Real associative memories are small;
when exposed parallelism exceeds capacity, tokens spill to a slower
overflow store.  This ablation sweeps the per-PE capacity and shows the
cliff: performance is flat while the store holds the working set of
unmatched tokens, then degrades as probes start paying the overflow
penalty — quantifying how much associative memory the paper's machine
actually needs for a given workload.
"""

from repro.analysis import Table
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.exp import row_at
from repro.workloads import compile_workload

CAPACITIES = [None, 128, 64, 32, 16, 8, 4]
#: matmul size, PE count and overflow penalty (cycles) of every point.
N = 5
N_PES = 4
PENALTY = 16.0


def run_point(capacity):
    program, reference, _ = compile_workload("matmul")
    config = MachineConfig(n_pes=N_PES, wm_capacity=capacity,
                           wm_overflow_penalty=PENALTY)
    machine = TaggedTokenMachine(program, config)
    result = machine.run(N)
    assert result.value == reference(N)
    return result, machine


def run_experiment():
    table = Table(
        "E17  Finite waiting-matching store: capacity ablation "
        "(paper §2.2.3)",
        ["capacity/PE", "time", "slowdown", "overflow probes",
         "peak waiting (one PE)"],
        notes=[
            "overflow probe = a match attempt while the store is over "
            "capacity (pays the spill penalty)",
            f"matmul n={N} on {N_PES} PEs; penalty 16 cycles",
        ],
    )
    base_time = None
    for capacity in CAPACITIES:
        result, machine = run_point(capacity)
        if base_time is None:
            base_time = result.time
        _, peak = machine.matching_store_occupancy()
        table.add_row(
            "unbounded" if capacity is None else capacity,
            result.time, result.time / base_time,
            result.counters.get("wm_overflows", 0), peak,
        )
    return table


_at = row_at("capacity/PE")

#: The paper's claims, read off the table (unbounded, 64 and 8 per PE).
CLAIMS = {"e17_wm_capacity": {
    "unbounded_never_overflows": lambda rows: (
        _at(rows, "unbounded")["slowdown"] == 1.0
        and _at(rows, "unbounded")["overflow probes"] == 0),
    # A capacity above the working set is free; a tiny store is not.
    "tiny_store_pays": lambda rows: (
        _at(rows, 8)["slowdown"] > _at(rows, 64)["slowdown"]
        and _at(rows, 8)["slowdown"] > 1.15
        and _at(rows, 8)["overflow probes"]
        > _at(rows, 64)["overflow probes"]),
}}
