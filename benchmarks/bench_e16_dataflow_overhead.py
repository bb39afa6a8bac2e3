"""E16 (extension) — the price of the dataflow solution: overhead ops.

The paper presents tagged-token dataflow as the cure for Issues 1 and 2;
the contemporaneous critique of dataflow (which Arvind's group openly
engaged) is its *instruction overhead*: switches, tag manipulation (D,
D⁻¹, L, L⁻¹), gates and linkage are cycles a von Neumann machine does not
execute.  This experiment quantifies that overhead across the workload
library: the dynamic instruction mix by opcode class, and the fraction of
executed instructions doing arithmetic the programmer asked for.

This is the ablation DESIGN.md §5 calls "tagged matching vs static
dataflow" viewed from the cost side; it keeps the reproduction honest.
"""

from repro.analysis import Table
from repro.dataflow import Interpreter
from repro.exp import Experiment, row_at
from repro.workloads import WORKLOADS, compile_workload


def instruction_mix(name):
    program, _, args = compile_workload(name)
    interp = Interpreter(program)
    interp.run(*args)
    total = interp.counters["executed"]
    classes = {
        key[len("class_"):]: value
        for key, value in interp.counters.as_dict().items()
        if key.startswith("class_")
    }
    return total, classes


def run_point(config):
    """One workload's mix: [instructions executed, {class: count}]."""
    return list(instruction_mix(config["workload"]))


def _assemble(experiment, values):
    table = Table(
        "E16  Dynamic instruction mix: the overhead of dataflow sequencing",
        ["workload", "total", "pure %", "control %", "tag %", "linkage %",
         "structure %", "useful fraction"],
        notes=[
            "pure = arithmetic/relational/logical; control = switch/gate/"
            "constant/sink; tag = D, D⁻¹, L, L⁻¹",
            "useful fraction = pure / total (a von Neumann loop has "
            "overhead too: branches, address arithmetic)",
        ],
    )
    for config, (total, classes) in zip(experiment.grid, values):
        def pct(key):
            return 100.0 * classes.get(key, 0) / total

        table.add_row(
            config["workload"], total, pct("pure"), pct("control"),
            pct("tag"), pct("linkage"), pct("structure"),
            classes.get("pure", 0) / total,
        )
    return table


SWEEPS = {"e16_dataflow_overhead": Experiment(
    name="e16_dataflow_overhead",
    run=run_point,
    grid=[{"workload": name} for name in sorted(WORKLOADS)],
    assemble=_assemble,
)}


_mix = row_at("workload")

#: The paper's claims, read off the table (trapezoid, matmul, fib and
#: pipeline).
CLAIMS = {"e16_dataflow_overhead": {
    # The overhead is real: no workload is all-arithmetic ...
    "overhead_is_real": lambda rows: all(
        0.1 < _mix(rows, name)["useful fraction"] < 0.8
        for name in ("trapezoid", "matmul", "fib", "pipeline")),
    # ... loop-heavy code pays double-digit tag-manipulation percentages
    "loops_pay_in_tags": lambda rows: _mix(rows, "pipeline")["tag %"] > 10.0,
    # ... and recursion pays in linkage instead.
    "recursion_pays_in_linkage": lambda rows: _mix(rows, "fib")["linkage %"]
    > _mix(rows, "fib")["tag %"],
}}
