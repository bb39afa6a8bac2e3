"""E14 — VLIW: effective at small scale, unable to cover dynamics (§1.2.4).

"We believe that this technique is effective in its currently-realized
context - special purpose computation with small scale (4 to 8)
parallelism, but the technique is not sufficiently general as to allow
significant scaling up."

Two measurements against an *oracle* VLIW (perfect static schedule of the
true dependence graph — more than any real compiler gets):

* issue-width sweep: speedup saturates right around the paper's 4-8;
* latency surprise: when memory takes longer than the schedule assumed,
  the lockstep machine eats the full excess per reference, while the
  tagged-token machine keeps overlapping.
"""

from repro.analysis import Table
from repro.dataflow import Interpreter, MachineConfig, TaggedTokenMachine
from repro.exp import row_at
from repro.machines import registry
from repro.workloads import compile_workload

WIDTHS = [1, 2, 4, 8, 16, 32, 64]


def run_width_sweep(widths=WIDTHS, workload="trapezoid"):
    program, _, args = compile_workload(workload)
    interp = Interpreter(program)
    interp.run(*args)
    table = Table(
        "E14  VLIW issue-width sweep: the 4-to-8 plateau (paper §1.2.4)",
        ["issue width", "schedule cycles", "speedup vs width 1",
         "marginal gain"],
        notes=[
            f"workload: {workload} with an oracle list schedule",
            "marginal gain = speedup(width) / speedup(previous width)",
        ],
    )
    rows = registry.create("vliw").width_sweep(interp, widths)
    prev_speedup = None
    for width, cycles, speedup in rows:
        marginal = 1.0 if prev_speedup is None else speedup / prev_speedup
        table.add_row(width, cycles, speedup, marginal)
        prev_speedup = speedup
    return table


def run_latency_surprise(workload="matmul", n_pes=8, issue_width=8):
    latencies = (1, 5, 10, 20, 50)
    program, _, args = compile_workload(workload)
    interp = Interpreter(program)
    interp.run(*args)
    schedule = registry.create(
        "vliw", issue_width=issue_width, assumed_latency=1
    ).compile(interp)
    table = Table(
        "E14b  Latency surprise: lockstep VLIW vs tagged-token overlap "
        "(paper §1.2.4)",
        ["actual latency", "VLIW time", "VLIW slowdown", "dataflow time",
         "dataflow slowdown"],
        notes=[
            "VLIW schedule assumed latency 1; every extra cycle stalls the "
            "whole machine",
            f"dataflow: {n_pes}-PE tagged-token machine, same latency sweep",
        ],
    )
    vliw_base = schedule.execution_time(latencies[0])
    df_base = None
    for latency in latencies:
        vliw_time = schedule.execution_time(latency)
        machine = TaggedTokenMachine(
            program, MachineConfig(n_pes=n_pes, network_latency=latency)
        )
        df_time = machine.run(*args).time
        if df_base is None:
            df_base = df_time
        table.add_row(latency, vliw_time, vliw_time / vliw_base, df_time,
                      df_time / df_base)
    return table


_width = row_at("issue width")
_latency = row_at("actual latency")

#: The paper's claims, read off the tables.
CLAIMS = {
    "e14_vliw_width": {
        # Useful gains at small widths; a hard ceiling just beyond the
        # paper's "4 to 8" (the workload's average parallelism is ~6.5).
        "small_widths_pay": lambda rows: _width(
            rows, 4)["speedup vs width 1"] > 2.0,
        "plateau_past_ceiling": lambda rows: (
            _width(rows, 64)["speedup vs width 1"]
            == _width(rows, 16)["speedup vs width 1"] < 8.0
            and _width(rows, 64)["marginal gain"] < 1.05),
    },
    "e14b_vliw_latency_surprise": {
        # Latency 20 against a schedule that assumed 1: the lockstep
        # machine stalls, the tagged-token machine keeps overlapping.
        "vliw_eats_the_surprise": lambda rows: _latency(
            rows, 20)["VLIW slowdown"] > 2.0,
        "dataflow_overlaps": lambda rows: _latency(
            rows, 20)["dataflow slowdown"] < _latency(
            rows, 20)["VLIW slowdown"],
    },
}
