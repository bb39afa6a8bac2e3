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

import functools

from repro.analysis import Table
from repro.dataflow import Interpreter, MachineConfig, TaggedTokenMachine
from repro.exp import Experiment, row_at
from repro.machines import registry
from repro.workloads import compile_workload

WIDTHS = [1, 2, 4, 8, 16, 32, 64]
#: Memory latencies of the latency-surprise sweep.
LATENCIES = [1, 5, 10, 20, 50]
#: Workloads, PE count and issue width of the two sweeps.
WIDTH_WORKLOAD = "trapezoid"
SURPRISE_WORKLOAD = "matmul"
N_PES = 8
ISSUE_WIDTH = 8


@functools.lru_cache(maxsize=None)
def _interpreted(workload):
    """The workload's program and arguments, and an interpreter that has
    run it (its parallelism profile is what the VLIW schedules).  Every
    cell reads it and none changes it, so a process interprets each
    workload once."""
    program, _, args = compile_workload(workload)
    interp = Interpreter(program)
    interp.run(*args)
    return program, args, interp


def run_width_point(config):
    """The oracle schedule at one issue width: [cycles, speedup vs
    width 1]."""
    _, _, interp = _interpreted(WIDTH_WORKLOAD)
    ((_, cycles, speedup),) = registry.create("vliw").width_sweep(
        interp, [config["width"]])
    return [cycles, speedup]


def _assemble_width(experiment, values):
    table = Table(
        "E14  VLIW issue-width sweep: the 4-to-8 plateau (paper §1.2.4)",
        ["issue width", "schedule cycles", "speedup vs width 1",
         "marginal gain"],
        notes=[
            f"workload: {WIDTH_WORKLOAD} with an oracle list schedule",
            "marginal gain = speedup(width) / speedup(previous width)",
        ],
    )
    prev_speedup = None
    for config, (cycles, speedup) in zip(experiment.grid, values):
        marginal = 1.0 if prev_speedup is None else speedup / prev_speedup
        table.add_row(config["width"], cycles, speedup, marginal)
        prev_speedup = speedup
    return table


def run_surprise_point(config):
    """Both machines at one actual latency, against a VLIW schedule that
    assumed latency 1: [VLIW time, dataflow time]."""
    latency = config["latency"]
    program, args, interp = _interpreted(SURPRISE_WORKLOAD)
    schedule = registry.create(
        "vliw", issue_width=ISSUE_WIDTH, assumed_latency=1
    ).compile(interp)
    machine = TaggedTokenMachine(
        program, MachineConfig(n_pes=N_PES, network_latency=latency)
    )
    return [schedule.execution_time(latency), machine.run(*args).time]


def _assemble_surprise(experiment, values):
    table = Table(
        "E14b  Latency surprise: lockstep VLIW vs tagged-token overlap "
        "(paper §1.2.4)",
        ["actual latency", "VLIW time", "VLIW slowdown", "dataflow time",
         "dataflow slowdown"],
        notes=[
            "VLIW schedule assumed latency 1; every extra cycle stalls the "
            "whole machine",
            f"dataflow: {N_PES}-PE tagged-token machine, same latency sweep",
        ],
    )
    vliw_base, df_base = values[0]
    for config, (vliw_time, df_time) in zip(experiment.grid, values):
        table.add_row(config["latency"], vliw_time, vliw_time / vliw_base,
                      df_time, df_time / df_base)
    return table


SWEEPS = {
    "e14_vliw_width": Experiment(
        name="e14_vliw_width",
        run=run_width_point,
        grid=[{"width": width} for width in WIDTHS],
        assemble=_assemble_width,
    ),
    "e14b_vliw_latency_surprise": Experiment(
        name="e14b_vliw_latency_surprise",
        run=run_surprise_point,
        grid=[{"latency": latency} for latency in LATENCIES],
        assemble=_assemble_surprise,
    ),
}


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
