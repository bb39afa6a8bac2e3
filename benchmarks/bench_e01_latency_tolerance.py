"""E1 — Issue 1: the ability to tolerate memory latency (§1.1).

Claim reproduced: a von Neumann processor's utilization collapses as
memory latency grows (it idles on every reference), while the tagged-token
machine's completion time barely moves, because "data flow provides a
means whereby a processing element can issue many simultaneous memory
requests, can tolerate long latencies ..., and can deal with responses
that arrive out of order" (§2.3).

Both machines sweep the same one-way network latency.  The von Neumann
column is a single-context processor with a 4:1 compute-to-load ratio; the
dataflow column runs the (parallel) matmul workload on 4 PEs through an
equally slow network.

Ported to the sweep engine: each latency point runs both machines in one
pure worker; the slowdown columns (relative to the first latency) are
computed at assembly time.
"""

from repro.analysis import Table, von_neumann_utilization
from repro.exp import Experiment, row_at
from repro.machines import registry
from repro.vonneumann import VNMachine, programs

LATENCIES = [1, 2, 5, 10, 20, 50, 100]


def run_von_neumann(latency, iterations=60, alu_per_load=4):
    machine = VNMachine(1, memory="dancehall", latency=latency, memory_time=1)
    machine.add_processor(
        programs.compute_loop(iterations, loads_per_iter=1,
                              alu_ops_per_iter=alu_per_load)
    )
    result = machine.run()
    return result.time, result.utilizations[0]


def run_dataflow(latency, n=5, n_pes=4):
    model = registry.create("ttda", n_pes=n_pes, network_latency=latency)
    return model.run(workload="matmul", args=(n,)).metric("time")


def run_point(config):
    """Both machines at one latency; slowdown bases come at assembly."""
    latency = config["latency"]
    vn_time, vn_util = run_von_neumann(latency)
    df_time = run_dataflow(latency)
    return [latency, vn_time, vn_util, df_time]


def _assemble(experiment, values):
    table = Table(
        "E1  Latency tolerance: von Neumann stall vs dataflow overlap "
        "(paper §1.1 Issue 1, §2.3)",
        ["latency", "vN util", "vN util (model)", "vN slowdown",
         "dataflow slowdown"],
        notes=[
            "slowdowns are relative to the latency=1 run of the same machine",
            "vN model: r/(r+L_roundtrip), r = cycles of work per reference",
        ],
    )
    vn_base = values[0][1]
    df_base = values[0][3]
    for latency, vn_time, vn_util, df_time in values:
        # useful cycles per reference: 1 load issue + 4 alu + ~2 loop ctrl
        model = von_neumann_utilization(7, 2 * latency + 1)
        table.add_row(latency, vn_util, model, vn_time / vn_base,
                      df_time / df_base)
    return table


SWEEPS = {"e01_latency_tolerance": Experiment(
    name="e01_latency_tolerance",
    run=run_point,
    grid=[{"latency": latency} for latency in LATENCIES],
    assemble=_assemble,
)}

_at = row_at("latency")

#: The paper's claims, read off the table (latency 1 against 50).
CLAIMS = {"e01_latency_tolerance": {
    # von Neumann: utilization collapses, time grows ~linearly.
    "vn_util_collapses": lambda rows: (_at(rows, 1)["vN util"] > 0.5
                                       and _at(rows, 50)["vN util"] < 0.1),
    "vn_slows_down": lambda rows: _at(rows, 50)["vN slowdown"] > 5,
    # dataflow: an order of magnitude less sensitive to the same latency.
    "dataflow_tolerates_latency": lambda rows: (
        _at(rows, 50)["dataflow slowdown"] < _at(rows, 50)["vN slowdown"] / 3
        and _at(rows, 50)["dataflow slowdown"] < 2.5),
}}
