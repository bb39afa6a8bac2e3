"""E9 — low-level context switching needs unboundedly many contexts (§1.1).

"In the multiprocessor case, it will be necessary to have an unbounded
number of tasks to achieve scalability. ... As memory elements are added,
the depth of the communication network will grow.  Hence, the number of
low-level contexts to be maintained will also have to increase to match
the increase in memory latency time."

A HEP-style multithreaded processor runs K contexts of the same kernel
against a sweep of memory latencies.  For every latency there is a K that
saturates the pipeline — but that K grows linearly with the latency, so
no *fixed*-context processor survives scaling.
"""

from repro.analysis import Table, contexts_needed
from repro.exp import Experiment, row_at
from repro.vonneumann import VNMachine, programs

LATENCIES = [2, 5, 10, 20, 40]
CONTEXTS = [1, 2, 4, 8, 16, 32]


#: Utilization a context count must reach to count as "needed".
TARGET = 0.9


def utilization(n_contexts, latency, iterations=12):
    machine = VNMachine(1, memory="dancehall", latency=latency, memory_time=1)
    source = programs.compute_loop(iterations, loads_per_iter=1,
                                   alu_ops_per_iter=1)
    machine.add_multithreaded_processor(
        [(source, {}) for _ in range(n_contexts)]
    )
    machine.run()
    return machine.processors[0].utilization()


def run_point(config):
    """Pipeline utilization at one latency, one value per K in
    ``CONTEXTS``."""
    return [utilization(k, config["latency"]) for k in CONTEXTS]


def _assemble(experiment, values):
    table = Table(
        "E9  Hardware contexts needed to cover memory latency "
        "(paper §1.1, Issue 1)",
        ["latency"] + [f"K={k}" for k in CONTEXTS]
        + ["K needed (measured)", "K needed (model)"],
        notes=[
            f"cell = pipeline utilization; 'needed' = smallest K with "
            f"utilization >= {TARGET}",
            "kernel: 1 load + ~4 other cycles per iteration",
        ],
    )
    for config, utils in zip(experiment.grid, values):
        latency = config["latency"]
        measured = next(
            (k for k, u in zip(CONTEXTS, utils) if u >= TARGET), None
        )
        model = contexts_needed(5, 2 * latency + 1, TARGET)
        table.add_row(latency, *utils,
                      measured if measured is not None else f">{CONTEXTS[-1]}",
                      model)
    return table


SWEEPS = {"e09_context_depth": Experiment(
    name="e09_context_depth",
    run=run_point,
    grid=[{"latency": latency} for latency in LATENCIES],
    assemble=_assemble,
)}


_at = row_at("latency")

#: The paper's claims, read off the table (latencies 2, 10, 40 and
#: K = 1, 4, 16, 32).
CLAIMS = {"e09_context_depth": {
    # Utilization grows with K at fixed latency.
    "contexts_help": lambda rows: all(
        utils == sorted(utils) for utils in (
            [_at(rows, latency)[f"K={k}"] for k in (1, 4, 16, 32)]
            for latency in (2, 10, 40))),
    # The K that covers latency 2 no longer covers latency 40 ...
    "fixed_k_stops_covering": lambda rows: _at(rows, 2)["K=1"]
    > 3 * _at(rows, 40)["K=1"],
    # ... while enough contexts always recover utilization.
    "enough_contexts_recover": lambda rows: _at(rows, 40)["K=32"] > 0.8,
}}
