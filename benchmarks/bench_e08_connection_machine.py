"""E8 — the Connection Machine: communication dominates (§1.2.5).

"It is clear that the speed of one bit ALU operations is irrelevant
because it will be insignificant in comparison with the communication time
- a processor will spend almost all (90%?, 99%?) of its time
communicating."

The SIMD model alternates bit-serial ALU phases with hypercube routing
phases under the global-completion-flag barrier.  Random-graph traffic
(the "applied artificial intelligence" workload the paper describes)
drives the communication fraction into exactly the 90-99% band; the
friendly nearest-neighbour pattern, and a 32x faster ALU, barely move it.
"""

from repro.analysis import Table
from repro.exp import Experiment, row_at
from repro.machines import IlliacIV, registry


#: SIMD rounds per Connection Machine run.
ROUNDS = 6
#: Each Illiac IV transfer pattern, as (dx, dy) requests of the 64 PEs.
TRANSFERS = {
    "all east by 1": [(0, 1)] * 64,
    "half east, half west": [(0, 1)] * 32 + [(0, -1)] * 32,
    "one corner-to-corner (7,7)": [(0, 0)] * 63 + [(7, 7)],
}


def run_point(config):
    """One (pattern, ALU width) run: [groups, comm fraction, max link
    load, mean hops]."""
    model = registry.create("connection_machine", groups_log2=10,
                            word_bits=config["word_bits"])
    result = model.run_graph_workload(rounds=ROUNDS,
                                      pattern=config["pattern"])
    return [model.cm_config.n_groups, result.comm_fraction,
            result.max_link_load, result.mean_hops]


def _assemble(experiment, values):
    table = Table(
        "E8  Connection Machine: fraction of time spent communicating "
        "(paper §1.2.5)",
        ["pattern", "ALU bits/op", "groups", "comm fraction", "max link load",
         "mean hops"],
        notes=[
            "SIMD rounds of (bit-serial ALU op, message round, global barrier)",
            "the paper's estimate: 'almost all (90%?, 99%?) of its time'",
        ],
    )
    for config, row in zip(experiment.grid, values):
        table.add_row(config["pattern"], config["word_bits"], *row)
    return table


def run_illiac_point(config):
    """Shift instructions one transfer pattern needs."""
    return IlliacIV().shifts_needed(TRANSFERS[config["pattern"]])


def _assemble_illiac(experiment, values):
    table = Table(
        "E8b  Illiac IV: uniform-shift serialization (paper §1.2.5)",
        ["transfer pattern", "shift instructions"],
        notes=["one instruction moves every processor one step in one "
               "direction; everyone waits for the farthest request"],
    )
    for config, shifts in zip(experiment.grid, values):
        table.add_row(config["pattern"], shifts)
    return table


SWEEPS = {
    "e08_connection_machine": Experiment(
        name="e08_connection_machine",
        run=run_point,
        grid=[{"pattern": pattern, "word_bits": word_bits}
              for pattern in ("neighbor", "random")
              for word_bits in (32, 1)],
        assemble=_assemble,
    ),
    "e08b_illiac_iv": Experiment(
        name="e08b_illiac_iv",
        run=run_illiac_point,
        grid=[{"pattern": pattern} for pattern in TRANSFERS],
        assemble=_assemble_illiac,
    ),
}


_comm = row_at("pattern", "ALU bits/op")
_shifts = row_at("transfer pattern")

#: The paper's claims, read off the tables.
CLAIMS = {
    "e08_connection_machine": {
        # Random graph traffic: inside the paper's 90-99% band.
        "random_traffic_in_band": lambda rows: _comm(
            rows, "random", 32)["comm fraction"] > 0.9,
        # A 32x faster ALU is irrelevant: the fraction barely moves.
        "alu_speed_irrelevant": lambda rows: _comm(
            rows, "random", 1)["comm fraction"] > 0.95,
        # Even neighbour traffic is communication-heavy on bit-serial links.
        "neighbor_traffic_heavy": lambda rows: _comm(
            rows, "neighbor", 32)["comm fraction"] > 0.4,
    },
    "e08b_illiac_iv": {
        # A uniform shift is one instruction, east+west serialize, and
        # everyone waits out the long transfer.
        "shifts_serialize": lambda rows: [
            _shifts(rows, pattern)["shift instructions"]
            for pattern in ("all east by 1", "half east, half west",
                            "one corner-to-corner (7,7)")] == [1, 2, 14],
    },
}
