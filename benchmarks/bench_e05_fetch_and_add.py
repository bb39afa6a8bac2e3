"""E5 — the NYU Ultracomputer's combining FETCH-AND-ADD (§1.2.3).

"If two packets collide ... the switch extracts the values x and y, forms
a new packet ... Hence, one memory reference may involve as many as
log2(n) additions, and implies substantial hardware complexity."

The hot-spot experiment: every processor FETCH-AND-ADDs one shared cell
simultaneously.  Without combining the hot memory port serializes all n
requests; with combining the switches fold them into a tree, at the price
of combine/split work in the network (the "substantial hardware
complexity" — we count it).

Ported to the sweep engine: every (size, combining) point is one pure
run, so ``repro bench`` executes the grid across workers and caches it.
"""

from repro.analysis import Table
from repro.exp import Experiment, row_at
from repro.machines import registry

STAGES = [2, 3, 4, 5, 6]


def run_point(config):
    """One hot-spot run; returns the table cells for this grid point."""
    result = registry.create("ultracomputer", stages=config["stages"],
                             combining=config["combining"]).run()
    # serializability: the FETCH-AND-ADD sum must survive combining
    assert result.metric("final_value") == result.metric("n_procs")
    return [
        result.metric("n_procs"),
        config["combining"],
        result.metric("memory_arrivals"),
        result.metric("max_round_trip"),
        result.metric("total_time"),
        result.metric("combines"),
    ]


def _grid(stage_counts):
    return [{"stages": stages, "combining": combining}
            for stages in stage_counts
            for combining in (False, True)]


def _assemble(experiment, values):
    table = Table(
        "E5  FETCH-AND-ADD hot spot: combining vs non-combining omega "
        "network (paper §1.2.3)",
        ["n procs", "combining", "hot-port arrivals", "max round trip",
         "total time", "switch combines"],
        notes=[
            "every processor FETCH-AND-ADDs address 0 at t=0",
            "hot-port arrivals / n = serialization factor (1.0 = no combining)",
            "correctness (sum preserved, distinct old values) asserted per run",
        ],
    )
    for row in values:
        table.add_row(*row)
    return table


def build_sweep(stage_counts=STAGES):
    return Experiment(
        name="e05_fetch_and_add",
        run=run_point,
        grid=_grid(stage_counts),
        assemble=_assemble,
    )


SWEEPS = {"e05_fetch_and_add": build_sweep()}


def run_experiment(stage_counts=STAGES):
    experiment = build_sweep(stage_counts)
    return experiment.table(experiment.run_inline())


_at = row_at("n procs", "combining")


def _growth(rows, combining):
    """Max round-trip growth from 8 to 32 processors."""
    return (_at(rows, 32, combining)["max round trip"]
            / _at(rows, 8, combining)["max round trip"])


#: The paper's claims, read off the table (8 and 32 processors).
CLAIMS = {"e05_fetch_and_add": {
    # Without combining the hot port sees every request; with it the
    # switches collapse them into a tree.
    "plain_serializes": lambda rows: all(
        _at(rows, n, "no")["hot-port arrivals"] == n for n in (8, 32)),
    "combining_collapses": lambda rows: all(
        _at(rows, n, "yes")["hot-port arrivals"] < 8 for n in (8, 32)),
    # Latency grows ~4x from n=8 to n=32 without combining, far less with.
    "combining_flattens_latency": lambda rows: (
        _growth(rows, "no") > 2.5
        and _growth(rows, "yes") < _growth(rows, "no") / 1.5),
    "switches_combine": lambda rows: _at(
        rows, 32, "yes")["switch combines"] > 0,
}}
