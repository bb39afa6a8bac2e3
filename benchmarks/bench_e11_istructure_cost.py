"""E11 — the cost model of I-structure storage (§2.1).

"The penalty of such a scheme in terms of the demands placed on memory
elements is not excessive.  A read operation is as efficient as in a
traditional memory.  Write operations take twice as long, however, due to
the prefetching of presence bits."

Microbenchmarks against one timed I-structure controller:

* service cost of pure-read and pure-write streams (read 1x, write 2x);
* deferred-read-list behaviour under an adversarial pattern (every read
  issued before its write) — list lengths, and the one-shot drain cost.
"""

from repro.analysis import Table
from repro.common import Simulator
from repro.exp import Experiment, one_row
from repro.istructure import IStructureController, ReadRequest, WriteRequest


def _controller(sim, replies):
    return IStructureController(
        sim, deliver=lambda reply, value: replies.append((reply, value)),
        read_cycles=1, write_cycles=2,
    )


def stream_cost(kind, n=200):
    sim = Simulator()
    replies = []
    controller = _controller(sim, replies)
    if kind == "write":
        for i in range(n):
            controller.submit(WriteRequest(key=("a", i), value=i))
    else:
        for i in range(n):
            controller.submit(WriteRequest(key=("a", i), value=i))
        sim.run()
        start = sim.now
        for i in range(n):
            controller.submit(ReadRequest(key=("a", i), reply=i))
        sim.run()
        return (sim.now - start) / n
    sim.run()
    return sim.now / n


def adversarial_deferral(n=64, readers_per_cell=3):
    """Every read arrives before its write: maximal deferred lists."""
    sim = Simulator()
    replies = []
    controller = _controller(sim, replies)
    for i in range(n):
        for r in range(readers_per_cell):
            controller.submit(ReadRequest(key=("a", i), reply=(i, r)))
    for i in range(n):
        controller.submit(WriteRequest(key=("a", i), value=i * i))
    sim.run()
    histogram = controller.module.deferred_list_lengths
    return {
        "replies": len(replies),
        "deferred": controller.module.counters["reads_deferred"],
        "immediate": controller.module.counters["reads_immediate"],
        "mean_list": histogram.mean,
        "max_list": histogram.max,
        "every_reader_answered": sorted(r for r, _ in replies)
        == sorted((i, r) for i in range(n) for r in range(readers_per_cell)),
    }


def run_point(config):
    """One microbenchmark: a stream's cycles/op, or the adversarial
    pattern's statistics."""
    if config["measurement"] == "adversarial":
        return adversarial_deferral()
    return stream_cost(config["measurement"])


def _assemble(experiment, values):
    table = Table(
        "E11  I-structure storage cost model (paper §2.1)",
        ["measurement", "value"],
        notes=[
            "cycles/op from 200-request streams on one controller",
            "adversarial pattern: 3 reads of every cell arrive before its write",
        ],
    )
    read_cost, write_cost, stats = values
    table.add_row("read cycles/op (paper: 1x plain memory)", read_cost)
    table.add_row("write cycles/op (paper: 2x, presence-bit prefetch)",
                  write_cost)
    table.add_row("write/read cost ratio", write_cost / read_cost)
    table.add_row("adversarial: deferred reads", stats["deferred"])
    table.add_row("adversarial: immediate reads", stats["immediate"])
    table.add_row("adversarial: mean deferred-list length", stats["mean_list"])
    table.add_row("adversarial: max deferred-list length", stats["max_list"])
    table.add_row("adversarial: every reader answered",
                  stats["every_reader_answered"])
    return table


SWEEPS = {"e11_istructure_cost": Experiment(
    name="e11_istructure_cost",
    run=run_point,
    grid=[{"measurement": measurement}
          for measurement in ("read", "write", "adversarial")],
    assemble=_assemble,
)}


def _value(rows, measurement):
    return one_row(rows, {"measurement": measurement})["value"]


#: The paper's claims, read off the table: "A read operation is as
#: efficient as in a traditional memory.  Write operations take twice as
#: long"; adversarial reads each defer once and are all answered.
CLAIMS = {"e11_istructure_cost": {
    "read_costs_one": lambda rows: _value(
        rows, "read cycles/op (paper: 1x plain memory)") == 1.0,
    "write_costs_twice": lambda rows: _value(
        rows, "write/read cost ratio") == 2.0,
    "every_reader_answered": lambda rows: _value(
        rows, "adversarial: every reader answered") == "yes",
    "deferred_lists_bounded": lambda rows: (
        _value(rows, "adversarial: max deferred-list length") == 3.0
        and _value(rows, "adversarial: immediate reads") == 0),
}}
