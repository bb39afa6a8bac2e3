"""The NYU Ultracomputer (§1.2.3): FETCH-AND-ADD over a combining network.

The model drives the :class:`CombiningOmegaNetwork` with the hot-spot
pattern FETCH-AND-ADD exists for — every processor updating one shared
cell — and measures what the combining switches buy: memory arrivals at
the hot port, round-trip latency, and the ≤ log2(n) adds per reference the
paper notes as the price in switch hardware.

The paper's two reservations are also surfaced: switch complexity (the
count of combine/split operations the switches performed) and the fact
that "the issue of processor latency has not been specifically addressed"
(round-trip latency still grows with log n even when combining works).

:class:`UltracomputerModel` is the registry entry point
(``registry.create("ultracomputer", stages=5)``).
"""

from dataclasses import dataclass
from typing import Any, Optional

from ..common.queueing import FifoServer
from ..common.simulator import Simulator
from ..network.omega import CombiningOmegaNetwork, FetchAddRequest
from .api import SimResult
from .registry import register

__all__ = ["UltraResult", "UltracomputerModel"]


@dataclass
class UltraResult:
    """Measurements of one hot-spot run."""

    n_procs: int
    combining: bool
    total_time: float
    final_value: int
    mean_round_trip: float
    max_round_trip: float
    memory_arrivals: int
    combines: int
    splits: int
    replies: int
    #: Cycle-accounting payload (``CycleAccounting.as_dict`` form):
    #: memory-port servers and switch rails decomposed over the run.
    accounting: Optional[Any] = None
    #: Event-kernel counters (``Simulator.kernel_stats()``) for the run.
    kernel_stats: Optional[Any] = None

    @property
    def serialization_factor(self):
        """Hot-port arrivals per processor (1.0 = fully combined tree)."""
        return self.memory_arrivals / self.n_procs


def _run_hotspot(stages, combining=True, requests_per_proc=1,
                 switch_time=1.0, memory_time=2.0, spacing=0.0,
                 faults=None):
    """All 2**stages processors FETCH-AND-ADD address 0.

    ``spacing`` staggers injections (0 = the worst-case synchronous burst
    the Ultracomputer's synchronous network design assumes).
    """
    from ..faults import coerce_plan

    plan = coerce_plan(faults)
    injector = plan.injector() if plan is not None and plan.enabled else None
    sim = Simulator()
    net = CombiningOmegaNetwork(sim, stages, switch_time=switch_time,
                                combining=combining)
    net.faults = injector
    n = net.n_ports
    memory = {}
    servers = [
        FifoServer(sim, memory_time, name=f"ultra.mem{i}") for i in range(n)
    ]

    def make_memory_handler(port):
        def finish(rec, pay):
            old = memory.get(pay.address, 0)
            memory[pay.address] = old + pay.value
            net.reply(rec, old)

        def serve(work):
            rec, pay, retries = work
            if injector is not None:
                verdict = injector.memory_fault(sim, f"ultra.mem{port}",
                                                retries=retries)
                if verdict is not None:
                    kind, cycles = verdict
                    if kind == "fail":
                        # Not applied; re-queue at the port after backoff.
                        sim.post(cycles, servers[port].submit,
                                 (rec, pay, retries + 1), serve)
                        return
                    # Slow bank: the FETCH-AND-ADD lands late.
                    sim.post(cycles, finish, rec, pay)
                    return
            finish(rec, pay)

        def handler(record, payload):
            servers[port].submit((record, payload, 0), serve)

        return handler

    replies = []
    for port in range(n):
        net.attach_memory(port, make_memory_handler(port))
        net.attach_processor(port, lambda payload, value: replies.append(value))

    for round_index in range(requests_per_proc):
        for src in range(n):
            delay = spacing * (round_index * n + src)
            sim.post(delay, net.request, src,
                         FetchAddRequest(address=0, value=1))
    sim.run()

    from ..obs.analysis import ultra_accounting
    accounting = ultra_accounting(net, servers, sim.now).as_dict()

    return UltraResult(
        n_procs=n,
        combining=combining,
        total_time=sim.now,
        final_value=memory.get(0, 0),
        mean_round_trip=net.round_trip_latency.mean,
        max_round_trip=net.round_trip_latency.max,
        memory_arrivals=net.counters["memory_arrivals"],
        combines=net.counters["combines"],
        splits=net.counters["splits"],
        replies=net.counters["replies"],
        accounting=accounting,
        kernel_stats=sim.kernel_stats(),
    )


@register("ultracomputer")
class UltracomputerModel:
    """Registry model: a 2**stages-port combining omega hot-spot machine."""

    def __init__(self, stages=4, combining=True, switch_time=1.0,
                 memory_time=2.0, faults=None):
        from ..faults import coerce_plan

        plan = coerce_plan(faults)
        self.config = {
            "stages": stages,
            "combining": combining,
            "switch_time": switch_time,
            "memory_time": memory_time,
        }
        # Only echoed (and only passed down) when set, so default configs
        # and every existing baseline row stay byte-identical.
        if plan is not None:
            self.config["faults"] = plan.as_dict()

    def hotspot(self, requests_per_proc=1, spacing=0.0):
        """The raw :class:`UltraResult` of one hot-spot run."""
        return _run_hotspot(
            self.config["stages"],
            combining=self.config["combining"],
            requests_per_proc=requests_per_proc,
            switch_time=self.config["switch_time"],
            memory_time=self.config["memory_time"],
            spacing=spacing,
            faults=self.config.get("faults"),
        )

    def run(self, requests_per_proc=1, spacing=0.0):
        result = self.hotspot(requests_per_proc=requests_per_proc,
                              spacing=spacing)
        return SimResult(
            machine=self.name,
            config=dict(self.config),
            workload={"requests_per_proc": requests_per_proc,
                      "spacing": spacing},
            metrics={
                "n_procs": result.n_procs,
                "combining": result.combining,
                "total_time": result.total_time,
                "final_value": result.final_value,
                "mean_round_trip": result.mean_round_trip,
                "max_round_trip": result.max_round_trip,
                "memory_arrivals": result.memory_arrivals,
                "serialization_factor": result.serialization_factor,
                "combines": result.combines,
                "splits": result.splits,
                "replies": result.replies,
            },
            accounting=result.accounting,
            kernel_stats=result.kernel_stats,
        )
