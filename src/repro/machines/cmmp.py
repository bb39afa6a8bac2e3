"""C.mmp (§1.2.1): PDP-11s into one global memory through a crossbar.

Two of the paper's observations about C.mmp are made measurable here:

* the crossbar's cost "grows at least quadratically" while its latency is
  held flat — the ``array_sum`` workload of :class:`CmmpModel`;
* Hydra's semaphore synchronization costs far more than an ALU operation
  — the ``semaphore`` workload, which measures cycles per critical
  section against the one-cycle ALU baseline.

The machine itself is a :class:`~repro.vonneumann.machine.VNMachine` in
the dancehall organization with a :class:`CrossbarNetwork`, uncached (as
C.mmp effectively was: "only one processor in the machine was ever fitted
with [a cache] ... the reason is, quite simply, the cache coherence
problem").

:class:`CmmpModel` is the registry entry point.
"""

from ..network.crossbar import CrossbarNetwork
from ..vonneumann.machine import VNMachine
from ..vonneumann import programs
from .api import SimResult
from .registry import register

__all__ = ["CmmpModel"]


def _build_cmmp(n_procs=16, memory_time=3.0, switch_latency=1.0,
                port_service_time=1.0, faults=None):
    """A C.mmp-shaped machine: n processors x n memory ports, crossbar."""

    def network_factory(sim, n_ports):
        return CrossbarNetwork(
            sim, n_ports, switch_latency=switch_latency,
            port_service_time=port_service_time, name="cmmp.xbar",
        )

    return VNMachine(
        n_procs, memory="dancehall", n_modules=n_procs,
        memory_time=memory_time, network_factory=network_factory,
        faults=faults,
    )


@register("cmmp")
class CmmpModel:
    """Registry model: the crossbar machine plus its two workloads."""

    def __init__(self, n_procs=16, memory_time=3.0, switch_latency=1.0,
                 port_service_time=1.0, faults=None):
        from ..faults import coerce_plan

        plan = coerce_plan(faults)
        self.config = {
            "n_procs": n_procs,
            "memory_time": memory_time,
            "switch_latency": switch_latency,
            "port_service_time": port_service_time,
        }
        # Only echoed (and only passed down) when set, so default configs
        # and every existing baseline row stay byte-identical.
        if plan is not None:
            self.config["faults"] = plan.as_dict()

    def build(self):
        """The underlying (empty) :class:`VNMachine`."""
        return _build_cmmp(**self.config)

    # ------------------------------------------------------------------
    def _run_array_sum(self, iterations):
        """Conflict-light disjoint sums: latency and utilization under a
        uniform load, plus the quadratic crosspoint cost."""
        n = self.config["n_procs"]
        machine = self.build()
        for pid in range(n):
            base = 1000 + pid  # interleaved: stride-n addresses per proc
            source = programs.array_sum(base, iterations)
            machine.add_processor(source, regs={1: pid})
        result = machine.run()
        network = machine.memory.network
        metrics = {
            "n_procs": n,
            "crosspoints": CrossbarNetwork.crosspoint_count(n),
            "mean_latency": network.mean_latency(),
            "mean_utilization": result.mean_utilization,
            "time": result.time,
        }
        return metrics, machine, result

    def _run_semaphore(self, increments):
        """Cycles per lock-protected critical section vs the ALU op."""
        n = self.config["n_procs"]
        machine = self.build()
        machine.load_spmd(programs.shared_counter_spinlock(0, 1, increments))
        result = machine.run()
        sections = n * increments
        cycles_per_section = result.time / sections
        alu_cycles = machine.cpu_time
        metrics = {
            "n_procs": n,
            "cycles_per_section": cycles_per_section,
            "alu_cycles": alu_cycles,
            "ratio": cycles_per_section / alu_cycles,
        }
        return metrics, machine, result

    def run(self, workload="array_sum", iterations=40, increments=16):
        from ..obs.analysis import vn_accounting

        if workload == "array_sum":
            metrics, machine, result = self._run_array_sum(iterations)
            spec = {"workload": workload, "iterations": iterations}
        elif workload == "semaphore":
            metrics, machine, result = self._run_semaphore(increments)
            spec = {"workload": workload, "increments": increments}
        else:
            raise ValueError(f"unknown cmmp workload {workload!r} "
                             "(array_sum, semaphore)")
        accounting = vn_accounting(machine, result, name=self.name)
        return SimResult(machine=self.name, config=dict(self.config),
                         workload=spec, metrics=metrics,
                         accounting=accounting.as_dict(),
                         kernel_stats=machine.sim.kernel_stats())

