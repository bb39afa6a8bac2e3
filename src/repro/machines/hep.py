"""The Denelcor HEP (footnote 2, ref [18]): a pipelined, shared-resource
MIMD computer.

The paper's two observations about the HEP, both measurable here:

* it pioneered exactly the low-level context switching §1.1 discusses —
  a barrel pipeline multiplexing many register contexts, hiding memory
  latency while ready contexts remain (Smith, 1978);
* its full/empty-bit synchronization has "no such thing as a deferred
  read list.  Unsatisfiable requests result in a busy-waiting condition"
  — the memory-traffic cost I-structures were designed to remove.

:class:`HepModel` is the registry entry point.  Its ``compute_loop``
workload reproduces the machine's characteristic curve (throughput rising
with context count until the pipeline saturates); ``producer_consumer``
measures the busy-wait traffic of full/empty synchronization.
"""

from ..analysis.report import Table
from ..vonneumann import VNMachine, programs
from .api import SimResult
from .registry import register

__all__ = ["HepModel"]


def _build_hep(contexts=8, latency=8.0, memory_time=1.0, retry_backoff=4.0,
               source=None, regs_of=None, faults=None):
    """One barrel processor with ``contexts`` register sets.

    ``source`` (default: a load/compute kernel) is loaded into every
    context; ``regs_of(index)`` supplies per-context registers.
    """
    machine = VNMachine(1, memory="dancehall", latency=latency,
                        memory_time=memory_time,
                        retry_backoff=retry_backoff, faults=faults)
    if source is None:
        source = programs.compute_loop(16, loads_per_iter=1,
                                       alu_ops_per_iter=2)
    machine.add_multithreaded_processor(
        [
            (source, regs_of(index) if regs_of else {})
            for index in range(contexts)
        ]
    )
    return machine


def _producer_consumer(n, producer_work, retry_backoff, faults=None):
    """Busy-wait traffic of HEP-style full/empty synchronization.

    Two contexts on one barrel processor share an array: the producer
    WRITEFs each element after ``producer_work`` filler operations; the
    consumer READFs each element and busy-waits when it runs ahead.
    Returns (result, retries, memory_requests_per_element).
    """
    machine = VNMachine(1, memory="dancehall", latency=2, memory_time=1,
                        retry_backoff=retry_backoff, faults=faults)
    machine.add_multithreaded_processor(
        [
            (programs.producer_per_element(100, n,
                                           work_per_element=producer_work),
             {}),
            (programs.consumer_per_element(100, n, 99, work_per_element=0),
             {}),
        ]
    )
    result = machine.run()
    retries = result.counters.get("retries", 0)
    requests = machine.memory.counters["accesses"]
    assert machine.peek(99) == sum(k * k for k in range(n))
    return result, retries, requests / n, machine


@register("hep")
class HepModel:
    """Registry model: one HEP barrel processor over full/empty memory."""

    def __init__(self, contexts=8, latency=8.0, memory_time=1.0,
                 retry_backoff=4.0, faults=None):
        from ..faults import coerce_plan

        plan = coerce_plan(faults)
        self.config = {
            "contexts": contexts,
            "latency": latency,
            "memory_time": memory_time,
            "retry_backoff": retry_backoff,
        }
        # Only echoed (and only passed down) when set, so default configs
        # and every existing baseline row stay byte-identical.
        if plan is not None:
            self.config["faults"] = plan.as_dict()

    def build(self, source=None, regs_of=None):
        """The underlying :class:`VNMachine`, contexts loaded."""
        return _build_hep(source=source, regs_of=regs_of, **self.config)

    def run(self, workload="compute_loop", iterations=16, loads_per_iter=1,
            alu_ops_per_iter=2, n=16, producer_work=24):
        from ..obs.analysis import vn_accounting

        config = self.config
        if workload == "compute_loop":
            source = programs.compute_loop(iterations,
                                           loads_per_iter=loads_per_iter,
                                           alu_ops_per_iter=alu_ops_per_iter)
            machine = self.build(source=source)
            result = machine.run()
            processor = machine.processors[0]
            metrics = {
                "contexts": config["contexts"],
                "utilization": processor.utilization(),
                "instructions": result.instructions,
                "time": result.time,
                "ipc": (result.instructions / result.time
                        if result.time else 0.0),
            }
            spec = {"workload": workload, "iterations": iterations,
                    "loads_per_iter": loads_per_iter,
                    "alu_ops_per_iter": alu_ops_per_iter}
        elif workload == "producer_consumer":
            result, retries, per_element, machine = _producer_consumer(
                n, producer_work, config["retry_backoff"],
                faults=config.get("faults"))
            metrics = {
                "time": result.time,
                "instructions": result.instructions,
                "retries": retries,
                "requests_per_element": per_element,
            }
            spec = {"workload": workload, "n": n,
                    "producer_work": producer_work}
        else:
            raise ValueError(f"unknown hep workload {workload!r} "
                             "(compute_loop, producer_consumer)")
        accounting = vn_accounting(machine, result, name=self.name)
        return SimResult(machine=self.name, config=dict(config),
                         workload=spec, metrics=metrics,
                         accounting=accounting.as_dict(),
                         kernel_stats=machine.sim.kernel_stats())

