"""Assembly of complete von Neumann multiprocessor systems.

``VNMachine`` wires processors (single-context or multithreaded) to a
memory system (snoopy bus or dancehall network) and runs the simulation to
completion, reporting the measurements the experiments need: makespan,
per-processor utilization, bus/network statistics, retry traffic.
"""

from dataclasses import dataclass, field

from ..common.errors import MachineError
from ..common.simulator import Simulator
from ..faults import coerce_plan
from .assembler import assemble
from .coherence import SnoopyBusSystem
from .memory import DancehallMemorySystem
from .multithreaded import MultithreadedProcessor
from .processor import Processor

__all__ = ["VNMachine", "VNResult"]


@dataclass
class VNResult:
    """Outcome of one run."""

    time: float
    utilizations: list
    instructions: int
    counters: dict = field(default_factory=dict)

    @property
    def mean_utilization(self):
        if not self.utilizations:
            return 0.0
        return sum(self.utilizations) / len(self.utilizations)


class VNMachine:
    """A shared-memory multiprocessor built to order.

    ``memory`` selects the organization:

    * ``"bus"`` — private (optional) caches and a snoopy bus
      (:class:`SnoopyBusSystem`); pass ``cache_config=None`` for the
      uncached C.mmp configuration.
    * ``"dancehall"`` — processors and interleaved memory modules on
      opposite sides of a packet network
      (:class:`DancehallMemorySystem`); ``latency`` sets the one-way
      network latency, the Issue 1 knob.
    """

    def __init__(self, n_procs, memory="bus", cache_config=None,
                 memory_time=10.0, bus_time=2.0, latency=4.0, n_modules=None,
                 network_factory=None, cpu_time=1.0, retry_backoff=0.0,
                 contexts=None, switch_time=0.0, placement="interleaved",
                 block_size=1024, write_policy="write_back", trace_bus=None,
                 faults=None):
        self.sim = Simulator()
        self.bus = trace_bus
        if trace_bus is not None:
            self.sim.attach_bus(trace_bus)
        self.n_procs = n_procs
        self.cpu_time = cpu_time
        self.retry_backoff = retry_backoff
        self.contexts_per_proc = contexts
        self.switch_time = switch_time
        if memory == "bus":
            self.memory = SnoopyBusSystem(
                self.sim, n_procs, cache_config=cache_config,
                memory_time=memory_time, bus_time=bus_time,
                write_policy=write_policy,
            )
        elif memory == "dancehall":
            self.memory = DancehallMemorySystem(
                self.sim, n_procs, n_modules=n_modules,
                memory_time=memory_time, network_factory=network_factory,
                latency=latency, placement=placement, block_size=block_size,
            )
        else:
            raise MachineError(f"unknown memory organization {memory!r}")
        if trace_bus is not None:
            network = getattr(self.memory, "network", None)
            attach = getattr(network, "attach_bus", None)
            if attach is not None:
                attach(trace_bus, source="net")
        # Fault injection: one shared injector threaded into the memory
        # modules (slow banks / transient failures — the processors' RETRY
        # path recovers) and the interconnect (latency spikes).
        plan = coerce_plan(faults)
        self.faults = (
            plan.injector(bus=trace_bus)
            if plan is not None and plan.enabled else None
        )
        if self.faults is not None:
            network = getattr(self.memory, "network", None)
            if network is not None and hasattr(network, "faults"):
                network.faults = self.faults
            for module in getattr(self.memory, "modules", ()):
                module.faults = self.faults
        self.processors = []
        self._halted = 0

    # ------------------------------------------------------------------
    def add_processor(self, source, regs=None):
        """Add a single-context processor running ``source`` (assembly
        text or a pre-assembled instruction list)."""
        program = assemble(source) if isinstance(source, str) else source
        proc = Processor(
            self.sim, len(self.processors), program, self.memory,
            cpu_time=self.cpu_time, retry_backoff=self.retry_backoff,
            on_halt=self._on_halt,
        )
        if regs:
            proc.set_regs(regs)
        proc.bus = self.bus
        self.memory.attach_processor(proc.proc_id)
        self.processors.append(proc)
        return proc

    def add_multithreaded_processor(self, sources_and_regs):
        """Add a multithreaded processor; ``sources_and_regs`` is a list of
        (source, regs) pairs, one per hardware context."""
        proc = MultithreadedProcessor(
            self.sim, len(self.processors), self.memory,
            cpu_time=self.cpu_time, switch_time=self.switch_time,
            retry_backoff=self.retry_backoff, on_halt=self._on_halt,
        )
        for source, regs in sources_and_regs:
            program = assemble(source) if isinstance(source, str) else source
            proc.add_context(program, regs=regs)
        proc.bus = self.bus
        self.memory.attach_processor(proc.proc_id)
        self.processors.append(proc)
        return proc

    def load_spmd(self, source, regs_of=None):
        """One copy of ``source`` per processor.  ``regs_of(pid)`` supplies
        initial registers (default: r1 = processor id)."""
        program = assemble(source) if isinstance(source, str) else source
        for pid in range(self.n_procs):
            regs = regs_of(pid) if regs_of is not None else {1: pid}
            self.add_processor(list(program), regs=regs)
        return self

    def _on_halt(self, proc):
        self._halted += 1

    # ------------------------------------------------------------------
    def run(self, max_events=None):
        if not self.processors:
            raise MachineError("no processors loaded")
        for proc in self.processors:
            proc.start()
        self.sim.run(max_events=max_events)
        if self._halted < len(self.processors):
            stuck = [p.proc_id for p in self.processors
                     if getattr(p, "halted", False) is False
                     and getattr(p, "finish_time", None) is None]
            raise MachineError(
                f"machine quiesced with processors still running: {stuck} "
                "(lost memory response or livelocked spin loop?)"
            )
        end = max(p.finish_time for p in self.processors)
        return VNResult(
            time=end,
            utilizations=[p.utilization(now=end) for p in self.processors],
            instructions=sum(
                p.counters["instructions"] for p in self.processors
            ),
            counters=self._merged_counters(),
        )

    def metrics_registry(self):
        """Every instrument of this multiprocessor under hierarchical
        names (``proc0.instructions``, ``memory.*``, ``net.latency``)."""
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.register("sim.events_fired", lambda: self.sim.events_fired)
        registry.register("sim.time", lambda: self.sim.now)
        for proc in self.processors:
            prefix = f"proc{proc.proc_id}"
            registry.register(prefix, proc.counters)
            registry.register(f"{prefix}.busy_cycles",
                              lambda p=proc: p.busy_cycles)
            registry.register(f"{prefix}.utilization",
                              lambda p=proc: p.utilization())
        memory_counters = getattr(self.memory, "counters", None)
        if memory_counters is not None:
            registry.register("memory", memory_counters)
        network = getattr(self.memory, "network", None)
        register_net = getattr(network, "register_metrics", None)
        if register_net is not None:
            register_net(registry, prefix="net")
        return registry

    def metrics_snapshot(self):
        """One flat dict of every metric at the current simulated time."""
        return self.metrics_registry().snapshot(now=self.sim.now)

    def _merged_counters(self):
        merged = {}
        for proc in self.processors:
            for key, value in proc.counters.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        memory_counters = getattr(self.memory, "counters", None)
        if memory_counters is not None:
            for key, value in memory_counters.as_dict().items():
                merged[f"memory_{key}"] = value
        if self.faults is not None:
            for key, value in self.faults.counters.as_dict().items():
                merged[key] = merged.get(key, 0) + value
            merged["fault_retries"] = sum(
                m.counters["fault_retries"]
                for m in getattr(self.memory, "modules", ())
            )
        return merged

    # ------------------------------------------------------------------
    def peek(self, address):
        return self.memory.peek(address)

    def poke(self, address, value, full=False):
        self.memory.poke(address, value, full=full)
