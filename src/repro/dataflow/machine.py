"""The multi-PE Tagged-Token Dataflow Machine (Fig 2-3).

``TaggedTokenMachine`` assembles N processing elements around a packet
network, loads a compiled program, injects the argument tokens and the
halt continuation, runs the event kernel to quiescence, and reports both
the answer and the measurements (per-unit utilizations, matching-store
occupancy, network latency, I-structure behaviour).

Termination follows the paper's definition — "a program is said to
terminate when no enabled instructions are left" (§2.2.2) — which in the
simulation is quiescence of the event queue.  Quiescing *without* having
produced a result is reported as deadlock, with the outstanding deferred
reads and unmatched tokens listed.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..common.errors import DeadlockError, MachineError
from ..common.simulator import Simulator
from ..common.stats import SlotCounter
from ..istructure.heap import StructureRef
from ..network.ideal import IdealNetwork
from ..faults import coerce_plan
from ..obs import MetricsRegistry, TraceBus
from .mapping import HashMapping
from .pe import DecodedInstruction, ProcessingElement
from .tags import Tag
from .trace import TraceLog
from .token import Token, TokenKind
from .values import Continuation

__all__ = ["MachineConfig", "TaggedTokenMachine", "MachineResult"]


@dataclass
class MachineConfig:
    """Service times (cycles) and structural knobs of the machine."""

    n_pes: int = 4
    wm_time: float = 1.0  # waiting-matching probe
    #: Capacity of the waiting-matching associative memory, in tokens.
    #: None = unbounded (the paper's idealization).  When the store is
    #: over capacity, every probe pays ``wm_overflow_penalty`` extra
    #: cycles, modelling the overflow-to-backing-store mechanism a real
    #: finite associative memory needs.
    wm_capacity: int = None
    wm_overflow_penalty: float = 8.0
    fetch_time: float = 1.0  # instruction fetch
    alu_time: float = 1.0  # ALU operation
    output_time: float = 1.0  # output section, per produced token
    controller_time: float = 1.0  # PE controller service (allocation)
    is_read_time: float = 1.0  # I-structure read (as a normal memory)
    is_write_time: float = 2.0  # write: 2x, presence-bit prefetch (§2.1)
    local_loopback: bool = True  # PE-local tokens bypass the network
    trace: bool = False  # record a TraceLog of machine events
    #: A repro.obs.TraceBus to publish structured events to (JSONL or
    #: Chrome-trace sinks, say).  Independent of ``trace``: with both
    #: set, the TraceLog ring joins the same bus.
    trace_bus: Optional[TraceBus] = None
    network_factory: Optional[Callable] = None  # (sim, n_ports) -> Network
    mapping_factory: Optional[Callable] = None  # (n_pes) -> mapping policy
    network_latency: float = 4.0  # used by the default IdealNetwork
    #: A repro.faults.FaultPlan (or dict / JSON path); None (default)
    #: keeps every hot path at a single attribute check.
    fault_plan: object = None

    def make_network(self, sim):
        if self.network_factory is not None:
            return self.network_factory(sim, self.n_pes)
        return IdealNetwork(sim, self.n_pes, latency=self.network_latency)

    def make_mapping(self):
        if self.mapping_factory is not None:
            return self.mapping_factory(self.n_pes)
        return HashMapping(self.n_pes)


@dataclass
class MachineResult:
    """Everything a run produces."""

    value: object
    time: float  # cycle at which RETURN consumed the halt continuation
    drain_time: float  # cycle at which the machine fully quiesced
    instructions: int
    alu_utilizations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def mean_alu_utilization(self):
        if not self.alu_utilizations:
            return 0.0
        return sum(self.alu_utilizations) / len(self.alu_utilizations)

    @property
    def mips_per_pe(self):
        """Instructions per cycle per PE (the ALU-utilization figure of
        merit of §1.2, in instruction terms)."""
        if self.time <= 0 or not self.alu_utilizations:
            return 0.0
        return self.instructions / self.time / len(self.alu_utilizations)


class TaggedTokenMachine:
    """N processing elements + network + distributed I-structure storage."""

    def __init__(self, program, config=None):
        self.program = program
        self.config = config if config is not None else MachineConfig()
        self.sim = Simulator()
        self.n_pes = self.config.n_pes
        if self.n_pes < 1:
            raise MachineError("machine needs at least one PE")
        self.mapping = self.config.make_mapping()
        self.network = self.config.make_network(self.sim)
        if self.network.n_ports < self.n_pes:
            raise MachineError(
                f"network has {self.network.n_ports} ports but machine "
                f"has {self.n_pes} PEs"
            )
        bus = self.config.trace_bus
        if bus is None and self.config.trace:
            bus = TraceBus()
        self._bus = bus
        # Causal provenance: only link events into a DAG when the bus was
        # built with provenance=True (the ``repro profile`` path).
        self._provenance = bus is not None and bus.provenance
        self.trace = TraceLog(bus=bus) if self.config.trace else None
        if bus is not None:
            self.sim.attach_bus(bus)
            attach = getattr(self.network, "attach_bus", None)
            if attach is not None:
                attach(bus, source="net")
        # Fault injection: one shared injector per machine instance (PE
        # stalls/crashes, I-structure bank faults, network spikes), built
        # before the PEs so they can capture the reference.
        plan = coerce_plan(self.config.fault_plan)
        self.faults = (
            plan.injector(bus=bus) if plan is not None and plan.enabled
            else None
        )
        if self.faults is not None:
            self.network.faults = self.faults
        # (code_block, statement) -> DecodedInstruction, shared by every PE
        # and the injection path.  The program is frozen once the machine
        # runs, so the memoization is safe for the machine's lifetime.
        self._instr_cache = {}
        self.pes = [ProcessingElement(self, i, self.config) for i in range(self.n_pes)]
        for pe in self.pes:
            self.network.attach(pe.pe, self._network_delivery)
        # Hot counts, bumped by each PE's output section (PE._route);
        # structures_allocated goes through counters.add.
        self._local = 0
        self._network = 0
        self.counters = SlotCounter(self._hot_counts)
        self._next_sid = 0
        self._result = None
        self._result_time = None
        self._finished = False
        self._started = False

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run(self, *args, max_events=None):
        """Invoke the entry procedure on ``args``; returns MachineResult.

        A machine instance is single-use: its clocks, stores and counters
        describe exactly one invocation.
        """
        if self._started:
            raise MachineError(
                "TaggedTokenMachine instances are single-use; create a new one"
            )
        self._started = True
        entry = self.program.entry_block()
        if len(args) != entry.num_params:
            raise MachineError(
                f"entry block {entry.name!r} takes {entry.num_params} "
                f"arguments, got {len(args)}"
            )
        for index, arg in enumerate(args):
            for dest in entry.param_targets[index]:
                tag = Tag(None, entry.name, dest.statement, 1)
                self._inject(tag, dest.port, arg)
        halt_tag = Tag(None, entry.name, entry.return_statement, 1)
        self._inject(halt_tag, 1, Continuation.HALT)

        self.sim.run(max_events=max_events)
        if not self._finished:
            raise DeadlockError(
                "machine quiesced without a result; "
                f"{self.pending_reads()} deferred read(s), "
                f"{self.unmatched_tokens()} unmatched token(s)",
                pending=[
                    tag for pe in self.pes for tag in pe._match_store
                ][:16],
            )
        merged = self.counters.as_dict()
        for pe in self.pes:
            for key, value in pe.counters.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        if self.faults is not None:
            for key, value in self.faults.counters.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        return MachineResult(
            value=self._result,
            time=self._result_time,
            drain_time=self.sim.now,
            instructions=self.instructions_executed(),
            alu_utilizations=[
                pe.alu_utilization(until=self._result_time) for pe in self.pes
            ],
            counters=merged,
        )

    def _hot_counts(self):
        return {"tokens_local": self._local, "tokens_network": self._network}

    def _decoded(self, code_block, statement):
        """The :class:`DecodedInstruction` for one statement, built on
        first use."""
        key = (code_block, statement)
        entry = self._instr_cache.get(key)
        if entry is None:
            entry = self._instr_cache[key] = DecodedInstruction(
                self.program.instruction(code_block, statement)
            )
        return entry

    def _inject(self, tag, port, value):
        entry = self._decoded(tag.code_block, tag.statement)
        pe = self.mapping.pe_of(tag)
        token = Token(tag, port, value, TokenKind.NORMAL, nt=entry.nt, pe=pe)
        self.sim.post(0, self.pes[pe].receive, token)

    def _trace_event(self, pe, kind, detail, **fields):
        # Call sites guard on ``self._bus is not None and bus.enabled``
        # before building detail strings, so a machine without (active)
        # observability pays only that check.  Returns the event's eid in
        # provenance mode (None otherwise) so emitters can thread causes.
        bus = self._bus
        if bus is not None:
            return bus.emit_id(self.sim.now, pe, kind, detail, **fields)
        return None

    def _program_result(self, value, cause=None):
        if self._finished:
            raise MachineError("program returned more than once")
        self._result = value
        self._result_time = self.sim.now
        self._finished = True
        bus = self._bus
        if bus is not None and bus.enabled:
            self._trace_event("-", "result", repr(value), parent=cause)

    # ------------------------------------------------------------------
    # Interconnect (a PE's output section routes; see PE._route)
    # ------------------------------------------------------------------
    def _network_delivery(self, packet):
        token = packet.payload
        if self._provenance and packet.cause is not None:
            # The delivered token's history now runs through the network
            # events (net_inject -> net_deliver) the packet accumulated.
            object.__setattr__(token, "cause", packet.cause)
        self.pes[packet.dst].receive(token)

    # ------------------------------------------------------------------
    # Distributed structure allocation: PE-local id generators that can
    # never collide (PE k hands out sids congruent to k mod n_pes).
    # ------------------------------------------------------------------
    def allocate_structure(self, size, on_pe=0):
        sid = self._next_sid * self.n_pes + on_pe
        self._next_sid += 1
        self.counters.add("structures_allocated")
        return StructureRef(sid=sid, size=size)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def metrics_registry(self):
        """Every instrument of this machine under hierarchical names
        (``pe0.alu.busy``, ``net.latency.mean``, ...).  Built on demand
        from live references — costs nothing until ``snapshot()``."""
        registry = MetricsRegistry()
        registry.register("machine", self.counters)
        registry.register("sim.events_fired", lambda: self.sim.events_fired)
        registry.register("sim.time", lambda: self.sim.now)
        for pe in self.pes:
            prefix = f"pe{pe.pe}"
            registry.register(prefix, pe.counters)
            registry.register(f"{prefix}.wm", pe.waiting_matching)
            registry.register(f"{prefix}.fetch", pe.fetch)
            registry.register(f"{prefix}.alu", pe.alu)
            registry.register(f"{prefix}.out", pe.output)
            registry.register(f"{prefix}.ctrl", pe.controller)
            registry.register(f"{prefix}.match_occupancy", pe.match_occupancy)
            registry.register(f"{prefix}.isc", pe.istructure.counters)
            registry.register(f"{prefix}.isc.queue", pe.istructure.queue_depth)
            registry.register(f"{prefix}.isc.unit", pe.istructure.utilization)
        register_net = getattr(self.network, "register_metrics", None)
        if register_net is not None:
            register_net(registry, prefix="net")
        return registry

    def metrics_snapshot(self):
        """One flat dict of every metric at the current simulated time."""
        return self.metrics_registry().snapshot(now=self.sim.now)

    def instructions_executed(self):
        return sum(pe.instructions for pe in self.pes)

    def pending_reads(self):
        return sum(pe.istructure.pending_reads for pe in self.pes)

    def unmatched_tokens(self):
        return sum(pe._waiting_tokens() for pe in self.pes)

    def matching_store_occupancy(self):
        """Mean and peak waiting-token count across PEs (for E12)."""
        end = self.sim.now
        means = [pe.match_occupancy.mean(end_time=end) for pe in self.pes]
        peaks = [pe.match_occupancy.max for pe in self.pes]
        return sum(means), max(peaks) if peaks else 0

    def __repr__(self):
        return (
            f"<TaggedTokenMachine pes={self.n_pes} t={self.sim.now} "
            f"instructions={self.instructions_executed()}>"
        )
