"""Memory modules and the dancehall memory system.

A :class:`MemoryModule` is a FIFO-served word-addressed store that also
implements the atomic read-modify-write operations (TEST-AND-SET,
FETCH-AND-ADD) and HEP-style full/empty bits.  Per footnote 2 of the
paper, an unsatisfiable full/empty request does *not* join a deferred
list — "there is no such thing as a deferred read list" — it is bounced
back to the processor as :data:`RETRY`, producing the busy-waiting traffic
experiment E6 measures.

:class:`DancehallMemorySystem` places all processors on one side of a
packet network and all memory modules on the other (the Figure 1-1
organization), which makes memory latency a directly controllable
parameter — the independent variable of Issue 1.
"""

from dataclasses import dataclass
from typing import Optional

from ..common.errors import MachineError
from ..common.queueing import FifoServer
from ..common.stats import SlotCounter
from ..network.ideal import IdealNetwork
from .isa import Op

__all__ = ["MemRequest", "MemoryModule", "DancehallMemorySystem", "RETRY"]

#: Response meaning "condition not met, try again" (full/empty busy-wait).
RETRY = object()

_LOAD, _STORE, _TESTSET, _FAA, _READF, _WRITEF = (
    Op.LOAD, Op.STORE, Op.TESTSET, Op.FAA, Op.READF, Op.WRITEF)


@dataclass
class MemRequest:
    """One memory operation in flight."""

    op: Op
    address: int
    value: Optional[object] = None
    proc: Optional[int] = None
    #: Injected transient failures this request has survived (fault
    #: injection only; legitimate full/empty RETRYs are not counted).
    fault_retries: int = 0


class MemoryModule:
    """One word-addressed memory bank with atomic ops and full/empty bits."""

    def __init__(self, sim, service_time=1.0, name="mem"):
        self.sim = sim
        self.name = name
        self.server = FifoServer(sim, service_time, name=name)
        self.data = {}
        self.full_bits = set()
        # Per-op counts live in slots; ``counters`` reads them under the
        # ops' mnemonics, next to the rare counts recorded by ``add``.
        self._loads = 0
        self._stores = 0
        self._testsets = 0
        self._faas = 0
        self._readfs = 0
        self._writefs = 0
        self.counters = SlotCounter(self._hot_counts)
        #: Optional :class:`repro.faults.FaultInjector`; None keeps the
        #: serve path at one attribute check.
        self.faults = None

    def _hot_counts(self):
        return {"load": self._loads, "store": self._stores,
                "testset": self._testsets, "faa": self._faas,
                "readf": self._readfs, "writef": self._writefs}

    def submit(self, request, on_done):
        """Serve ``request``; call ``on_done(response)`` when finished."""
        self.server.submit((request, on_done), self._serve)

    def _serve(self, work):
        request, on_done = work
        faults = self.faults
        if faults is not None:
            verdict = faults.memory_fault(self.sim, self.name,
                                          retries=request.fault_retries)
            if verdict is not None:
                kind, cycles = verdict
                if kind == "fail":
                    # Transient failure: the operation is NOT applied
                    # (safe for the non-idempotent atomics) and the
                    # processor's existing RETRY machinery — footnote
                    # 2's busy-wait path — re-issues it after backoff.
                    request.fault_retries += 1
                    self.counters.add("fault_retries")
                    on_done(RETRY)
                    return
                # Slow bank: the op applies in FIFO order now, but the
                # response reaches the requester ``cycles`` late.
                self.counters.add("fault_slow")
                self.sim.post(cycles, on_done, self.apply(request))
                return
        on_done(self.apply(request))

    def apply(self, request):
        """The untimed semantics of one operation (shared with the bus
        system, which does its own timing)."""
        op, address = request.op, request.address
        if op is _LOAD:
            self._loads += 1
            return self.data.get(address, 0)
        if op is _STORE:
            self._stores += 1
            self.data[address] = request.value
            return None
        if op is _TESTSET:
            self._testsets += 1
            old = self.data.get(address, 0)
            self.data[address] = 1
            return old
        if op is _FAA:
            self._faas += 1
            old = self.data.get(address, 0)
            self.data[address] = old + request.value
            return old
        if op is _READF:
            self._readfs += 1
            if address in self.full_bits:
                return self.data.get(address, 0)
            self.counters.add("readf_retries")
            return RETRY
        if op is _WRITEF:
            self._writefs += 1
            if address in self.full_bits:
                self.counters.add("writef_overwrites")
            self.data[address] = request.value
            self.full_bits.add(address)
            return None
        raise MachineError(f"{self.name}: not a memory op: {op}")

    def poke(self, address, value, full=False):
        """Preload a memory word (test/workload setup)."""
        self.data[address] = value
        if full:
            self.full_bits.add(address)

    def peek(self, address):
        return self.data.get(address, 0)


class DancehallMemorySystem:
    """Processors and memory modules on opposite sides of a network.

    Ports 0..n_procs-1 are processors; ports n_procs.. are modules.
    Addresses interleave across modules word by word.
    """

    def __init__(self, sim, n_procs, n_modules=None, memory_time=1.0,
                 network_factory=None, latency=1.0, placement="interleaved",
                 block_size=1024):
        self.sim = sim
        self.n_procs = n_procs
        self.n_modules = n_modules if n_modules is not None else n_procs
        if placement not in ("interleaved", "blocked"):
            raise MachineError(f"unknown placement {placement!r}")
        self.placement = placement
        self.block_size = block_size
        n_ports = n_procs + self.n_modules
        if network_factory is not None:
            self.network = network_factory(sim, n_ports)
        else:
            self.network = IdealNetwork(sim, n_ports, latency=latency)
        self.modules = [
            MemoryModule(sim, memory_time, name=f"mem{i}")
            for i in range(self.n_modules)
        ]
        for index in range(self.n_modules):
            port = n_procs + index
            self.network.attach(port, self._module_arrival)
        self._accesses = 0
        self.counters = SlotCounter(
            lambda: {"accesses": self._accesses})

    # ------------------------------------------------------------------
    def module_of(self, address):
        if self.placement == "blocked":
            return (address // self.block_size) % self.n_modules
        return address % self.n_modules

    def module_port(self, address):
        return self.n_procs + self.module_of(address)

    def attach_processor(self, proc):
        """Register processor ``proc`` (its port number is its id)."""
        self.network.attach(proc, self._proc_arrival)

    def access(self, proc, request, on_complete):
        """Issue ``request`` from processor ``proc``."""
        self._accesses += 1
        self.network.send(
            proc, self.module_port(request.address), ("req", request, on_complete)
        )

    # ------------------------------------------------------------------
    def _module_arrival(self, packet):
        kind, request, on_complete = packet.payload
        module = self.modules[packet.dst - self.n_procs]
        module.submit(
            request,
            lambda response: self.network.send(
                packet.dst, request.proc, ("resp", response, on_complete)
            ),
        )

    def _proc_arrival(self, packet):
        kind, response, on_complete = packet.payload
        on_complete(response)

    # ------------------------------------------------------------------
    def peek(self, address):
        return self.modules[self.module_of(address)].peek(address)

    def poke(self, address, value, full=False):
        self.modules[self.module_of(address)].poke(address, value, full=full)

    def total_retries(self):
        return sum(m.counters["readf_retries"] for m in self.modules)
