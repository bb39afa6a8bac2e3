"""The in-order von Neumann processor.

The defining property (and the paper's complaint): a memory reference
*stalls* the processor until the response arrives.  "Any processor making
a nonlocal memory reference would idle until the reference was completed"
(§1.2.2, of Cm*); the same sequential control — "the most troublesome
aspect of von Neumann architecture ... the program counter" (§2.2) —
means at most one memory request is ever outstanding.

Full/empty RETRY responses are re-issued after ``retry_backoff`` cycles,
modelling the busy-waiting loop of footnote 2.

A program is decoded once, when its processor (or hardware context) is
built: :func:`decode` gives one ``(kind, handler, instr)`` entry per
statement, so each dynamic instruction costs a tuple unpack, an integer
compare and at most one handler call.
"""

from ..common.errors import MachineError
from ..common.stats import SlotCounter
from .isa import MEMORY_OPS, Op
from .memory import MemRequest, RETRY

__all__ = ["Processor", "decode", "memory_request", "ALU_HANDLERS",
           "BRANCH_HANDLERS", "ALU", "BRANCH", "MEMORY", "HALT", "INVALID"]

#: Kinds of decoded entry (see :func:`decode`).
ALU, BRANCH, MEMORY, HALT, INVALID = range(5)


def _div(regs, instr, proc_id):
    a, b = regs[instr.ra], regs[instr.rb]
    if b == 0:
        raise MachineError(f"proc {proc_id}: division by zero")
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


#: ``handler(regs, instr, proc_id)`` -> the value written to ``rd``.
ALU_HANDLERS = {
    Op.MOVI: lambda regs, instr, proc_id: instr.imm,
    Op.MOV: lambda regs, instr, proc_id: regs[instr.ra],
    Op.NOP: lambda regs, instr, proc_id: (
        regs[instr.rd] if instr.rd is not None else 0),
    Op.ADDI: lambda regs, instr, proc_id: regs[instr.ra] + instr.imm,
    Op.SUBI: lambda regs, instr, proc_id: regs[instr.ra] - instr.imm,
    Op.MULI: lambda regs, instr, proc_id: regs[instr.ra] * instr.imm,
    Op.ADD: lambda regs, instr, proc_id: regs[instr.ra] + regs[instr.rb],
    Op.SUB: lambda regs, instr, proc_id: regs[instr.ra] - regs[instr.rb],
    Op.MUL: lambda regs, instr, proc_id: regs[instr.ra] * regs[instr.rb],
    Op.DIV: _div,
    Op.MOD: lambda regs, instr, proc_id: regs[instr.ra] % regs[instr.rb],
    Op.AND: lambda regs, instr, proc_id: regs[instr.ra] & regs[instr.rb],
    Op.OR: lambda regs, instr, proc_id: regs[instr.ra] | regs[instr.rb],
    Op.XOR: lambda regs, instr, proc_id: regs[instr.ra] ^ regs[instr.rb],
    Op.SLT: lambda regs, instr, proc_id: int(regs[instr.ra] < regs[instr.rb]),
    Op.SLE: lambda regs, instr, proc_id: int(regs[instr.ra] <= regs[instr.rb]),
    Op.SEQ: lambda regs, instr, proc_id: int(regs[instr.ra] == regs[instr.rb]),
    Op.SNE: lambda regs, instr, proc_id: int(regs[instr.ra] != regs[instr.rb]),
}

#: ``handler(regs, instr)`` -> whether the branch is taken.
BRANCH_HANDLERS = {
    Op.JMP: lambda regs, instr: True,
    Op.BEQZ: lambda regs, instr: regs[instr.ra] == 0,
    Op.BNEZ: lambda regs, instr: regs[instr.ra] != 0,
    Op.BLT: lambda regs, instr: regs[instr.ra] < regs[instr.rb],
    Op.BGE: lambda regs, instr: regs[instr.ra] >= regs[instr.rb],
    Op.BEQ: lambda regs, instr: regs[instr.ra] == regs[instr.rb],
    Op.BNE: lambda regs, instr: regs[instr.ra] != regs[instr.rb],
}

#: Memory operations whose response is written to ``rd``.
_WRITES_RD = frozenset({Op.LOAD, Op.TESTSET, Op.FAA, Op.READF})

#: (kind, handler) per op, keyed by the op's name so that decoding runs
#: no Python-level ``Enum.__hash__``.
_DECODE = {op._name_: (ALU, handler) for op, handler in ALU_HANDLERS.items()}
_DECODE.update(
    (op._name_, (BRANCH, handler)) for op, handler in BRANCH_HANDLERS.items())
_DECODE.update((op._name_, (MEMORY, op in _WRITES_RD)) for op in MEMORY_OPS)
_DECODE[Op.HALT._name_] = (HALT, None)

_FAA, _STORE, _WRITEF = Op.FAA, Op.STORE, Op.WRITEF


def decode(program):
    """One ``(kind, handler, instr)`` entry per statement of ``program``.

    ``kind`` is ALU, BRANCH, MEMORY, HALT or INVALID.  The handler is an
    ALU or branch handler from the tables above; for a MEMORY entry it
    is the register the response is written to, or None when the
    operation writes none (STORE, WRITEF).  An op outside every class
    decodes to INVALID and raises only if it is executed.
    """
    entries = []
    for instr in program:
        op = instr.op
        kind, handler = _DECODE.get(
            op._name_ if isinstance(op, Op) else None, (INVALID, None))
        if kind == MEMORY:
            handler = instr.rd if handler else None
        entries.append((kind, handler, instr))
    return entries


def memory_request(regs, instr, proc_id):
    """The :class:`MemRequest` a memory instruction issues from ``regs``."""
    op = instr.op
    if op is _FAA:
        return MemRequest(op, regs[instr.ra], regs[instr.rb], proc_id)
    address = regs[instr.ra] + (instr.imm or 0)
    value = regs[instr.rd] if op is _STORE or op is _WRITEF else None
    return MemRequest(op, address, value, proc_id)


class Processor:
    """One single-context in-order processor."""

    def __init__(self, sim, proc_id, program, memory, cpu_time=1.0,
                 retry_backoff=0.0, n_regs=32, on_halt=None):
        self.sim = sim
        self.proc_id = proc_id
        self.program = program
        self._decoded = decode(program)
        self.memory = memory
        self.cpu_time = cpu_time
        self.retry_backoff = retry_backoff
        self.regs = [0] * n_regs
        self.pc = 0
        self.halted = False
        self.on_halt = on_halt
        self.busy_cycles = 0.0
        # Cycle accounting: plain memory round-trips (Issue 1) vs waits
        # that drew at least one full/empty RETRY (Issue 2, the busy-wait
        # loop of footnote 2).  ``halt_overcount`` corrects for HALT
        # charging ``cpu_time`` to busy_cycles in zero simulated time.
        self.stall_cycles = 0.0
        self.sync_cycles = 0.0
        self.halt_overcount = 0.0
        self.start_time = None
        self.finish_time = None
        # Hot counts live in slots; ``counters`` reads them by name.
        self._instructions = 0
        self._alu_ops = 0
        self._branches = 0
        self._memory_ops = 0
        self._retries = 0
        self.counters = SlotCounter(self._hot_counts)
        self.bus = None  # optional repro.obs.TraceBus (set by VNMachine)
        self._src = f"proc{proc_id}"  # trace track name
        # The one outstanding memory reference: its decoded entry and
        # request (a RETRY re-issues the same request).
        self._mem_entry = None
        self._mem_request = None
        self._mem_issued_at = None
        self._mem_retried = False
        self._last_eid = None  # provenance: previous event on this track

    def _hot_counts(self):
        return {"instructions": self._instructions,
                "alu_ops": self._alu_ops, "branches": self._branches,
                "memory_ops": self._memory_ops, "retries": self._retries}

    # ------------------------------------------------------------------
    def set_regs(self, values):
        """Preload registers from a {number: value} mapping."""
        for reg, value in values.items():
            self.regs[reg] = value

    def start(self, delay=0.0):
        self.start_time = self.sim.now + delay
        self.sim.post(delay, self._step)

    # ------------------------------------------------------------------
    def _step(self):
        if self.halted:
            return
        pc = self.pc
        decoded = self._decoded
        if not 0 <= pc < len(decoded):
            self._halt()
            return
        sim = self.sim
        entry = decoded[pc]
        kind, handler, instr = entry
        self._instructions += 1
        cpu_time = self.cpu_time
        self.busy_cycles += cpu_time
        bus = self.bus
        if bus is not None and bus.enabled:
            name = instr.op.name
            eid = bus.emit_id(sim._now, self._src, "vn_exec", name,
                              op=name, pc=pc, parent=self._last_eid)
            if eid is not None:
                self._last_eid = eid

        if kind == ALU:
            self._alu_ops += 1
            regs = self.regs
            value = handler(regs, instr, self.proc_id)
            rd = instr.rd
            if rd is not None:  # NOP has no destination
                regs[rd] = value
            self.pc = pc + 1
            sim.post(cpu_time, self._step)
        elif kind == BRANCH:
            self._branches += 1
            self.pc = instr.target if handler(self.regs, instr) else pc + 1
            sim.post(cpu_time, self._step)
        elif kind == MEMORY:
            self._memory_ops += 1
            self._mem_entry = entry
            self._mem_request = memory_request(self.regs, instr, self.proc_id)
            self._mem_issued_at = sim._now
            self._mem_retried = False
            sim.post(cpu_time, self._issue)
        elif kind == HALT:
            # HALT charged cpu_time to busy above but consumes no
            # simulated time; remember the overcount so accounting can
            # tile the timeline exactly.
            self.halt_overcount += cpu_time
            self._halt()
        else:
            raise MachineError(f"proc {self.proc_id}: cannot execute {instr!r}")

    def _issue(self):
        self.memory.access(self.proc_id, self._mem_request, self._memory_done)

    def _memory_done(self, response):
        bus = self.bus
        sim = self.sim
        now = sim._now
        _kind, dest, instr = self._mem_entry
        if response is RETRY:
            self._retries += 1
            self._mem_retried = True
            if bus is not None and bus.enabled:
                eid = bus.emit_id(now, self._src, "vn_retry",
                                  instr.op.name,
                                  address=self._mem_request.address,
                                  parent=self._last_eid)
                if eid is not None:
                    self._last_eid = eid
            sim.post(self.retry_backoff, self._issue)
            return
        # The wait beyond the issue slot: round-trip for a plain
        # reference (Issue 1), busy-wait if any RETRY came back (Issue 2).
        waited = now - self._mem_issued_at - self.cpu_time
        if self._mem_retried:
            self.sync_cycles += waited
        else:
            self.stall_cycles += waited
        if bus is not None and bus.enabled:
            # The stall slice: issue to response, the §1.2.2 idle time.
            eid = bus.emit_id(now, self._src, "vn_stall",
                              instr.op.name, dur=waited,
                              address=self._mem_request.address,
                              parent=self._last_eid)
            if eid is not None:
                self._last_eid = eid
        if dest is not None:
            self.regs[dest] = response
        self.pc += 1
        sim.post(0, self._step)

    def _halt(self):
        self.halted = True
        self.finish_time = self.sim.now
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self.sim.now, self._src, "vn_halt", "",
                     instructions=self._instructions,
                     parent=self._last_eid)
        if self.on_halt is not None:
            self.on_halt(self)

    # ------------------------------------------------------------------
    def utilization(self, now=None):
        """Fraction of elapsed time spent executing (not stalled)."""
        if self.start_time is None:
            return 0.0
        end = self.finish_time if self.finish_time is not None else (
            now if now is not None else self.sim.now
        )
        window = end - self.start_time
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window)

    def __repr__(self):
        return (
            f"<Processor {self.proc_id} pc={self.pc} halted={self.halted} "
            f"instructions={self._instructions}>"
        )
