"""The in-order von Neumann processor.

The defining property (and the paper's complaint): a memory reference
*stalls* the processor until the response arrives.  "Any processor making
a nonlocal memory reference would idle until the reference was completed"
(§1.2.2, of Cm*); the same sequential control — "the most troublesome
aspect of von Neumann architecture ... the program counter" (§2.2) —
means at most one memory request is ever outstanding.

Full/empty RETRY responses are re-issued after ``retry_backoff`` cycles,
modelling the busy-waiting loop of footnote 2.
"""

from ..common.errors import MachineError
from ..common.stats import Counter
from .isa import ALU_OPS, BRANCH_OPS, MEMORY_OPS, Op
from .memory import MemRequest, RETRY

__all__ = ["Processor"]


class Processor:
    """One single-context in-order processor."""

    def __init__(self, sim, proc_id, program, memory, cpu_time=1.0,
                 retry_backoff=0.0, n_regs=32, on_halt=None):
        self.sim = sim
        self.proc_id = proc_id
        self.program = program
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
        self.counters = Counter()
        self.bus = None  # optional repro.obs.TraceBus (set by VNMachine)
        self._src = f"proc{proc_id}"  # trace track name
        self._mem_issued_at = None
        self._mem_retried = False
        self._last_eid = None  # provenance: previous event on this track

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
        if not 0 <= self.pc < len(self.program):
            self._halt()
            return
        sim = self.sim
        instr = self.program[self.pc]
        op = instr.op
        counters = self.counters
        counters.add("instructions")
        cpu_time = self.cpu_time
        self.busy_cycles += cpu_time
        bus = self.bus
        if bus is not None and bus.enabled:
            eid = bus.emit_id(sim._now, self._src, "vn_exec", op.name,
                              op=op.name, pc=self.pc,
                              parent=self._last_eid)
            if eid is not None:
                self._last_eid = eid

        if op in ALU_OPS:
            counters.add("alu_ops")
            value = self._alu(instr)
            if instr.rd is not None:  # NOP has no destination
                self.regs[instr.rd] = value
            self.pc += 1
            sim.post(cpu_time, self._step)
        elif op in BRANCH_OPS:
            counters.add("branches")
            self.pc = instr.target if self._branch_taken(instr) else self.pc + 1
            sim.post(cpu_time, self._step)
        elif op in MEMORY_OPS:
            counters.add("memory_ops")
            request = self._memory_request(instr)
            self._mem_issued_at = sim._now
            self._mem_retried = False
            sim.post(cpu_time, self._issue, instr, request)
        elif op is Op.HALT:
            # HALT charged cpu_time to busy above but consumes no
            # simulated time; remember the overcount so accounting can
            # tile the timeline exactly.
            self.halt_overcount += self.cpu_time
            self._halt()
        else:
            raise MachineError(f"proc {self.proc_id}: cannot execute {instr!r}")

    def _issue(self, instr, request):
        self.memory.access(
            self.proc_id,
            request,
            lambda response: self._memory_done(instr, request, response),
        )

    def _memory_done(self, instr, request, response):
        bus = self.bus
        sim = self.sim
        now = sim._now
        if response is RETRY:
            self.counters.add("retries")
            self._mem_retried = True
            if bus is not None and bus.enabled:
                eid = bus.emit_id(now, self._src, "vn_retry",
                                  instr.op.name, address=request.address,
                                  parent=self._last_eid)
                if eid is not None:
                    self._last_eid = eid
            sim.post(self.retry_backoff, self._issue, instr, request)
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
                              address=request.address,
                              parent=self._last_eid)
            if eid is not None:
                self._last_eid = eid
        if instr.op in (Op.LOAD, Op.TESTSET, Op.FAA, Op.READF):
            self.regs[instr.rd] = response
        self.pc += 1
        sim.post(0, self._step)

    def _halt(self):
        self.halted = True
        self.finish_time = self.sim.now
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self.sim.now, self._src, "vn_halt", "",
                     instructions=self.counters["instructions"],
                     parent=self._last_eid)
        if self.on_halt is not None:
            self.on_halt(self)

    # ------------------------------------------------------------------
    def _alu(self, instr):
        op = instr.op
        regs = self.regs
        if op is Op.MOVI:
            return instr.imm
        if op is Op.MOV:
            return regs[instr.ra]
        if op is Op.NOP:
            return regs[instr.rd] if instr.rd is not None else 0
        if op is Op.ADDI:
            return regs[instr.ra] + instr.imm
        if op is Op.SUBI:
            return regs[instr.ra] - instr.imm
        if op is Op.MULI:
            return regs[instr.ra] * instr.imm
        a, b = regs[instr.ra], regs[instr.rb]
        if op is Op.ADD:
            return a + b
        if op is Op.SUB:
            return a - b
        if op is Op.MUL:
            return a * b
        if op is Op.DIV:
            if b == 0:
                raise MachineError(f"proc {self.proc_id}: division by zero")
            return a // b if isinstance(a, int) and isinstance(b, int) else a / b
        if op is Op.MOD:
            return a % b
        if op is Op.AND:
            return a & b
        if op is Op.OR:
            return a | b
        if op is Op.XOR:
            return a ^ b
        if op is Op.SLT:
            return int(a < b)
        if op is Op.SLE:
            return int(a <= b)
        if op is Op.SEQ:
            return int(a == b)
        if op is Op.SNE:
            return int(a != b)
        raise MachineError(f"proc {self.proc_id}: not an ALU op {op}")

    def _branch_taken(self, instr):
        op = instr.op
        regs = self.regs
        if op is Op.JMP:
            return True
        if op is Op.BEQZ:
            return regs[instr.ra] == 0
        if op is Op.BNEZ:
            return regs[instr.ra] != 0
        a, b = regs[instr.ra], regs[instr.rb]
        if op is Op.BLT:
            return a < b
        if op is Op.BGE:
            return a >= b
        if op is Op.BEQ:
            return a == b
        if op is Op.BNE:
            return a != b
        raise MachineError(f"proc {self.proc_id}: not a branch {op}")

    def _memory_request(self, instr):
        op = instr.op
        if op is Op.FAA:
            address = self.regs[instr.ra]
            value = self.regs[instr.rb]
        else:
            address = self.regs[instr.ra] + (instr.imm or 0)
            value = self.regs[instr.rd] if op in (Op.STORE, Op.WRITEF) else None
        return MemRequest(op=op, address=address, value=value, proc=self.proc_id)

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
            f"instructions={self.counters['instructions']}>"
        )
