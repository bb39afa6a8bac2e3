"""A multithreaded (HEP-style) von Neumann processor.

Section 1.1 discusses "performing context switching at a very low level"
to tolerate memory latency: "while one computation waits for the memory to
respond, the processor resumes another, parallel computation ... This is
done by duplicating programmer-visible registers."  The paper's objection
is that the number of contexts is *fixed* by the hardware, while a scaled
machine needs ever more: "As memory elements are added, the depth of the
communication network will grow.  Hence, the number of low-level contexts
to be maintained will also have to increase to match the increase in
memory latency time."

This class makes the trade-off measurable (experiment E9): K hardware
contexts, barrel-style round-robin issue, a context parking on every
memory reference and resuming on the response.  When every context is
parked, the processor idles — exactly the regime where K is too small for
the latency.
"""

from ..common.errors import MachineError
from ..common.stats import SlotCounter
from .memory import RETRY
from .processor import ALU, BRANCH, HALT, MEMORY, decode, memory_request

__all__ = ["MultithreadedProcessor", "HardwareContext"]


class HardwareContext:
    """One replicated register set + program counter."""

    READY = "ready"
    STALLED = "stalled"
    HALTED = "halted"

    def __init__(self, index, program, n_regs=32):
        self.index = index
        self.program = program
        self.decoded = decode(program)
        self.regs = [0] * n_regs
        self.pc = 0
        self.state = self.READY
        self.instructions = 0
        self.last_eid = None  # provenance: previous event of this context
        # The outstanding memory reference: its decoded entry and request.
        self.mem_entry = None
        self.mem_request = None
        self.on_response = None  # set by the owning processor

    def set_regs(self, values):
        for reg, value in values.items():
            self.regs[reg] = value


class MultithreadedProcessor:
    """K contexts multiplexed over one issue pipeline."""

    def __init__(self, sim, proc_id, memory, cpu_time=1.0, switch_time=0.0,
                 retry_backoff=0.0, on_halt=None):
        self.sim = sim
        self.proc_id = proc_id
        self.memory = memory
        self.cpu_time = cpu_time
        self.switch_time = switch_time
        self.retry_backoff = retry_backoff
        self.on_halt = on_halt
        self.contexts = []
        self._rr = 0
        self._running = False
        self._idle = False
        self.busy_cycles = 0.0
        self.switch_cycles = 0.0
        # Cycle accounting: whole-pipeline idle windows (every context
        # parked), classified by whether a full/empty RETRY arrived while
        # idle (Issue 2) or all contexts sat on plain references — the
        # too-few-contexts-for-the-latency regime of §1.1 (Issue 1).
        self.stall_idle_cycles = 0.0
        self.sync_idle_cycles = 0.0
        self.halt_overcount = 0.0
        self._idle_since = None
        self._retry_during_idle = False
        self.start_time = None
        self.finish_time = None
        # Hot counts live in slots; ``counters`` reads them by name.
        self._instructions = 0
        self._memory_ops = 0
        self._context_switches = 0
        self._retries = 0
        self.counters = SlotCounter(self._hot_counts)
        self._last_context = None
        self.bus = None  # optional repro.obs.TraceBus (set by VNMachine)
        self._src = f"proc{proc_id}"  # trace track name

    def _hot_counts(self):
        return {"instructions": self._instructions,
                "context_switches": self._context_switches,
                "memory_ops": self._memory_ops, "retries": self._retries}

    # ------------------------------------------------------------------
    def add_context(self, program, regs=None, n_regs=32):
        context = HardwareContext(len(self.contexts), program, n_regs=n_regs)
        if regs:
            context.set_regs(regs)
        context.on_response = (
            lambda response: self._memory_done(context, response))
        self.contexts.append(context)
        return context

    @property
    def n_contexts(self):
        return len(self.contexts)

    def start(self, delay=0.0):
        if not self.contexts:
            raise MachineError(f"proc {self.proc_id}: no contexts loaded")
        self.start_time = self.sim.now + delay
        self._running = True
        self.sim.post(delay, self._dispatch)

    # ------------------------------------------------------------------
    def _pick_ready(self):
        n = len(self.contexts)
        for offset in range(n):
            candidate = self.contexts[(self._rr + offset) % n]
            if candidate.state == HardwareContext.READY:
                self._rr = (candidate.index + 1) % n
                return candidate
        return None

    def _dispatch(self):
        if not self._running:
            return
        context = self._pick_ready()
        if context is None:
            if all(c.state == HardwareContext.HALTED for c in self.contexts):
                self._halt()
            else:
                self._idle = True  # resumed by a memory completion
                self._idle_since = self.sim.now
                self._retry_during_idle = False
            return
        overhead = 0.0
        if self._last_context is not context and self._last_context is not None:
            overhead = self.switch_time
            self.switch_cycles += overhead
            self._context_switches += 1
            bus = self.bus
            if bus is not None and bus.enabled:
                eid = bus.emit_id(self.sim.now, self._src, "vn_switch",
                                  f"ctx{context.index}", ctx=context.index,
                                  parent=context.last_eid)
                if eid is not None:
                    context.last_eid = eid
        self._last_context = context
        self.sim.post(overhead, self._execute, context)

    def _execute(self, context):
        pc = context.pc
        decoded = context.decoded
        if not 0 <= pc < len(decoded):
            context.state = HardwareContext.HALTED
            self._dispatch()
            return
        sim = self.sim
        entry = decoded[pc]
        kind, handler, instr = entry
        self._instructions += 1
        context.instructions += 1
        cpu_time = self.cpu_time
        self.busy_cycles += cpu_time
        bus = self.bus
        if bus is not None and bus.enabled:
            name = instr.op.name
            eid = bus.emit_id(sim._now, self._src, "vn_exec", name,
                              op=name, ctx=context.index, pc=pc,
                              parent=context.last_eid)
            if eid is not None:
                context.last_eid = eid

        if kind == ALU:
            regs = context.regs
            value = handler(regs, instr, self.proc_id)
            rd = instr.rd
            if rd is not None:  # NOP has no destination
                regs[rd] = value
            context.pc = pc + 1
            sim.post(cpu_time, self._dispatch)
        elif kind == BRANCH:
            context.pc = instr.target if handler(context.regs, instr) else pc + 1
            sim.post(cpu_time, self._dispatch)
        elif kind == MEMORY:
            self._memory_ops += 1
            context.state = HardwareContext.STALLED
            context.mem_entry = entry
            context.mem_request = memory_request(context.regs, instr,
                                                 self.proc_id)
            sim.post(cpu_time, self._issue, context)
            sim.post(cpu_time, self._dispatch)
        elif kind == HALT:
            # HALT charged cpu_time to busy above but consumes no
            # simulated time; remember the overcount for exact accounting.
            self.halt_overcount += cpu_time
            context.state = HardwareContext.HALTED
            self._dispatch()
        else:
            raise MachineError(f"proc {self.proc_id}: cannot execute {instr!r}")

    def _issue(self, context):
        self.memory.access(self.proc_id, context.mem_request,
                           context.on_response)

    def _memory_done(self, context, response):
        bus = self.bus
        _kind, dest, instr = context.mem_entry
        if response is RETRY:
            self._retries += 1
            if self._idle:
                self._retry_during_idle = True
            if bus is not None and bus.enabled:
                eid = bus.emit_id(self.sim.now, self._src, "vn_retry",
                                  instr.op.name, ctx=context.index,
                                  address=context.mem_request.address,
                                  parent=context.last_eid)
                if eid is not None:
                    context.last_eid = eid
            self.sim.post(self.retry_backoff, self._issue, context)
            return
        if dest is not None:
            context.regs[dest] = response
        context.pc += 1
        context.state = HardwareContext.READY
        if self._idle:
            # The whole pipeline waited from _idle_since until now.
            window = self.sim.now - self._idle_since
            if self._retry_during_idle:
                self.sync_idle_cycles += window
            else:
                self.stall_idle_cycles += window
            self._idle = False
            self._idle_since = None
            self.sim.post(0, self._dispatch)

    def _halt(self):
        self._running = False
        self.finish_time = self.sim.now
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self.sim.now, self._src, "vn_halt", "",
                     instructions=self._instructions)
        if self.on_halt is not None:
            self.on_halt(self)

    # ------------------------------------------------------------------
    def utilization(self, now=None):
        """Fraction of elapsed time the issue pipeline executed
        instructions (context-switch overhead does not count as useful)."""
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
        states = "".join(c.state[0] for c in self.contexts)
        return f"<MultithreadedProcessor {self.proc_id} contexts={states}>"
