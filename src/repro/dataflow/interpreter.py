"""The untimed reference interpreter (the "U-interpreter", ref [1]).

This engine defines the *semantics* of a program: unbounded processors,
every instruction takes one logical step, tokens are matched by tag, and
I-structure storage is a single flat heap.  The timed multi-PE machine in
:mod:`repro.dataflow.machine` must produce exactly the same answers; tests
cross-check the two.

Besides the answer, the interpreter computes the program's *ideal
parallelism profile*: each token is timestamped with the logical step at
which its value could first exist, so ``parallelism_profile`` reports how
many instructions could fire at each step given infinitely many PEs, and
``critical_path`` is the data-dependency depth of the whole computation.
This is the quantity the paper appeals to when it says latency can be
tolerated "given that the program being executed is sufficiently parallel"
(§2.3).
"""

from collections import deque

from ..common.errors import DeadlockError, MachineError
from ..common.stats import Counter
from ..graph.opcodes import CLASS_COUNTER
from ..istructure.heap import Allocator
from ..istructure.store import DEFERRED, IStructureModule
from .exec_core import (
    ProgramResult,
    Send,
    StructureAlloc,
    StructureRead,
    StructureWrite,
    assemble_operands,
    execute,
)
from .tags import Tag
from .values import Continuation

__all__ = ["Interpreter", "run_program"]


class Interpreter:
    """Executes one program invocation on the abstract dataflow model."""

    def __init__(self, program):
        self.program = program
        self.heap = IStructureModule("heap")
        self.allocator = Allocator()
        self.counters = Counter()
        #: logical step -> number of instructions that fired at that step
        self.parallelism_profile = {}
        self._waiting = {}
        self._worklist = deque()
        self._write_times = {}
        self.result = None
        self.result_time = None
        self._finished = False
        self._started = False

    # ------------------------------------------------------------------
    def run(self, *args, max_steps=10_000_000):
        """Invoke the entry procedure with ``args``; return its result.

        An Interpreter instance is single-use: its heap, profile and
        counters describe exactly one invocation.
        """
        if self._started:
            raise MachineError(
                "Interpreter instances are single-use; create a new one"
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
                self._inject(tag, dest.port, arg, 0)
        halt_tag = Tag(None, entry.name, entry.return_statement, 1)
        self._inject(halt_tag, 1, Continuation.HALT, 0)

        steps = 0
        while self._worklist:
            steps += 1
            if steps > max_steps:
                raise MachineError(
                    f"interpreter exceeded {max_steps} token deliveries; "
                    "livelock suspected"
                )
            tag, port, value, ts = self._worklist.popleft()
            self._deliver(tag, port, value, ts)

        if not self._finished:
            pending = self.heap.pending_cells()
            raise DeadlockError(
                "program quiesced without returning a result; "
                f"{self.heap.pending_reads()} deferred read(s) outstanding, "
                f"{len(self._waiting)} partially matched activit(ies)",
                pending=pending,
            )
        self.counters.add("dangling_reads", self.heap.pending_reads())
        return self.result

    # ------------------------------------------------------------------
    @property
    def critical_path(self):
        """Data-dependency depth (logical steps) of the computation."""
        return max(self.parallelism_profile) if self.parallelism_profile else 0

    @property
    def instructions_executed(self):
        return sum(self.parallelism_profile.values())

    def average_parallelism(self):
        """Instructions executed divided by critical path length."""
        depth = self.critical_path
        return self.instructions_executed / depth if depth else 0.0

    # ------------------------------------------------------------------
    def _inject(self, tag, port, value, ts):
        self._worklist.append((tag, port, value, ts))

    def _deliver(self, tag, port, value, ts):
        instruction = self.program.instruction(tag.code_block, tag.statement)
        nt = instruction.nt
        if nt == 1:
            self._fire(instruction, tag, {port: value}, ts)
            return
        slot = self._waiting.setdefault(tag, {})
        if port in slot:
            raise MachineError(
                f"duplicate token at {tag!r} port {port}: graph is "
                "nondeterministic or malformed"
            )
        slot[port] = (value, ts)
        if len(slot) == nt:
            del self._waiting[tag]
            by_port = {p: v for p, (v, _) in slot.items()}
            fire_ts = max(t for _, t in slot.values())
            self._fire(instruction, tag, by_port, fire_ts)

    def _fire(self, instruction, tag, by_port, ts):
        operands = assemble_operands(instruction, by_port)
        effects = execute(self.program, instruction, tag, operands)
        done = ts + 1
        self.parallelism_profile[done] = self.parallelism_profile.get(done, 0) + 1
        self.counters.add("executed")
        self.counters.add(CLASS_COUNTER[instruction.opcode])
        for effect in effects:
            self._apply(effect, done)

    def _apply(self, effect, ts):
        if isinstance(effect, Send):
            self._inject(effect.tag, effect.port, effect.value, ts)
        elif isinstance(effect, StructureRead):
            key = (effect.ref.sid, effect.index)
            for reply_tag, reply_port in effect.replies:
                value = self.heap.read(key, (reply_tag, reply_port, ts))
                if value is not DEFERRED:
                    reply_ts = max(ts, self._write_times.get(key, 0)) + 1
                    self._inject(reply_tag, reply_port, value, reply_ts)
        elif isinstance(effect, StructureWrite):
            key = (effect.ref.sid, effect.index)
            self._write_times[key] = ts
            drained = self.heap.write(key, effect.value)
            for reply_tag, reply_port, issue_ts in drained:
                reply_ts = max(issue_ts, ts) + 1
                self._inject(reply_tag, reply_port, effect.value, reply_ts)
        elif isinstance(effect, StructureAlloc):
            ref = self.allocator.allocate(effect.size)
            for reply_tag, reply_port in effect.replies:
                self._inject(reply_tag, reply_port, ref, ts + 1)
        elif isinstance(effect, ProgramResult):
            if self._finished:
                raise MachineError("program returned more than once")
            self.result = effect.value
            self.result_time = ts
            self._finished = True
        else:
            raise MachineError(f"unknown effect {effect!r}")


def run_program(program, *args, **kwargs):
    """One-shot convenience: interpret ``program`` on ``args``."""
    return Interpreter(program).run(*args, **kwargs)
