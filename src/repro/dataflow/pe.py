"""One data flow processing element (Fig 2-4).

The PE is a pipeline of four units, each modelled as a FIFO server with a
configurable service time:

* **waiting–matching section** — an associative store; d=0 tokens that
  "require partners (nt >= 2)" probe it, and "when a match is expected but
  not found, the token remains in the waiting-matching unit's associative
  memory until its partner arrives";
* **instruction fetch** — "looks up the operation code and other
  information associated with the token-carried names" from program
  memory; also "directly receives d=0 tokens which require no partners
  (nt=1)";
* **ALU** — executes the enabled instruction ("no other information is
  needed to carry out the operation save that which is in this enabled
  instruction packet");
* **output section** — builds result tokens ("we build this output token
  by computing a new tag, using the old tag along with information stored
  in the instruction itself"), each stamped with its destination PE by
  the mapping policy as it is built, and hands remote tokens to the
  network.  For the fan-out opcodes that information is the decoded
  instruction's destination table (:class:`DecodedInstruction`).

Each PE also hosts an I-structure controller (d=1 traffic) and a PE
controller (d=2 traffic — here, structure allocation).

A token crosses the PE once per pipeline stage, so the PE keeps its
counts and its match-store occupancy in its own slots, bumped inline,
and folds them into the usual ``Counter`` names and ``TimeWeighted``
statistics only when someone reads them (``counters``,
``match_occupancy``).
"""

from ..common.errors import MachineError
from ..common.queueing import FifoServer
from ..common.stats import SlotCounter, TimeWeightedView
from ..graph.opcodes import CLASS_COUNTER, Opcode
from ..istructure.controller import IStructureController, ReadRequest, WriteRequest
from ..istructure.heap import interleave_home
from .exec_core import (
    ProgramResult,
    Send,
    StructureAlloc,
    StructureRead,
    StructureWrite,
    assemble_operands,
    fanout_rules,
    handler_of,
)
from .tags import Tag
from .token import Token, TokenKind

__all__ = ["ProcessingElement", "AllocRequest", "DecodedInstruction"]

_NORMAL = TokenKind.NORMAL
_STRUCTURE = TokenKind.STRUCTURE
_CONTROL = TokenKind.CONTROL
_new = tuple.__new__

#: The per-class instruction counters (``class_pure``, ...), in the
#: order of a PE's class-count list; an instruction's ``class_index``
#: points into it.
_CLASS_NAMES = tuple(sorted(set(CLASS_COUNTER.values())))

#: Opcode name -> (class index, handler).  Keyed by the member's name,
#: the string ``Enum.__hash__`` hashes, so a decode hashes it in C
#: rather than calling ``Enum.__hash__`` in Python.
_DECODE = {opcode._name_: (_CLASS_NAMES.index(name), handler_of(opcode))
           for opcode, name in CLASS_COUNTER.items()}


class DecodedInstruction:
    """One statement as the fetch unit hands it to the ALU, decoded once
    per machine: the instruction plus what every firing of it needs and
    no firing can change (the program is frozen once the machine runs),
    its opcode's handler included.  ``inline_arity`` is the operand
    count (1 or 2) of a statement whose every operand comes by token,
    which the ALU then gathers inline; it is 0 for the rest.

    An instruction whose only effects are Sends of one value along its
    own static arcs (:data:`~repro.dataflow.exec_core.FANOUT`) also
    carries its opcode's ``value_rule`` and ``iteration_rule`` and its
    destination table: ``arcs`` (and, for SWITCH, ``arcs_false``) hold
    one ``(statement, port, nt)`` per arc, in arc order, for the output
    section to build each result token from ("information stored in the
    instruction itself", Fig 2-4).  The table is filled on the first
    firing (:meth:`decode_arcs`): decoding each destination eagerly
    would recurse through loops.  ``value_rule`` is None for the
    opcodes that keep the effects path (CALL, RETURN, L, L⁻¹, SINK and
    the I-structure ops)."""

    __slots__ = ("instruction", "nt", "arity", "inline_arity", "class_index",
                 "handler", "value_rule", "iteration_rule", "sided", "arcs",
                 "arcs_false")

    def __init__(self, instruction):
        self.instruction = instruction
        self.nt = instruction.nt
        self.arity = arity = instruction.natural_arity
        plain = instruction.constant_port is None and arity in (1, 2)
        self.inline_arity = arity if plain else 0
        self.class_index, self.handler = _DECODE[instruction.opcode._name_]
        self.value_rule, self.iteration_rule = (
            fanout_rules(instruction) or (None, None))
        self.sided = instruction.opcode is Opcode.SWITCH
        self.arcs = self.arcs_false = None

    def decode_arcs(self, machine, code_block):
        """Fill the destination table from the instruction's arcs in
        ``code_block``; returns ``arcs``."""
        def table(dests):
            return tuple(
                (d.statement, d.port, machine._decoded(code_block,
                                                       d.statement).nt)
                for d in dests)
        self.arcs_false = table(self.instruction.dests_false)
        self.arcs = table(self.instruction.dests)
        return self.arcs


class AllocRequest:
    """Payload of a d=2 token: allocate ``size`` cells, reply to ``replies``."""

    __slots__ = ("size", "replies", "cause")

    def __init__(self, size, replies, cause=None):
        self.size = size
        self.replies = replies
        self.cause = cause  # provenance eid of the requesting event


class ProcessingElement:
    """One PE of the tagged-token machine."""

    __slots__ = (
        "machine", "pe", "config", "sim",
        "waiting_matching", "fetch", "alu", "output", "controller",
        "istructure", "_match_store", "_match_causes", "match_occupancy",
        "counters", "_waiting", "_instr_cache", "_pe_of",
        "_wm_time", "_wm_capacity", "_wm_penalty",
        "_faults", "_alu_time", "_loopback",
        "_received", "_matches", "_parked", "_class_counts", "_sent",
        "_occ_area", "_occ_elapsed", "_occ_last", "_occ_max",
    )

    def __init__(self, machine, pe_number, config):
        self.machine = machine
        self.pe = pe_number
        self.config = config
        sim = machine.sim
        self.sim = sim
        name = f"pe{pe_number}"
        self.waiting_matching = FifoServer(sim, config.wm_time, f"{name}.wm")
        self.fetch = FifoServer(sim, config.fetch_time, f"{name}.fetch")
        self.alu = FifoServer(sim, config.alu_time, f"{name}.alu")
        self.output = FifoServer(sim, config.output_time, f"{name}.out")
        self.controller = FifoServer(sim, config.controller_time, f"{name}.ctrl")
        self.istructure = IStructureController(
            sim,
            deliver=self._istructure_reply,
            name=f"{name}.isc",
            read_cycles=config.is_read_time,
            write_cycles=config.is_write_time,
            trace=self._isc_trace if machine._bus is not None else None,
            bus=machine._bus,
            faults=machine.faults,
        )
        self._faults = machine.faults
        self._alu_time = config.alu_time
        self._loopback = config.local_loopback
        self._match_store = {}
        # Provenance: park eids awaiting their match, keyed by tag.
        self._match_causes = {}
        # Parked-token count, maintained incrementally (+1 on park,
        # -(nt-1) on match) so capacity checks and occupancy samples are
        # O(1) instead of a sum over the associative store.
        self._waiting = 0
        # Its time-weighted history, as TimeWeighted.update records it:
        # area under the curve, the time it covers, the last change, and
        # the peak.
        self._occ_area = 0.0
        self._occ_elapsed = 0.0
        self._occ_last = 0.0
        self._occ_max = 0
        self.match_occupancy = TimeWeightedView(self._occupancy_state)
        # Hot counts; wm_overflows and fault_* go through counters.add.
        self._received = 0
        self._matches = 0
        self._parked = 0
        self._class_counts = [0] * len(_CLASS_NAMES)
        self._sent = 0
        self.counters = SlotCounter(self._hot_counts)
        # (code_block, statement) -> DecodedInstruction, shared machine-wide.
        self._instr_cache = machine._instr_cache
        self._pe_of = machine.mapping.pe_of
        self._wm_time = config.wm_time
        self._wm_capacity = config.wm_capacity
        self._wm_penalty = config.wm_overflow_penalty

    def _hot_counts(self):
        counts = {"tokens_received": self._received,
                  "matches": self._matches,
                  "tokens_parked": self._parked,
                  "instructions": self.instructions}
        counts.update(zip(_CLASS_NAMES, self._class_counts))
        counts["tokens_sent"] = self._sent
        return counts

    def _occupancy_state(self):
        return (self._occ_area, self._occ_elapsed, self._occ_last,
                self._waiting, self._occ_max)

    @property
    def instructions(self):
        """Instructions this PE's ALU has executed."""
        return sum(self._class_counts)

    # ------------------------------------------------------------------
    # Token arrival and classification (the "input" of Fig 2-4)
    # ------------------------------------------------------------------
    def receive(self, token):
        """A token arrived at this PE (from the network or locally)."""
        self._received += 1
        kind = token.kind
        if kind is _NORMAL:
            if token.nt >= 2:
                service = self._wm_time
                if (
                    self._wm_capacity is not None
                    and self._waiting >= self._wm_capacity
                ):
                    # Finite associative memory: probes beyond capacity
                    # spill to the (slow) overflow store.
                    service += self._wm_penalty
                    self.counters.add("wm_overflows")
                self.waiting_matching.submit(token, self._match, service)
            else:
                self.fetch.submit(
                    (token.tag, {token.port: token.data}, token.cause),
                    self._fetched,
                )
        elif kind is _STRUCTURE:
            if self.machine._provenance:
                # The request predates any route/network events the token
                # accumulated in flight; re-link it to the freshest one.
                token.data.cause = token.cause
            self.istructure.submit(token.data)
        elif kind is _CONTROL:
            if self.machine._provenance:
                token.data.cause = token.cause
            self.controller.submit(token.data, self._control)
        else:
            raise MachineError(f"unclassifiable token {token!r}")

    # ------------------------------------------------------------------
    # Waiting-matching section
    # ------------------------------------------------------------------
    def _match(self, token):
        tag = token.tag
        store = self._match_store
        slot = store.get(tag)
        if slot is None:
            slot = store[tag] = {}
        if token.port in slot:
            raise MachineError(
                f"pe{self.pe}: duplicate token at {tag!r} "
                f"port {token.port}"
            )
        slot[token.port] = token.data
        machine = self.machine
        bus = machine._bus
        # The waiting count changes below: close its last interval.
        now = self.sim._now
        dt = now - self._occ_last
        self._occ_area += self._waiting * dt
        self._occ_elapsed += dt
        self._occ_last = now
        if len(slot) == token.nt:
            del store[tag]
            self._matches += 1
            waiting = self._waiting = self._waiting - (token.nt - 1)
            cause = token.cause
            if bus is not None and bus.enabled:
                # The match joins this token's chain (parent) with the
                # park events of the operands that arrived earlier.
                eid = machine._trace_event(
                    self.pe, "match", repr(tag),
                    waiting=waiting,
                    parent=token.cause,
                    joins=self._match_causes.pop(tag, None),
                )
                if eid is not None:
                    cause = eid
            elif self._match_causes:
                self._match_causes.pop(tag, None)
            self.fetch.submit((tag, slot, cause), self._fetched)
        else:
            self._parked += 1
            waiting = self._waiting = self._waiting + 1
            if waiting > self._occ_max:
                self._occ_max = waiting
            if bus is not None and bus.enabled:
                eid = machine._trace_event(
                    self.pe, "park", f"{tag!r} p{token.port}",
                    waiting=waiting, parent=token.cause,
                )
                if eid is not None:
                    self._match_causes.setdefault(tag, []).append(eid)

    def _waiting_tokens(self):
        return self._waiting

    # ------------------------------------------------------------------
    # Instruction fetch and ALU
    # ------------------------------------------------------------------
    def _fetched(self, enabled):
        if self._faults is not None:
            self._fetched_faulty(enabled)
            return
        tag, by_port, cause = enabled
        entry = self._instr_cache.get((tag.code_block, tag.statement))
        if entry is None:
            entry = self.machine._decoded(tag.code_block, tag.statement)
        self.alu.submit((entry, tag, by_port, cause), self._executed)

    def _fetched_faulty(self, enabled):
        """The :meth:`_fetched` path with PE fault injection.

        ``enabled`` grows a fourth element (the re-fire attempt count)
        only on the crash-recovery path, so the common case stays the
        same 3-tuple the fault-free pipeline passes around.
        """
        tag, by_port, cause = enabled[0], enabled[1], enabled[2]
        attempt = enabled[3] if len(enabled) > 3 else 0
        verdict = self._faults.pe_fault(
            self.sim, f"pe{self.pe}", attempt=attempt, cause=cause
        )
        entry = self._instr_cache.get((tag.code_block, tag.statement))
        if entry is None:
            entry = self.machine._decoded(tag.code_block, tag.statement)
        if verdict is None:
            self.alu.submit((entry, tag, by_port, cause), self._executed)
            return
        kind, cycles = verdict
        if kind == "crash":
            # The enabled instruction is dropped before execution and
            # re-fired after backoff; no effects were emitted, so the
            # retry is exact.
            self.counters.add("fault_refires")
            self.sim.post(
                cycles, self._fetched, (tag, by_port, cause, attempt + 1)
            )
            return
        # Stall: the instruction occupies the ALU longer.
        self.counters.add("fault_stalls")
        self.alu.submit((entry, tag, by_port, cause), self._executed,
                        service_time=self._alu_time + cycles)

    def _executed(self, work):
        entry, tag, by_port, cause = work
        value_rule = entry.value_rule
        if value_rule is None:
            self._executed_effects(entry, tag, by_port, cause)
            return
        inline = entry.inline_arity
        # ``control`` is the last operand: SWITCH's side.
        control = None
        try:
            if inline == 2:
                control = by_port[1]
                value = value_rule(by_port[0], control)
            elif inline == 1:
                value = value_rule(by_port[0])
            else:
                operands = assemble_operands(entry.instruction, by_port,
                                             entry.arity)
                control = operands[-1]
                value = value_rule(*operands)
        except Exception:
            self._refire(entry, tag, by_port)
            raise
        context, code_block, _, iteration = tag
        arcs = entry.arcs
        if arcs is None:
            arcs = entry.decode_arcs(self.machine, code_block)
        if entry.sided and control is not True:
            if control is not False:
                self._refire(entry, tag, by_port)
            arcs = entry.arcs_false
        self._class_counts[entry.class_index] += 1
        bus = self.machine._bus
        if bus is not None and bus.enabled:
            cause = self._trace_exec(entry, tag, cause)
        if entry.iteration_rule is not None:
            iteration = entry.iteration_rule(iteration)
        # The output section: one result token per arc, its tag computed
        # from the old tag and the instruction, stamped with its PE.
        submit = self.output.submit
        pe_of = self._pe_of
        route = self._route
        for statement, port, nt in arcs:
            etag = _new(Tag, (context, code_block, statement, iteration))
            submit(Token(etag, port, value, _NORMAL, nt, pe_of(etag), cause),
                   route)

    def _refire(self, entry, tag, by_port):
        """Re-run a failed firing through its opcode's handler, which
        raises the error the interpreter raises, with the same text."""
        instruction = entry.instruction
        entry.handler(self.machine.program, instruction, tag,
                      assemble_operands(instruction, by_port, entry.arity))

    def _trace_exec(self, entry, tag, cause):
        # dur = the ALU slice just finished; the Chrome exporter
        # renders it as pipeline-stage occupancy on this PE's track.
        opcode = entry.instruction.opcode.value
        eid = self.machine._trace_event(
            self.pe, "exec", f"{tag!r} {opcode}",
            op=opcode, dur=self.config.alu_time, parent=cause,
        )
        return cause if eid is None else eid

    def _executed_effects(self, entry, tag, by_port, cause):
        """The ALU for the opcodes with effects other than fan-out Sends."""
        instruction = entry.instruction
        machine = self.machine
        inline = entry.inline_arity
        try:
            if inline == 2:
                operands = [by_port[0], by_port[1]]
            elif inline == 1:
                operands = [by_port[0]]
            else:
                operands = assemble_operands(instruction, by_port, entry.arity)
        except KeyError:
            # A missing operand: assemble_operands names it.
            operands = assemble_operands(instruction, by_port, entry.arity)
        effects = entry.handler(machine.program, instruction, tag, operands)
        self._class_counts[entry.class_index] += 1
        bus = machine._bus
        if bus is not None and bus.enabled:
            cause = self._trace_exec(entry, tag, cause)
        for effect in effects:
            if type(effect) is Send:
                etag, port, value = effect
                dest = self._instr_cache.get((etag.code_block, etag.statement))
                if dest is None:
                    dest = machine._decoded(etag.code_block, etag.statement)
                self.output.submit(
                    Token(etag, port, value, _NORMAL, dest.nt,
                          self._pe_of(etag), cause),
                    self._route)
            else:
                self._emit(effect, tag, cause)

    def _emit(self, effect, tag, cause=None):
        """The output section for the effects other than ``Send``."""
        if isinstance(effect, StructureRead):
            for reply_tag, reply_port in effect.replies:
                home = interleave_home(effect.ref, effect.index,
                                       self.machine.n_pes)
                request = ReadRequest(
                    key=(effect.ref.sid, effect.index),
                    reply=(reply_tag, reply_port),
                    cause=cause,
                )
                token = Token(tag, 0, request, _STRUCTURE, pe=home,
                              cause=cause)
                self.output.submit(token, self._route)
        elif isinstance(effect, StructureWrite):
            home = interleave_home(effect.ref, effect.index, self.machine.n_pes)
            request = WriteRequest(
                key=(effect.ref.sid, effect.index), value=effect.value,
                cause=cause,
            )
            token = Token(tag, 0, request, _STRUCTURE, pe=home,
                          cause=cause)
            self.output.submit(token, self._route)
        elif isinstance(effect, StructureAlloc):
            request = AllocRequest(effect.size, effect.replies, cause=cause)
            token = Token(tag, 0, request, _CONTROL, pe=self.pe,
                          cause=cause)
            self.output.submit(token, self._route)
        elif isinstance(effect, ProgramResult):
            self.machine._program_result(effect.value, cause)
        else:
            raise MachineError(f"unknown effect {effect!r}")

    # ------------------------------------------------------------------
    # Output section: routing (every token already carries its PE)
    # ------------------------------------------------------------------
    def _route(self, token):
        """Loop a token for this PE straight back to its input, or hand
        it to the network."""
        self._sent += 1
        machine = self.machine
        bus = machine._bus
        pe = self.pe
        if token.pe == pe and self._loopback:
            machine._local += 1
            if bus is not None and bus.enabled:
                eid = machine._trace_event(pe, "route", "local", local=True,
                                           parent=token.cause)
                if eid is not None:
                    token.cause = eid
            self.receive(token)
        else:
            machine._network += 1
            cause = token.cause
            if bus is not None and bus.enabled:
                eid = machine._trace_event(pe, "route", f"->pe{token.pe}",
                                           local=False, parent=token.cause)
                if eid is not None:
                    cause = eid
            machine.network.send(pe, token.pe, token, cause=cause)

    # ------------------------------------------------------------------
    # PE controller (d=2): structure allocation
    # ------------------------------------------------------------------
    def _control(self, request):
        if isinstance(request, AllocRequest):
            ref = self.machine.allocate_structure(request.size, on_pe=self.pe)
            cause = request.cause
            bus = self.machine._bus
            if bus is not None and bus.enabled:
                eid = self.machine._trace_event(self.pe, "alloc", repr(ref),
                                                parent=request.cause)
                if eid is not None:
                    cause = eid
            for reply_tag, reply_port in request.replies:
                entry = self.machine._decoded(
                    reply_tag.code_block, reply_tag.statement
                )
                token = Token(reply_tag, reply_port, ref, _NORMAL, entry.nt,
                              self._pe_of(reply_tag), cause)
                self.output.submit(token, self._route)
        else:
            raise MachineError(f"pe{self.pe}: unknown control request {request!r}")

    # ------------------------------------------------------------------
    # I-structure reply path
    # ------------------------------------------------------------------
    def _isc_trace(self, kind, detail, **fields):
        return self.machine._trace_event(self.pe, kind, detail, **fields)

    def _istructure_reply(self, reply, value):
        reply_tag, reply_port = reply
        entry = self._instr_cache.get((reply_tag.code_block, reply_tag.statement))
        if entry is None:
            entry = self.machine._decoded(reply_tag.code_block,
                                          reply_tag.statement)
        # The controller sets reply_cause synchronously right before each
        # deliver call, so this read is race-free under the event kernel.
        token = Token(reply_tag, reply_port, value, _NORMAL, entry.nt,
                      self._pe_of(reply_tag), self.istructure.reply_cause)
        self.output.submit(token, self._route)

    # ------------------------------------------------------------------
    def alu_utilization(self, until=None):
        now = self.machine.sim.now if until is None else until
        return self.alu.utilization(now)

    def __repr__(self):
        return (
            f"<PE {self.pe} instructions={self.instructions} "
            f"waiting={self._waiting_tokens()}>"
        )
