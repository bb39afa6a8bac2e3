"""Operational semantics of every opcode, shared by both execution engines.

:func:`execute` maps (instruction, tag, operands) to a list of *effects*.
Pure, control, tag-manipulation and linkage opcodes only ever produce
:class:`Send` effects — all tag arithmetic (the D/D⁻¹/L/L⁻¹ algebra, CALL
context creation, RETURN continuation unpacking) is computed here, locally,
from information carried on the tokens and stored in the instruction.
Nothing needs a central table, which is what makes the architecture
scalable.

Structure opcodes produce :class:`StructureRead` / :class:`StructureWrite`
/ :class:`StructureAlloc` effects; *when and where* those are serviced (an
untimed heap vs. a distributed set of timed I-structure controllers behind
a packet network) is the difference between the reference interpreter and
the timed TTDA, and is exactly the part the paper leaves to the machine
organization.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common.errors import MachineError
from ..graph.codeblock import CodeBlock
from ..graph.opcodes import Opcode, PURE_BINARY, PURE_UNARY
from ..istructure.heap import StructureRef
from .tags import Tag, intern_tag
from .values import Continuation, FunctionRef

__all__ = [
    "Send",
    "StructureRead",
    "StructureWrite",
    "StructureAlloc",
    "ProgramResult",
    "assemble_operands",
    "execute",
]


@dataclass(frozen=True, slots=True)
class Send:
    """Deliver ``value`` as a token to (``tag``, ``port``)."""

    tag: Tag
    port: int
    value: object


@dataclass(frozen=True, slots=True)
class StructureRead:
    """A SELECT turned FETCH: read ``ref[index]``, reply to ``replies``."""

    ref: StructureRef
    index: int
    replies: Tuple[Tuple[Tag, int], ...]


@dataclass(frozen=True, slots=True)
class StructureWrite:
    """An APPEND turned STORE: write ``ref[index] = value``."""

    ref: StructureRef
    index: int
    value: object


@dataclass(frozen=True, slots=True)
class StructureAlloc:
    """Allocate a structure of ``size`` cells; send the ref to ``replies``."""

    size: int
    replies: Tuple[Tuple[Tag, int], ...]


@dataclass(frozen=True, slots=True)
class ProgramResult:
    """A RETURN consumed the HALT continuation: the program's answer."""

    value: object


def assemble_operands(instruction, by_port, arity=None):
    """Build the full operand list, folding in the immediate if any.

    ``by_port`` maps port number -> value for the token-fed ports.
    ``arity`` is ``instruction.natural_arity``, passed in by callers that
    have it decoded already.
    """
    if arity is None:
        arity = instruction.natural_arity
    operands = []
    for port in range(arity):
        if port == instruction.constant_port:
            operands.append(instruction.constant)
        else:
            try:
                operands.append(by_port[port])
            except KeyError:
                raise MachineError(
                    f"instruction {instruction!r} fired without operand "
                    f"port {port}"
                ) from None
    return operands


#: Memoized (statement, port) pairs per destination tuple.  Keyed by the
#: tuple's id; each entry pins its tuple, so the id cannot be recycled
#: while the entry lives.  Builder/optimizer passes always *replace* a
#: destination tuple rather than mutating it, so identity implies
#: validity.  Bounded: cleared wholesale on overflow (pure cache).
_PAIRS_CACHE = {}
_PAIRS_CACHE_MAX = 1 << 15


def _dest_pairs(dests):
    entry = _PAIRS_CACHE.get(id(dests))
    if entry is not None and entry[0] is dests:
        return entry[1]
    if len(_PAIRS_CACHE) >= _PAIRS_CACHE_MAX:
        _PAIRS_CACHE.clear()
    pairs = tuple((d.statement, d.port) for d in dests)
    _PAIRS_CACHE[id(dests)] = (dests, pairs)
    return pairs


def _fanout(tag, dests, value):
    at_statement = tag.at_statement
    return [Send(at_statement(s), p, value) for s, p in _dest_pairs(dests)]


def _reply_arcs(tag, dests):
    at_statement = tag.at_statement
    return tuple((at_statement(s), p) for s, p in _dest_pairs(dests))


def execute(program, instruction, tag, operands):
    """Run one enabled instruction; return its effects.

    ``operands`` is the full positional operand list (see
    :func:`assemble_operands`).
    """
    opcode = instruction.opcode

    if opcode in PURE_BINARY:
        try:
            value = PURE_BINARY[opcode](operands[0], operands[1])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MachineError(
                f"{opcode.value} failed at {tag!r}: {exc}"
            ) from exc
        return _fanout(tag, instruction.dests, value)

    if opcode in PURE_UNARY:
        try:
            value = PURE_UNARY[opcode](operands[0])
        except (TypeError, ValueError) as exc:
            raise MachineError(
                f"{opcode.value} failed at {tag!r}: {exc}"
            ) from exc
        return _fanout(tag, instruction.dests, value)

    if opcode is Opcode.CONSTANT:
        return _fanout(tag, instruction.dests, instruction.literal)

    if opcode is Opcode.GATE:
        return _fanout(tag, instruction.dests, operands[0])

    if opcode is Opcode.SINK:
        return []

    if opcode is Opcode.SWITCH:
        control = operands[1]
        if not isinstance(control, bool):
            raise MachineError(
                f"SWITCH control at {tag!r} is {control!r}, not a boolean"
            )
        side = instruction.dests if control else instruction.dests_false
        return _fanout(tag, side, operands[0])

    if opcode is Opcode.D:
        next_iteration = tag.next_iteration
        return [
            Send(next_iteration(s), p, operands[0])
            for s, p in _dest_pairs(instruction.dests)
        ]

    if opcode is Opcode.D_INV:
        reset_iteration = tag.reset_iteration
        return [
            Send(reset_iteration(s), p, operands[0])
            for s, p in _dest_pairs(instruction.dests)
        ]

    if opcode is Opcode.L:
        loop = program.block(instruction.target_block)
        targets = loop.param_targets[instruction.param_index]
        site = instruction.site
        name = loop.name
        return [
            Send(tag.enter(site, name, s), p, operands[0])
            for s, p in _dest_pairs(targets)
        ]

    if opcode is Opcode.L_INV:
        return _loop_exit(program, instruction, tag, operands[0])

    if opcode is Opcode.CALL:
        return _call(program, instruction, tag, operands)

    if opcode is Opcode.RETURN:
        return _return(operands[0], operands[1], tag)

    if opcode is Opcode.I_ALLOC:
        size = operands[0]
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise MachineError(f"I_ALLOC at {tag!r}: bad size {size!r}")
        return [StructureAlloc(size, _reply_arcs(tag, instruction.dests))]

    if opcode is Opcode.I_FETCH:
        ref, index = operands
        _check_ref(ref, tag)
        ref.check_index(index)
        return [StructureRead(ref, index, _reply_arcs(tag, instruction.dests))]

    if opcode is Opcode.I_STORE:
        ref, index, value = operands
        _check_ref(ref, tag)
        ref.check_index(index)
        effects = [StructureWrite(ref, index, value)]
        # The onward arcs carry an *issue* signal (stores are one-way d=1
        # tokens; the paper has no store acknowledgement).
        effects.extend(_fanout(tag, instruction.dests, value))
        return effects

    raise MachineError(f"unimplemented opcode {opcode!r}")


def _check_ref(ref, tag):
    if not isinstance(ref, StructureRef):
        raise MachineError(
            f"structure operation at {tag!r} applied to non-structure {ref!r}"
        )


def _loop_exit(program, instruction, tag, value):
    invocation = tag.context
    if invocation is None:
        raise MachineError(f"L⁻¹ at {tag!r} has no enclosing context to restore")
    block = program.block(tag.code_block)
    dests = block.exit_dests[instruction.param_index]
    restored_base = intern_tag(
        invocation.context,
        invocation.code_block,
        0,
        invocation.iteration,
    )
    at_statement = restored_base.at_statement
    return [Send(at_statement(s), p, value) for s, p in _dest_pairs(dests)]


def _call(program, instruction, tag, operands):
    if instruction.target_block is not None:
        callee_name = instruction.target_block
        args = operands
    else:
        callee_value = operands[0]
        if isinstance(callee_value, FunctionRef):
            callee_name = callee_value.block
        elif isinstance(callee_value, str):
            callee_name = callee_value
        else:
            raise MachineError(
                f"CALL at {tag!r}: operand 0 is {callee_value!r}, "
                "not a procedure value"
            )
        args = operands[1:]
    callee = program.block(callee_name)
    if callee.kind != CodeBlock.PROCEDURE:
        raise MachineError(f"CALL at {tag!r}: {callee_name!r} is not a procedure")
    if len(args) != callee.num_params:
        raise MachineError(
            f"CALL at {tag!r}: {callee_name!r} takes {callee.num_params} "
            f"arguments, got {len(args)}"
        )
    site = instruction.site if instruction.site is not None else instruction.statement
    sends = []
    for index, arg in enumerate(args):
        for d in callee.param_targets[index]:
            sends.append(
                Send(tag.enter(site, callee_name, d.statement), d.port, arg)
            )
    continuation = Continuation(
        context=tag.context,
        code_block=tag.code_block,
        iteration=tag.iteration,
        dests=instruction.dests,
    )
    sends.append(
        Send(
            tag.enter(site, callee_name, callee.return_statement),
            1,
            continuation,
        )
    )
    return sends


def _return(value, continuation, tag):
    if not isinstance(continuation, Continuation):
        raise MachineError(
            f"RETURN at {tag!r}: port 1 carried {continuation!r}, "
            "not a continuation"
        )
    if continuation.halt:
        return [ProgramResult(value)]
    return [Send(t, port, value) for t, port in continuation.return_tags()]
