"""Operational semantics of every opcode, shared by both execution engines.

:func:`execute` maps (instruction, tag, operands) to a list of *effects*,
through one handler per opcode (:data:`HANDLERS`).
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

from typing import NamedTuple, Tuple

from ..common.errors import MachineError
from ..graph.codeblock import CodeBlock
from ..graph.opcodes import Opcode, PURE_BINARY, PURE_UNARY
from ..istructure.heap import StructureRef
from .tags import Tag
from .values import Continuation, FunctionRef

__all__ = [
    "Send",
    "StructureRead",
    "StructureWrite",
    "StructureAlloc",
    "ProgramResult",
    "assemble_operands",
    "execute",
    "handler_of",
]


class Send(NamedTuple):
    """Deliver ``value`` as a token to (``tag``, ``port``)."""

    tag: Tag
    port: int
    value: object


class StructureRead(NamedTuple):
    """A SELECT turned FETCH: read ``ref[index]``, reply to ``replies``."""

    ref: StructureRef
    index: int
    replies: Tuple[Tuple[Tag, int], ...]


class StructureWrite(NamedTuple):
    """An APPEND turned STORE: write ``ref[index] = value``."""

    ref: StructureRef
    index: int
    value: object


class StructureAlloc(NamedTuple):
    """Allocate a structure of ``size`` cells; send the ref to ``replies``."""

    size: int
    replies: Tuple[Tuple[Tag, int], ...]


class ProgramResult(NamedTuple):
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
    return handler_of(instruction.opcode)(program, instruction, tag,
                                          operands)


def handler_of(opcode):
    """The function that executes ``opcode``:
    ``handler(program, instruction, tag, operands) -> effects``.

    The timed machine looks it up once per instruction when it decodes
    it, so a firing calls it directly, with no per-firing opcode hash.
    """
    return HANDLERS.get(opcode, _unimplemented)


def _unimplemented(program, instruction, tag, operands):
    raise MachineError(f"unimplemented opcode {instruction.opcode!r}")


def _binary(fn):
    def handler(program, instruction, tag, operands):
        try:
            value = fn(operands[0], operands[1])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MachineError(
                f"{instruction.opcode.value} failed at {tag!r}: {exc}"
            ) from exc
        return _fanout(tag, instruction.dests, value)
    return handler


def _unary(fn):
    def handler(program, instruction, tag, operands):
        try:
            value = fn(operands[0])
        except (TypeError, ValueError) as exc:
            raise MachineError(
                f"{instruction.opcode.value} failed at {tag!r}: {exc}"
            ) from exc
        return _fanout(tag, instruction.dests, value)
    return handler


def _constant(program, instruction, tag, operands):
    return _fanout(tag, instruction.dests, instruction.literal)


def _gate(program, instruction, tag, operands):
    return _fanout(tag, instruction.dests, operands[0])


def _sink(program, instruction, tag, operands):
    return []


def _switch(program, instruction, tag, operands):
    control = operands[1]
    if not isinstance(control, bool):
        raise MachineError(
            f"SWITCH control at {tag!r} is {control!r}, not a boolean"
        )
    side = instruction.dests if control else instruction.dests_false
    return _fanout(tag, side, operands[0])


def _d(program, instruction, tag, operands):
    next_iteration = tag.next_iteration
    return [
        Send(next_iteration(s), p, operands[0])
        for s, p in _dest_pairs(instruction.dests)
    ]


def _d_inv(program, instruction, tag, operands):
    reset_iteration = tag.reset_iteration
    return [
        Send(reset_iteration(s), p, operands[0])
        for s, p in _dest_pairs(instruction.dests)
    ]


def _l(program, instruction, tag, operands):
    loop = program.block(instruction.target_block)
    targets = loop.param_targets[instruction.param_index]
    site = instruction.site
    name = loop.name
    return [
        Send(tag.enter(site, name, s), p, operands[0])
        for s, p in _dest_pairs(targets)
    ]


def _l_inv(program, instruction, tag, operands):
    return _loop_exit(program, instruction, tag, operands[0])


def _return_op(program, instruction, tag, operands):
    return _return(operands[0], operands[1], tag)


def _i_alloc(program, instruction, tag, operands):
    size = operands[0]
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise MachineError(f"I_ALLOC at {tag!r}: bad size {size!r}")
    return [StructureAlloc(size, _reply_arcs(tag, instruction.dests))]


def _i_fetch(program, instruction, tag, operands):
    ref, index = operands
    _check_ref(ref, tag)
    ref.check_index(index)
    return [StructureRead(ref, index, _reply_arcs(tag, instruction.dests))]


def _i_store(program, instruction, tag, operands):
    ref, index, value = operands
    _check_ref(ref, tag)
    ref.check_index(index)
    effects = [StructureWrite(ref, index, value)]
    # The onward arcs carry an *issue* signal (stores are one-way d=1
    # tokens; the paper has no store acknowledgement).
    effects.extend(_fanout(tag, instruction.dests, value))
    return effects


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
    restored_base = Tag(
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


#: Opcode -> handler, built once at import (see :func:`handler_of`).
HANDLERS = {
    **{opcode: _binary(fn) for opcode, fn in PURE_BINARY.items()},
    **{opcode: _unary(fn) for opcode, fn in PURE_UNARY.items()},
    Opcode.CONSTANT: _constant,
    Opcode.GATE: _gate,
    Opcode.SINK: _sink,
    Opcode.SWITCH: _switch,
    Opcode.D: _d,
    Opcode.D_INV: _d_inv,
    Opcode.L: _l,
    Opcode.L_INV: _l_inv,
    Opcode.CALL: _call,
    Opcode.RETURN: _return_op,
    Opcode.I_ALLOC: _i_alloc,
    Opcode.I_FETCH: _i_fetch,
    Opcode.I_STORE: _i_store,
}
