"""Direct unit tests of the shared opcode semantics (exec_core)."""

import pytest

from repro.common import MachineError
from repro.dataflow import Tag
from repro.dataflow.exec_core import (
    ProgramResult,
    Send,
    StructureAlloc,
    StructureRead,
    StructureWrite,
    HANDLERS,
    assemble_operands,
    execute,
    handler_of,
)
from repro.dataflow.values import Continuation, FunctionRef, StructureRef
from repro.graph import Destination, Instruction, Opcode, ProgramBuilder


def minimal_program():
    pb = ProgramBuilder()
    b = pb.procedure("f")
    ident = b.emit(Opcode.IDENT)
    ret = b.emit(Opcode.RETURN)
    b.wire(ident, ret, 0)
    b.param((ident, 0))
    return pb.build()


ROOT = Tag(None, "f", 0, 1)


class TestAssembleOperands:
    def test_plain(self):
        inst = Instruction(Opcode.ADD)
        assert assemble_operands(inst, {0: 2, 1: 3}) == [2, 3]

    def test_immediate_folded_in(self):
        inst = Instruction(Opcode.SUB, constant=1, constant_port=1)
        assert assemble_operands(inst, {0: 10}) == [10, 1]

    def test_immediate_on_port_zero(self):
        inst = Instruction(Opcode.SUB, constant=100, constant_port=0)
        assert assemble_operands(inst, {1: 1}) == [100, 1]

    def test_missing_operand_raises(self):
        inst = Instruction(Opcode.ADD)
        with pytest.raises(MachineError, match="without operand"):
            assemble_operands(inst, {0: 2})


class TestDispatch:
    def test_every_opcode_has_a_handler(self):
        assert set(HANDLERS) == set(Opcode)

    def test_unknown_opcode_raises_at_execution(self):
        class Stray:
            opcode = "no-such-opcode"

        handler = handler_of(Stray.opcode)  # looking it up never fails
        with pytest.raises(MachineError, match="unimplemented opcode"):
            handler(minimal_program(), Stray(), ROOT, [])
        with pytest.raises(MachineError, match="unimplemented opcode"):
            execute(minimal_program(), Stray(), ROOT, [])


class TestPureExecution:
    def test_add_fans_out(self):
        program = minimal_program()
        inst = Instruction(Opcode.ADD,
                           dests=(Destination(0, 0), Destination(1, 0)))
        effects = execute(program, inst, ROOT, [2, 3])
        assert effects == [
            Send(ROOT.at_statement(0), 0, 5),
            Send(ROOT.at_statement(1), 0, 5),
        ]

    def test_unary(self):
        program = minimal_program()
        inst = Instruction(Opcode.NEG, dests=(Destination(0, 0),))
        (effect,) = execute(program, inst, ROOT, [7])
        assert effect.value == -7

    def test_type_error_carries_tag(self):
        program = minimal_program()
        inst = Instruction(Opcode.ADD, dests=(Destination(0, 0),))
        with pytest.raises(MachineError, match="add failed"):
            execute(program, inst, ROOT, [1, "nope"])

    def test_integer_division_stays_exact(self):
        program = minimal_program()
        inst = Instruction(Opcode.DIV, dests=(Destination(0, 0),))
        (a,) = execute(program, inst, ROOT, [10, 2])
        assert a.value == 5 and isinstance(a.value, int)
        (b,) = execute(program, inst, ROOT, [10, 4])
        assert b.value == 2.5


class TestControl:
    def test_switch_routes_by_side(self):
        program = minimal_program()
        inst = Instruction(Opcode.SWITCH, dests=(Destination(0, 0),),
                           dests_false=(Destination(1, 0),))
        (true_effect,) = execute(program, inst, ROOT, ["v", True])
        assert true_effect.tag.statement == 0
        (false_effect,) = execute(program, inst, ROOT, ["v", False])
        assert false_effect.tag.statement == 1

    def test_switch_empty_side_produces_nothing(self):
        program = minimal_program()
        inst = Instruction(Opcode.SWITCH, dests=(Destination(0, 0),))
        assert execute(program, inst, ROOT, ["v", False]) == []

    def test_sink_absorbs(self):
        program = minimal_program()
        inst = Instruction(Opcode.SINK)
        assert execute(program, inst, ROOT, ["anything"]) == []

    def test_gate_passes_data_not_trigger(self):
        program = minimal_program()
        inst = Instruction(Opcode.GATE, dests=(Destination(0, 0),))
        (effect,) = execute(program, inst, ROOT, ["data", "trigger"])
        assert effect.value == "data"

    def test_constant_emits_literal(self):
        program = minimal_program()
        inst = Instruction(Opcode.CONSTANT, literal=42,
                           dests=(Destination(0, 0),))
        (effect,) = execute(program, inst, ROOT, ["trigger"])
        assert effect.value == 42


class TestLinkage:
    def test_dynamic_call_through_function_ref(self):
        program = minimal_program()
        inst = Instruction(Opcode.CALL, arg_count=1,
                           dests=(Destination(1, 0),))
        effects = execute(program, inst, ROOT, [FunctionRef("f"), 99])
        sends = {(e.tag.code_block, e.tag.statement, e.port) for e in effects}
        assert ("f", 0, 0) in sends  # the argument
        assert ("f", 1, 1) in sends  # the continuation
        continuation = [e.value for e in effects
                        if isinstance(e.value, Continuation)][0]
        assert continuation.dests == (Destination(1, 0),)

    def test_dynamic_call_with_non_function_raises(self):
        program = minimal_program()
        inst = Instruction(Opcode.CALL, arg_count=1)
        with pytest.raises(MachineError, match="not a procedure value"):
            execute(program, inst, ROOT, [123, 99])

    def test_call_arity_mismatch_raises(self):
        program = minimal_program()
        inst = Instruction(Opcode.CALL, target_block="f", arg_count=2)
        with pytest.raises(MachineError, match="takes 1"):
            execute(program, inst, ROOT, [1, 2])

    def test_return_to_halt_produces_program_result(self):
        program = minimal_program()
        inst = Instruction(Opcode.RETURN)
        (effect,) = execute(program, inst, ROOT, [5, Continuation.HALT])
        assert effect == ProgramResult(5)

    def test_return_without_continuation_raises(self):
        program = minimal_program()
        inst = Instruction(Opcode.RETURN)
        with pytest.raises(MachineError, match="not a continuation"):
            execute(program, inst, ROOT, [5, "oops"])

    def test_l_inv_at_root_context_raises(self):
        pb = ProgramBuilder()
        main = pb.procedure("m")
        l1 = main.emit(Opcode.L, target_block="loop", site=1, param_index=0)
        ret = main.emit(Opcode.RETURN)
        main.param((l1, 0))
        loop = pb.loop("loop", parent_block="m")
        ident = loop.emit(Opcode.IDENT)
        exit_ = loop.emit(Opcode.L_INV, param_index=0)
        loop.wire(ident, exit_, 0)
        loop.param((ident, 0))
        loop.exit((ret, 0))
        program = pb.build()
        inst = program.block("loop").instruction(exit_)
        bad_tag = Tag(None, "loop", exit_, 1)  # no enclosing context
        with pytest.raises(MachineError, match="no enclosing context"):
            execute(program, inst, bad_tag, [0])


class TestStructureEffects:
    def test_fetch_effect_carries_reply_arcs(self):
        program = minimal_program()
        ref = StructureRef(sid=9, size=4)
        inst = Instruction(Opcode.I_FETCH, dests=(Destination(1, 0),))
        (effect,) = execute(program, inst, ROOT, [ref, 2])
        assert isinstance(effect, StructureRead)
        assert effect.index == 2
        assert effect.replies == ((ROOT.at_statement(1), 0),)

    def test_store_emits_write_plus_issue_signal(self):
        program = minimal_program()
        ref = StructureRef(sid=9, size=4)
        inst = Instruction(Opcode.I_STORE, dests=(Destination(0, 0),))
        write, signal = execute(program, inst, ROOT, [ref, 1, "v"])
        assert isinstance(write, StructureWrite)
        assert write.value == "v"
        assert isinstance(signal, Send)

    def test_alloc_checks_size(self):
        program = minimal_program()
        inst = Instruction(Opcode.I_ALLOC, dests=(Destination(0, 0),))
        (effect,) = execute(program, inst, ROOT, [16])
        assert isinstance(effect, StructureAlloc) and effect.size == 16
        for bad in (-1, 2.5, True, "x"):
            with pytest.raises(MachineError, match="bad size"):
                execute(program, inst, ROOT, [bad])

    def test_fetch_on_non_ref_raises(self):
        program = minimal_program()
        inst = Instruction(Opcode.I_FETCH)
        with pytest.raises(MachineError, match="non-structure"):
            execute(program, inst, ROOT, [42, 0])

    def test_out_of_bounds_index_raises(self):
        program = minimal_program()
        ref = StructureRef(sid=1, size=2)
        inst = Instruction(Opcode.I_FETCH, dests=(Destination(0, 0),))
        with pytest.raises(Exception):
            execute(program, inst, ROOT, [ref, 5])
