"""PE internals: classification, matching hazards, structure homing,
controller allocation, and machine configuration edge cases."""

import pytest

from repro.common import MachineError
from repro.dataflow import (
    MachineConfig,
    TaggedTokenMachine,
    Tag,
    Token,
    TokenKind,
)
from repro.dataflow.pe import AllocRequest
from repro.graph import Opcode, ProgramBuilder
from repro.istructure import ReadRequest, WriteRequest
from repro.network import IdealNetwork
from repro.workloads.handbuilt import build_arith_diamond


def diamond_machine(n_pes=2, **config_kwargs):
    return TaggedTokenMachine(
        build_arith_diamond(), MachineConfig(n_pes=n_pes, **config_kwargs)
    )


class TestTokenClassification:
    def test_needs_partner_only_for_multi_operand_normals(self):
        tag = Tag(None, "diamond", 0, 1)
        assert Token(tag, 0, 1, TokenKind.NORMAL, nt=2).needs_partner
        assert not Token(tag, 0, 1, TokenKind.NORMAL, nt=1).needs_partner
        assert not Token(tag, 0, 1, TokenKind.STRUCTURE, nt=2).needs_partner

    def test_unknown_control_request_raises(self):
        machine = diamond_machine()
        pe = machine.pes[0]
        with pytest.raises(MachineError, match="unknown control request"):
            pe._control("garbage")


class TestMatchingHazards:
    def test_duplicate_token_detected(self):
        machine = diamond_machine(n_pes=1)
        pe = machine.pes[0]
        tag = Tag(None, "diamond", 0, 1)
        token = Token(tag, 0, 1, TokenKind.NORMAL, nt=2, pe=0)
        pe.receive(token)
        pe.receive(token)
        with pytest.raises(MachineError, match="duplicate token"):
            machine.sim.run()

    def test_occupancy_tracks_parked_tokens(self):
        machine = diamond_machine(n_pes=1)
        pe = machine.pes[0]
        tag = Tag(None, "diamond", 2, 1)  # MUL needs two operands
        pe.receive(Token(tag, 0, 1, TokenKind.NORMAL, nt=2, pe=0))
        machine.sim.run()
        assert pe._waiting_tokens() == 1
        assert pe.counters["tokens_parked"] == 1
        pe.receive(Token(tag, 1, 2, TokenKind.NORMAL, nt=2, pe=0))
        machine.sim.run()
        assert pe.counters["matches"] == 1
        # MUL fired and its result now parks at RETURN awaiting the
        # continuation (which this hand-driven test never injected).
        assert pe._waiting_tokens() == 1


class TestStructureHoming:
    def test_structure_requests_carry_home_pe(self):
        machine = diamond_machine(n_pes=4)
        pe = machine.pes[0]
        tag = Tag(None, "diamond", 0, 1)
        ref = machine.allocate_structure(8, on_pe=0)
        from repro.dataflow.exec_core import StructureRead

        effect = StructureRead(ref, 5, replies=((tag, 0),))
        pe._emit(effect, tag)
        machine.sim.run()
        # The d=1 token went to interleave_home(ref, 5, 4).
        from repro.istructure import interleave_home

        home = interleave_home(ref, 5, 4)
        total_pending = sum(p.istructure.pending_reads for p in machine.pes)
        assert total_pending == 1
        assert machine.pes[home].istructure.pending_reads == 1

    def test_controller_allocation_delivers_ref(self):
        machine = diamond_machine(n_pes=2)
        pe = machine.pes[1]
        # Ask the PE controller to allocate and reply into MUL port 0.
        reply_tag = Tag(None, "diamond", 2, 1)
        request = AllocRequest(size=6, replies=((reply_tag, 0),))
        pe.receive(Token(reply_tag, 0, request, TokenKind.CONTROL, pe=1))
        machine.sim.run()
        assert machine.counters["structures_allocated"] == 1
        # The StructureRef landed in some PE's matching store (MUL nt=2).
        parked = sum(p._waiting_tokens() for p in machine.pes)
        assert parked == 1


class TestMachineConfigEdges:
    def test_zero_pes_rejected(self):
        with pytest.raises(MachineError, match="at least one PE"):
            TaggedTokenMachine(build_arith_diamond(), MachineConfig(n_pes=0))

    def test_network_smaller_than_machine_rejected(self):
        config = MachineConfig(
            n_pes=4, network_factory=lambda sim, n: IdealNetwork(sim, 2)
        )
        with pytest.raises(MachineError, match="ports"):
            TaggedTokenMachine(build_arith_diamond(), config)

    def test_entry_arity_checked(self):
        machine = diamond_machine()
        with pytest.raises(MachineError, match="takes 2"):
            machine.run(1)

    def test_local_loopback_disable_routes_everything(self):
        on = diamond_machine(n_pes=1, local_loopback=True).run(3, 2)
        off_machine = diamond_machine(n_pes=1, local_loopback=False)
        off = off_machine.run(3, 2)
        assert on.value == off.value == 5
        assert on.counters.get("tokens_network", 0) == 0
        assert off.counters.get("tokens_local", 0) == 0
        assert off.counters["tokens_network"] > 0

    def test_result_only_once(self):
        machine = diamond_machine()
        machine.run(1, 1)
        with pytest.raises(MachineError, match="more than once"):
            machine._program_result(99)


class TestSinglePEStillWorks:
    def test_all_units_on_one_pe(self):
        pb = ProgramBuilder()
        b = pb.procedure("f")
        alloc = b.emit(Opcode.I_ALLOC)
        store = b.emit(Opcode.I_STORE, constant=0, constant_port=1)
        fetch = b.emit(Opcode.I_FETCH, constant=0, constant_port=1)
        ret = b.emit(Opcode.RETURN)
        b.wire(alloc, store, 0)
        b.wire(alloc, fetch, 0)
        b.wire(fetch, ret, 0)
        b.param((alloc, 0))
        b.param((store, 2))
        machine = TaggedTokenMachine(pb.build(), MachineConfig(n_pes=1))
        assert machine.run(1, "payload").value == "payload"
