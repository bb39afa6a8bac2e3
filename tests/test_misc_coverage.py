"""Odds and ends: value types, reprs, profile flag, table determinism."""

import io

import pytest

from repro.cli import main
from repro.dataflow import Continuation, FunctionRef, Tag, Token, TokenKind
from repro.graph import Destination, Instruction, Opcode
from repro.istructure import StructureRef
from repro.workloads import TRAPEZOID


class TestValueTypes:
    def test_continuation_return_tags(self):
        cont = Continuation(
            context=None, code_block="f", iteration=3,
            dests=(Destination(4, 0), Destination(7, 1)),
        )
        tags = cont.return_tags()
        assert tags == [
            (Tag(None, "f", 4, 3), 0),
            (Tag(None, "f", 7, 3), 1),
        ]

    def test_halt_continuation_is_flagged(self):
        assert Continuation.HALT.halt
        assert repr(Continuation.HALT) == "⊥halt"

    def test_function_ref_repr(self):
        assert repr(FunctionRef("fact")) == "fn:fact"

    def test_structure_ref_repr(self):
        assert repr(StructureRef(3, 8)) == "IS#3[8]"

    def test_tag_repr_mentions_fields(self):
        tag = Tag(None, "main", 5, 2)
        assert "main" in repr(tag) and "5" in repr(tag)

    def test_token_repr_shows_d_field(self):
        tag = Tag(None, "main", 0, 1)
        token = Token(tag, 0, 42, TokenKind.STRUCTURE, nt=1, pe=3)
        assert repr(token).startswith("<d=1,PE=3")


class TestInstructionRepr:
    def test_switch_repr_shows_both_sides(self):
        inst = Instruction(
            Opcode.SWITCH,
            dests=(Destination(1, 0),),
            dests_false=(Destination(2, 0),),
        )
        inst.statement = 0
        text = repr(inst)
        assert "T:" in text and "F:" in text

    def test_immediate_repr(self):
        inst = Instruction(Opcode.ADD, constant=5, constant_port=1)
        inst.statement = 3
        assert "const[1]=5" in repr(inst)


class TestCliProfile:
    def test_profile_flag_prints_histogram(self, tmp_path):
        path = tmp_path / "t.id"
        path.write_text(TRAPEZOID)
        out = io.StringIO()
        code = main(
            ["run", str(path), "--entry", "trapezoid",
             "--args", "0.0", "1.0", "8", "0.125", "--profile"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "parallelism profile" in text
        assert "#" in text


class TestExperimentDeterminism:
    def test_e05_table_is_identical_across_runs(self):
        import sys
        sys.path.insert(0, "benchmarks")
        from bench_e05_fetch_and_add import build_sweep

        experiment = build_sweep([2, 4])
        first = str(experiment.table(experiment.run_inline()))
        second = str(experiment.table(experiment.run_inline()))
        assert first == second

    def test_e11_table_is_identical_across_runs(self):
        import sys
        sys.path.insert(0, "benchmarks")
        from bench_e11_istructure_cost import SWEEPS

        experiment = SWEEPS["e11_istructure_cost"]
        assert (str(experiment.table(experiment.run_inline()))
                == str(experiment.table(experiment.run_inline())))
