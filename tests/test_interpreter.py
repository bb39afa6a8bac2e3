"""Tests of the untimed reference interpreter against the hand-built kernels."""

import math

import pytest

from repro.common import DeadlockError, MachineError
from repro.dataflow import Interpreter, run_program
from repro.graph import Opcode, ProgramBuilder
from repro.workloads.handbuilt import (
    build_add_constant,
    build_arith_diamond,
    build_array_pipeline,
    build_factorial,
    build_store_then_fetch,
    build_sum_loop,
)


class TestStraightLine:
    def test_add_constant(self):
        assert run_program(build_add_constant(5), 10) == 15

    def test_diamond(self):
        assert run_program(build_arith_diamond(), 7, 3) == (7 + 3) * (7 - 3)

    def test_diamond_parallelism_profile(self):
        interp = Interpreter(build_arith_diamond())
        interp.run(2, 1)
        # step 1: ADD and SUB fire together; step 2: MUL; step 3: RETURN.
        assert interp.parallelism_profile[1] == 2
        assert interp.critical_path == 3
        assert interp.average_parallelism() == pytest.approx(4 / 3)


class TestRecursion:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (5, 120), (10, 3628800)])
    def test_factorial(self, n, expected):
        assert run_program(build_factorial(), n) == expected
        assert run_program(build_factorial(), n) == math.factorial(max(n, 1))

    def test_factorial_context_depth_grows_with_n(self):
        interp = Interpreter(build_factorial())
        interp.run(8)
        # 8 recursive invocations -> at least 8 levels of critical path.
        assert interp.critical_path > 8


class TestLoops:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 25, 100])
    def test_sum_loop(self, n):
        assert run_program(build_sum_loop(), n) == n * (n + 1) // 2

    def test_loop_iterations_unfold_in_tag_space(self):
        interp = Interpreter(build_sum_loop())
        interp.run(10)
        tag_classes = interp.counters["class_tag"]
        # 3 L + 10 iterations x 3 D + D_INV + L_INV
        assert tag_classes >= 3 + 10 * 3 + 2


class TestIStructures:
    def test_fetch_deferred_until_store(self):
        program = build_store_then_fetch()
        assert run_program(program, 1, "payload") == "payload"

    def test_deferred_read_counted(self):
        interp = Interpreter(build_store_then_fetch())
        interp.run(1, 99)
        assert interp.heap.counters["reads_deferred"] == 1
        assert interp.heap.counters["reads_immediate"] == 0

    @pytest.mark.parametrize("n", [1, 2, 8, 20])
    def test_producer_consumer_pipeline(self, n):
        expected = sum(k * k for k in range(n))
        assert run_program(build_array_pipeline(), n) == expected

    def test_pipeline_overlaps_production_and_consumption(self):
        interp = Interpreter(build_array_pipeline())
        interp.run(16)
        # The consumer's critical path tracks the producer element-by-element
        # rather than waiting for the whole array: depth grows linearly in n
        # but is far below the serialized depth of (producer + consumer).
        serial_depth_estimate = 2 * 16 * 8
        assert interp.critical_path < serial_depth_estimate


class TestErrors:
    def test_entry_arity_mismatch(self):
        with pytest.raises(MachineError, match="takes 1"):
            run_program(build_add_constant(), 1, 2)

    def test_unwritten_cell_deadlocks(self):
        pb = ProgramBuilder()
        b = pb.procedure("stuck")
        alloc = b.emit(Opcode.I_ALLOC)
        fetch = b.emit(Opcode.I_FETCH, constant=0, constant_port=1)
        ret = b.emit(Opcode.RETURN)
        b.wire(alloc, fetch, 0)
        b.wire(fetch, ret, 0)
        b.param((alloc, 0))
        program = pb.build()
        with pytest.raises(DeadlockError) as excinfo:
            run_program(program, 4)
        assert excinfo.value.pending  # names the never-written cell

    def test_switch_with_non_boolean_control(self):
        pb = ProgramBuilder()
        b = pb.procedure("badswitch")
        sw = b.emit(Opcode.SWITCH)
        ret = b.emit(Opcode.RETURN)
        b.wire(sw, ret, 0, side="true")
        b.param((sw, 0))
        b.param((sw, 1))
        with pytest.raises(MachineError, match="not a boolean"):
            run_program(pb.build(), 1, 42)

    def test_division_by_zero_reported_with_tag(self):
        pb = ProgramBuilder()
        b = pb.procedure("divzero")
        div = b.emit(Opcode.DIV, constant=0, constant_port=1)
        ret = b.emit(Opcode.RETURN)
        b.wire(div, ret, 0)
        b.param((div, 0))
        with pytest.raises(MachineError, match="div failed"):
            run_program(pb.build(), 1)

    def test_bounds_violation(self):
        program = build_store_then_fetch()
        with pytest.raises(Exception):  # IStructureError via MachineError chain
            run_program(program, 0, "v")  # size 0, index 0 out of bounds


class TestDeterminism:
    def test_same_inputs_same_profile(self):
        a = Interpreter(build_sum_loop())
        a.run(12)
        b = Interpreter(build_sum_loop())
        b.run(12)
        assert a.parallelism_profile == b.parallelism_profile
        assert a.counters.as_dict() == b.counters.as_dict()
