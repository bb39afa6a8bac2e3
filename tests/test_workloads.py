"""The Id workload library: both engines vs. the Python references."""

import hashlib

import pytest

from repro.dataflow import (ByContextMapping, Interpreter, MachineConfig,
                            TaggedTokenMachine)
from repro.graph import format_program, optimize_program
from repro.lang import compile_source
from repro.workloads import WORKLOADS, compile_workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_interpreter_matches_reference(name):
    program, reference, args = compile_workload(name)
    interp = Interpreter(program)
    assert interp.run(*args) == pytest.approx(reference(*args))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_machine_matches_reference(name):
    program, reference, args = compile_workload(name)
    machine = TaggedTokenMachine(program, MachineConfig(n_pes=4))
    assert machine.run(*args).value == pytest.approx(reference(*args))


class TestWavefrontSemantics:
    def test_rows_overlap(self):
        """Wavefront rows are produced and consumed concurrently: the
        critical path is O(n), not O(n^2)."""
        program, _, _ = compile_workload("wavefront")
        n = 8
        interp = Interpreter(program)
        interp.run(n)
        ops_per_cell = interp.instructions_executed / (n * n)
        # Serial execution would have depth ~ instructions; the wavefront
        # should cut that by a factor approaching the mean parallelism.
        assert interp.average_parallelism() > 3.0
        assert ops_per_cell < 60

    def test_deferred_reads_prove_out_of_order_access(self):
        program, _, _ = compile_workload("wavefront")
        interp = Interpreter(program)
        interp.run(6)
        # At least some interior reads race ahead of their producers.
        assert interp.heap.counters["reads_deferred"] > 0

    def test_small_cases_by_hand(self):
        from repro.workloads import wavefront_reference

        # n=3: interior fills to [[2,3],[3,6]] from unit borders.
        assert wavefront_reference(2) == 2
        assert wavefront_reference(3) == 6
        assert wavefront_reference(4) == 20


class TestScaling:
    def test_matmul_speeds_up_with_pes(self):
        program, _, _ = compile_workload("matmul")
        times = {}
        for n_pes in (1, 8):
            machine = TaggedTokenMachine(program, MachineConfig(n_pes=n_pes))
            times[n_pes] = machine.run(4).time
        assert times[8] < times[1]

    def test_fib_exposes_tree_parallelism(self):
        program, _, _ = compile_workload("fib")
        interp = Interpreter(program)
        interp.run(12)
        assert interp.average_parallelism() > 4.0


class TestJacobi:
    @pytest.mark.parametrize("n,steps,probe", [(8, 1, 4), (10, 4, 5), (6, 3, 1)])
    def test_matches_reference(self, n, steps, probe):
        from repro.workloads import jacobi_reference

        program, _, _ = compile_workload("jacobi")
        assert Interpreter(program).run(n, steps, probe) == pytest.approx(
            jacobi_reference(n, steps, probe)
        )

    def test_array_refs_circulate_through_loop(self):
        program, _, _ = compile_workload("jacobi")
        interp = Interpreter(program)
        interp.run(8, 3, 4)
        # One fresh structure per step plus the initial vector.
        assert interp.allocator.allocated == 4


class TestSharedProgram:
    """``compile_workload`` hands every caller the same ``Program``: no
    engine, mapping, fault plan or optimizer pass may change it."""

    FAULTS = {"seed": 3, "mem_slow_rate": 0.5, "mem_slow_cycles": 16.0,
              "pe_stall_rate": 0.1, "pe_stall_cycles": 2.0,
              "net_delay_rate": 0.2, "net_delay_cycles": 8.0}

    @staticmethod
    def _digest(program):
        parts = [repr(program.entry), sorted(vars(program)),
                 format_program(program)]
        for name in sorted(program.blocks):
            block = program.blocks[name]
            parts.append((name, sorted(vars(block)), block.kind,
                          block.parent_block, block.param_targets,
                          block.exit_dests, block.return_statement))
            parts.extend((repr(i), sorted(vars(i))) for i in block)
        return hashlib.sha256(repr(parts).encode()).hexdigest()

    def _runs(self, program, args):
        runs = [Interpreter(program).run(*args)]
        for mapping in (None, ByContextMapping):
            for faults in (None, self.FAULTS):
                config = MachineConfig(n_pes=4, mapping_factory=mapping,
                                       fault_plan=faults)
                result = TaggedTokenMachine(program, config).run(*args)
                runs.append((result.value, result.time, result.counters))
        runs.append(format_program(optimize_program(program)))
        return runs

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_runs_leave_the_shared_program_unchanged(self, name):
        program, _, args = compile_workload(name)
        before = self._digest(program)
        got = self._runs(program, args)
        assert self._digest(program) == before
        assert compile_workload(name)[0] is program
        source, entry, _, _ = WORKLOADS[name]
        fresh = compile_source(source, entry=entry)
        assert self._digest(fresh) == before
        assert got == self._runs(fresh, args)
