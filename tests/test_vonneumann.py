"""Tests for the von Neumann substrate: assembler, processors, caches,
coherence, atomics, full/empty bits, multithreading."""

import pytest

from repro.common import CompileError, MachineError, SimulationError
from repro.vonneumann import (
    ALU_OPS,
    BRANCH_OPS,
    Cache,
    CacheConfig,
    CacheState,
    Instr,
    MEMORY_OPS,
    Op,
    VNMachine,
    assemble,
    assembler,
    decode,
    programs,
)
from repro.vonneumann.processor import (ALU, ALU_HANDLERS, BRANCH,
                                        BRANCH_HANDLERS, HALT, INVALID,
                                        MEMORY)


class TestAssembler:
    def test_labels_and_branches(self):
        program = assemble("""
            movi r1, 3
        top:
            subi r1, r1, 1
            bnez r1, top
            halt
        """)
        assert len(program) == 4
        assert program[2].target == 1

    def test_store_operand_order(self):
        (instr,) = assemble("store r5, r2, 8")
        assert instr.op is Op.STORE
        assert instr.rd == 5 and instr.ra == 2 and instr.imm == 8

    def test_comments_and_blank_lines(self):
        program = assemble("""
            ; a comment
            nop     ; trailing comment

            halt
        """)
        assert [i.op for i in program] == [Op.NOP, Op.HALT]

    def test_unknown_mnemonic(self):
        with pytest.raises(CompileError, match="unknown mnemonic"):
            assemble("frobnicate r1")

    def test_undefined_label(self):
        with pytest.raises(CompileError, match="undefined label"):
            assemble("jmp nowhere")

    def test_duplicate_label(self):
        with pytest.raises(CompileError, match="duplicate label"):
            assemble("x: nop\nx: halt")

    def test_operand_count_mismatch(self):
        with pytest.raises(CompileError, match="expects"):
            assemble("add r1, r2")

    def test_bad_register(self):
        with pytest.raises(CompileError, match="expected register"):
            assemble("mov r1, 42")


class TestAssemblerMemo:
    SOURCE = """
        movi r2, 4
    top:
        subi r2, r2, 1
        faa  r3, r4, r5
        bnez r2, top
        halt
    """

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(assembler, "_ASSEMBLED", {})
        monkeypatch.setattr(assembler, "_SEEN_ONCE", set())

    def test_repeat_calls_return_fresh_equal_lists(self):
        calls = [assemble(self.SOURCE) for _ in range(3)]
        assert calls[0] == calls[1] == calls[2]
        assert len({id(program) for program in calls}) == 3
        calls[2].append(Instr(Op.NOP))
        calls[2][0] = Instr(Op.HALT)
        assert assemble(self.SOURCE) == calls[0]
        assert len(calls[0]) == 5 and calls[0][0].op is Op.MOVI

    def test_a_text_is_kept_from_its_second_assembly(self):
        assemble(self.SOURCE)
        assert self.SOURCE not in assembler._ASSEMBLED
        assemble(self.SOURCE)
        assert assembler._ASSEMBLED[self.SOURCE] == tuple(
            assemble(self.SOURCE))

    def test_memo_and_seen_set_are_bounded(self, monkeypatch):
        monkeypatch.setattr(assembler, "_ASSEMBLED_MAX", 2)
        monkeypatch.setattr(assembler, "_SEEN_ONCE_MAX", 3)
        texts = [f"movi r1, {k}\nhalt" for k in range(5)]
        for text in texts:
            assemble(text)
            assert len(assembler._SEEN_ONCE) <= 3
        for text in texts:
            assemble(text)
            assemble(text)
            assert len(assembler._ASSEMBLED) <= 2
        assert [assemble(t)[0].imm for t in texts] == list(range(5))

    @pytest.mark.parametrize("source, match", [
        ("frobnicate r1", "unknown mnemonic"),
        ("jmp nowhere", "undefined label"),
        ("add r1, r2", "expects"),
    ])
    def test_malformed_source_raises_every_time(self, source, match):
        for _ in range(3):
            with pytest.raises(CompileError, match=match):
                assemble(source)
        assert source not in assembler._ASSEMBLED

    def test_load_spmd_results_unchanged(self):
        source = programs.shared_counter_faa(1, 4)

        def run(program):
            machine = VNMachine(3, memory="dancehall", latency=3)
            machine.load_spmd(program)
            result = machine.run()
            programs_seen = [p.program for p in machine.processors]
            assert len({id(p) for p in programs_seen}) == 3
            return (result.time, result.instructions, result.counters,
                    machine.peek(1), programs_seen)

        expected = run(assembler._assemble(source))
        for _ in range(3):
            assert run(source) == expected
        assert source in assembler._ASSEMBLED


class TestSingleProcessor:
    def test_array_sum(self):
        machine = VNMachine(1, memory="dancehall", latency=2, memory_time=1)
        for i in range(8):
            machine.poke(100 + i, i * 3)
        machine.add_processor(programs.array_sum(100, 8))
        result = machine.run()
        assert machine.peek(108) == sum(i * 3 for i in range(8))
        assert result.instructions > 8

    def test_alu_coverage(self):
        machine = VNMachine(1, memory="dancehall", latency=1)
        machine.add_processor("""
            movi r2, 7
            movi r3, 3
            add  r4, r2, r3
            sub  r5, r2, r3
            mul  r6, r2, r3
            div  r7, r2, r3
            mod  r8, r2, r3
            and  r9, r2, r3
            or   r10, r2, r3
            xor  r11, r2, r3
            slt  r12, r2, r3
            sle  r13, r3, r3
            seq  r14, r2, r2
            sne  r15, r2, r3
            halt
        """)
        machine.run()
        regs = machine.processors[0].regs
        assert regs[4:16] == [10, 4, 21, 2, 1, 3, 7, 4, 0, 1, 1, 1]

    def test_division_by_zero(self):
        machine = VNMachine(1, memory="dancehall")
        machine.add_processor("""
            movi r2, 1
            movi r3, 0
            div r4, r2, r3
            halt
        """)
        with pytest.raises(MachineError, match="division by zero"):
            machine.run()

    def test_utilization_decays_with_latency(self):
        utils = []
        for latency in (1, 10, 50):
            machine = VNMachine(1, memory="dancehall", latency=latency,
                                memory_time=1)
            machine.add_processor(programs.compute_loop(50, loads_per_iter=1,
                                                        alu_ops_per_iter=4))
            result = machine.run()
            utils.append(result.utilizations[0])
        assert utils[0] > utils[1] > utils[2]
        assert utils[2] < 0.2


class TestAtomics:
    @pytest.mark.parametrize("memory", ["bus", "dancehall"])
    def test_spinlock_mutual_exclusion(self, memory):
        n_procs, increments = 4, 5
        machine = VNMachine(n_procs, memory=memory, memory_time=2, latency=2)
        machine.load_spmd(programs.shared_counter_spinlock(0, 1, increments))
        machine.run()
        assert machine.peek(1) == n_procs * increments

    @pytest.mark.parametrize("memory", ["bus", "dancehall"])
    def test_faa_counter(self, memory):
        n_procs, increments = 4, 6
        machine = VNMachine(n_procs, memory=memory, memory_time=2, latency=2)
        machine.load_spmd(programs.shared_counter_faa(1, increments))
        machine.run()
        assert machine.peek(1) == n_procs * increments

    def test_faa_cheaper_than_spinlock(self):
        def total_time(source):
            machine = VNMachine(8, memory="dancehall", memory_time=2, latency=4)
            machine.load_spmd(source)
            return machine.run().time

        faa = total_time(programs.shared_counter_faa(1, 8))
        lock = total_time(programs.shared_counter_spinlock(0, 1, 8))
        assert faa < lock


class TestFullEmptyBits:
    def test_producer_consumer_correct(self):
        n = 10
        machine = VNMachine(2, memory="dancehall", latency=2, memory_time=1,
                            retry_backoff=4)
        machine.add_processor(programs.producer_per_element(100, n))
        machine.add_processor(programs.consumer_per_element(100, n, 99))
        machine.run()
        assert machine.peek(99) == sum(k * k for k in range(n))

    def test_busy_waiting_generates_retries(self):
        n = 10
        machine = VNMachine(2, memory="dancehall", latency=2, memory_time=1,
                            retry_backoff=4)
        # Slow producer: lots of filler work per element.
        machine.add_processor(programs.producer_per_element(100, n,
                                                            work_per_element=30))
        machine.add_processor(programs.consumer_per_element(100, n, 99,
                                                            work_per_element=0))
        result = machine.run()
        assert result.counters["retries"] > 0
        assert machine.memory.total_retries() == result.counters["retries"]

    def test_whole_array_discipline(self):
        n = 8
        machine = VNMachine(2, memory="dancehall", latency=2, memory_time=1,
                            retry_backoff=4)
        machine.add_processor(programs.producer_whole_array(100, n, 50))
        machine.add_processor(programs.consumer_whole_array(100, n, 50, 99))
        machine.run()
        assert machine.peek(99) == sum(k * k for k in range(n))

    def test_livelocked_consumer_detected_by_event_budget(self):
        machine = VNMachine(1, memory="dancehall", latency=1, retry_backoff=2)
        machine.add_processor("movi r2, 77\nreadf r3, r2, 0\nhalt")
        with pytest.raises(SimulationError, match="budget"):
            machine.run(max_events=5000)


class TestCacheModel:
    def test_fill_and_hit(self):
        cache = Cache(CacheConfig(n_sets=4, assoc=2, line_words=4))
        assert cache.lookup(0) is CacheState.INVALID
        cache.fill(0, CacheState.SHARED)
        assert cache.lookup(0) is CacheState.SHARED
        assert cache.lookup(3) is CacheState.SHARED  # same line
        assert cache.lookup(4) is CacheState.INVALID  # next line

    def test_lru_eviction(self):
        cache = Cache(CacheConfig(n_sets=1, assoc=2, line_words=1))
        cache.fill(0, CacheState.SHARED)
        cache.fill(1, CacheState.SHARED)
        cache.lookup(0)  # touch 0 so 1 is LRU
        cache.fill(2, CacheState.SHARED)
        assert cache.peek_state(0) is CacheState.SHARED
        assert cache.peek_state(1) is CacheState.INVALID
        assert cache.counters["evictions"] == 1

    def test_dirty_eviction_reports_writeback(self):
        cache = Cache(CacheConfig(n_sets=1, assoc=1, line_words=1))
        cache.fill(0, CacheState.MODIFIED)
        victim = cache.fill(1, CacheState.SHARED)
        assert victim is CacheState.MODIFIED
        assert cache.counters["writebacks"] == 1

    def test_invalidate(self):
        cache = Cache(CacheConfig())
        cache.fill(8, CacheState.SHARED)
        assert cache.invalidate(8) is True
        assert cache.invalidate(8) is False
        assert cache.peek_state(8) is CacheState.INVALID


class TestCoherence:
    def _machine(self, n_procs=2, **kwargs):
        defaults = dict(memory="bus", cache_config=CacheConfig(),
                        memory_time=10, bus_time=2)
        defaults.update(kwargs)
        return VNMachine(n_procs, **defaults)

    def test_censier_feautrier_axiom(self):
        """A LOAD returns the latest STORE's value, across processors."""
        machine = self._machine()
        machine.add_processor("""
            movi r2, 40
            movi r3, 123
            store r3, r2, 0
            movi r4, 50
            movi r5, 1
            writef r5, r4, 0   ; signal
            halt
        """)
        machine.add_processor("""
            movi r4, 50
            readf r5, r4, 0    ; wait for the signal
            movi r2, 40
            load r6, r2, 0
            store r6, r2, 1    ; publish what we saw
            halt
        """, regs={})
        machine.run()
        assert machine.peek(41) == 123

    def test_caches_produce_hits_on_reuse(self):
        machine = self._machine(n_procs=1)
        machine.add_processor("""
            movi r2, 16
            load r3, r2, 0
            load r4, r2, 0
            load r5, r2, 0
            halt
        """)
        machine.run()
        assert machine.memory.counters["load_hits"] == 2
        assert machine.memory.counters["bus_read_miss"] == 1

    def test_shared_write_invalidates(self):
        machine = self._machine(n_procs=2, retry_backoff=4)
        machine.add_processor("""
            movi r2, 16
            load r3, r2, 0     ; both caches get the line shared
            movi r4, 7
            store r4, r2, 0    ; upgrade -> invalidate the other copy
            movi r5, 50
            movi r6, 1
            writef r6, r5, 0
            halt
        """)
        machine.add_processor("""
            movi r2, 16
            load r3, r2, 0
            movi r5, 50
            readf r6, r5, 0
            load r7, r2, 0     ; must re-miss: its copy was invalidated
            halt
        """)
        machine.run()
        assert machine.memory.counters["invalidations"] >= 1

    def test_uncached_bus_machine(self):
        machine = VNMachine(2, memory="bus", cache_config=None,
                            memory_time=5, bus_time=1)
        machine.load_spmd(programs.shared_counter_faa(1, 3))
        machine.run()
        assert machine.peek(1) == 6
        assert machine.memory.counters.get("load_hits") == 0


class TestMultithreaded:
    def _latency_machine(self, contexts, latency, iterations=20):
        machine = VNMachine(1, memory="dancehall", latency=latency,
                            memory_time=1)
        source = programs.compute_loop(iterations, loads_per_iter=1,
                                       alu_ops_per_iter=1)
        machine.add_multithreaded_processor(
            [(source, {}) for _ in range(contexts)]
        )
        return machine

    def test_correct_completion(self):
        machine = self._latency_machine(4, latency=10)
        result = machine.run()
        proc = machine.processors[0]
        assert all(c.state == "halted" for c in proc.contexts)
        assert result.instructions > 0

    def test_more_contexts_tolerate_more_latency(self):
        utils = {}
        for contexts in (1, 4, 16):
            machine = self._latency_machine(contexts, latency=20)
            machine.run()
            utils[contexts] = machine.processors[0].utilization()
        assert utils[1] < utils[4] < utils[16]

    def test_context_switch_overhead_counted(self):
        machine = VNMachine(1, memory="dancehall", latency=5, switch_time=1.0)
        source = programs.compute_loop(5)
        machine.add_multithreaded_processor([(source, {}), (source, {})])
        machine.run()
        proc = machine.processors[0]
        assert proc.counters["context_switches"] > 0
        assert proc.switch_cycles > 0


class TestDecode:
    def test_every_op_is_in_exactly_one_class(self):
        classes = [ALU_OPS, BRANCH_OPS, MEMORY_OPS, {Op.HALT}]
        for op in Op:
            assert sum(op in group for group in classes) == 1, op

    def test_handler_tables_cover_alu_and_branch_ops(self):
        assert set(ALU_HANDLERS) == ALU_OPS
        assert set(BRANCH_HANDLERS) == BRANCH_OPS

    def test_decode_gives_each_op_its_kind_and_handler(self):
        program = [Instr(op=op, rd=1, ra=2, rb=3, imm=4, target=0)
                   for op in Op]
        kinds = {ALU: ALU_OPS, BRANCH: BRANCH_OPS, MEMORY: MEMORY_OPS,
                 HALT: {Op.HALT}}
        for (kind, handler, instr), given in zip(decode(program), program):
            op = given.op
            assert instr is given
            assert op in kinds[kind]
            if kind == ALU:
                assert handler is ALU_HANDLERS[op]
            elif kind == BRANCH:
                assert handler is BRANCH_HANDLERS[op]
            elif kind == MEMORY:
                # The register the response lands in, if any.
                writes = op in (Op.LOAD, Op.TESTSET, Op.FAA, Op.READF)
                assert handler == (1 if writes else None)

    class _Bogus:
        """An op outside every class (it still prints like an Op)."""

        name = "BOGUS"
        value = "bogus"

    def test_unknown_op_decodes_invalid_and_raises_when_executed(self):
        bogus = Instr(op=self._Bogus())
        (kind, _handler, instr), = decode([bogus])
        assert kind == INVALID and instr is bogus
        machine = VNMachine(1, memory="dancehall")
        machine.add_processor([Instr(op=Op.MOVI, rd=1, imm=0), bogus])
        with pytest.raises(MachineError, match="proc 0: cannot execute bogus"):
            machine.run()

    def test_unknown_op_raises_on_a_hardware_context(self):
        machine = VNMachine(1, memory="dancehall")
        machine.add_multithreaded_processor(
            [([Instr(op=self._Bogus())], {})])
        with pytest.raises(MachineError, match="proc 0: cannot execute bogus"):
            machine.run()

    @pytest.mark.parametrize("multithreaded", [False, True])
    def test_division_by_zero_names_the_processor(self, multithreaded):
        machine = VNMachine(2, memory="dancehall")
        source = "movi r2, 1\nmovi r3, 0\nhalt"
        failing = "movi r2, 1\nmovi r3, 0\ndiv r4, r2, r3\nhalt"
        machine.add_processor(source)
        if multithreaded:
            machine.add_multithreaded_processor([(source, {}),
                                                 (failing, {})])
        else:
            machine.add_processor(failing)
        with pytest.raises(MachineError,
                           match="proc 1: division by zero"):
            machine.run()


class TestMachineErrors:
    def test_no_processors(self):
        with pytest.raises(MachineError, match="no processors"):
            VNMachine(1).run()

    def test_unknown_memory_kind(self):
        with pytest.raises(MachineError, match="unknown memory"):
            VNMachine(1, memory="drum")
