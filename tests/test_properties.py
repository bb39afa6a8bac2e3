"""Property-based tests (hypothesis) on the core invariants.

These are the laws the architecture's correctness argument rests on:
the I-structure discipline, the tag algebra, FETCH-AND-ADD
serializability, hypercube routing, MSI coherence, and the equivalence of
the two execution engines on arbitrary programs.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import IStructureError, Simulator
from repro.dataflow import (
    HashMapping,
    Interpreter,
    MachineConfig,
    TaggedTokenMachine,
    Tag,
    stable_tag_key,
)
from repro.dataflow.exec_core import execute
from repro.graph import Destination, Instruction, Opcode
from repro.istructure import DEFERRED, IStructureModule
from repro.lang import compile_source
from repro.network import CombiningOmegaNetwork, FetchAddRequest, HypercubeNetwork
from repro.vonneumann import CacheConfig, CacheState, MemRequest, Op, SnoopyBusSystem


# ---------------------------------------------------------------------------
# I-structure discipline
# ---------------------------------------------------------------------------

@st.composite
def cell_histories(draw):
    """A per-cell schedule: some reads, one write at a random position."""
    n_reads = draw(st.integers(min_value=0, max_value=6))
    write_pos = draw(st.integers(min_value=0, max_value=n_reads))
    value = draw(st.integers(min_value=-1000, max_value=1000))
    return n_reads, write_pos, value


class TestIStructureProperties:
    @given(st.lists(cell_histories(), min_size=1, max_size=8))
    def test_every_reader_answered_exactly_once(self, histories):
        module = IStructureModule()
        answered = {}
        for cell, (n_reads, write_pos, value) in enumerate(histories):
            issued = []
            for r in range(n_reads + 1):
                if r == write_pos:
                    for reply in module.write(("c", cell), value):
                        answered.setdefault(reply, []).append(value)
                if r < n_reads:
                    reply_id = (cell, r)
                    issued.append(reply_id)
                    result = module.read(("c", cell), reply_id)
                    if result is not DEFERRED:
                        answered.setdefault(reply_id, []).append(result)
            for reply_id in issued:
                assert answered.get(reply_id) == [value]
        assert module.pending_reads() == 0

    @given(cell_histories(), st.integers(-5, 5))
    def test_second_write_always_rejected(self, history, second_value):
        module = IStructureModule()
        _, _, value = history
        module.write(("x", 0), value)
        with pytest.raises(IStructureError):
            module.write(("x", 0), second_value)


# ---------------------------------------------------------------------------
# Tag algebra
# ---------------------------------------------------------------------------

tags = st.builds(
    Tag,
    context=st.none(),
    code_block=st.sampled_from(["f", "g", "loop$1"]),
    statement=st.integers(0, 50),
    iteration=st.integers(1, 100),
)


class TestTagAlgebra:
    @given(tags, st.integers(0, 50), st.integers(0, 30))
    def test_enter_then_exit_restores_caller_coordinates(self, tag, site, stmt):
        inner = tag.enter(site, "callee", stmt)
        invocation = inner.context
        assert invocation.context is tag.context
        assert invocation.code_block == tag.code_block
        assert invocation.statement == site
        assert invocation.iteration == tag.iteration

    @given(tags, st.integers(0, 50))
    def test_d_then_dinv_normalizes(self, tag, stmt):
        arc = (Destination(stmt, 0),)
        (advanced,) = execute(None, Instruction(Opcode.D, dests=arc), tag,
                              ["v"])
        assert advanced.tag.iteration == tag.iteration + 1
        (reset,) = execute(None, Instruction(Opcode.D_INV, dests=arc),
                           advanced.tag, ["v"])
        assert reset.tag.iteration == 1
        assert reset.tag[:3] == advanced.tag[:3] == (tag.context,
                                                     tag.code_block, stmt)

    @given(tags, st.integers(0, 50), st.integers(0, 30))
    def test_depth_increases_by_one_per_enter(self, tag, site, stmt):
        assert tag.enter(site, "callee", stmt).depth == tag.depth + 1

    @given(tags)
    def test_stable_key_is_deterministic_and_32bit(self, tag):
        key = stable_tag_key(tag)
        assert key == stable_tag_key(tag)
        assert 0 <= key <= 0xFFFFFFFF

    @given(tags, st.integers(1, 64))
    def test_mapping_always_in_range(self, tag, n_pes):
        assert 0 <= HashMapping(n_pes).pe_of(tag) < n_pes


# ---------------------------------------------------------------------------
# FETCH-AND-ADD serializability
# ---------------------------------------------------------------------------

class TestFetchAndAddProperties:
    @given(
        st.integers(1, 4),
        st.data(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hotspot_is_serializable(self, stages, data, combining):
        sim = Simulator()
        net = CombiningOmegaNetwork(sim, stages, combining=combining)
        n = net.n_ports
        values = [
            data.draw(st.integers(1, 9), label=f"v{i}") for i in range(n)
        ]
        memory = {}

        def handler(record, payload):
            old = memory.get(payload.address, 0)
            memory[payload.address] = old + payload.value
            net.reply(record, old)

        observations = []
        for port in range(n):
            net.attach_memory(port, handler)
            net.attach_processor(
                port, lambda payload, old: observations.append(
                    (old, payload.value)
                )
            )
        for src in range(n):
            net.request(src, FetchAddRequest(address=0, value=values[src]))
        sim.run()

        # Sum preserved.
        assert memory[0] == sum(values)
        assert len(observations) == n
        # Serializable: sorted old-values form a chain 0 -> sum.
        observations.sort()
        running = 0
        for old, value in observations:
            assert old == running
            running += value
        assert running == sum(values)


# ---------------------------------------------------------------------------
# Hypercube routing
# ---------------------------------------------------------------------------

class TestHypercubeProperties:
    @given(
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_delivery_with_minimal_hops(self, dimensions, data):
        sim = Simulator()
        net = HypercubeNetwork(sim, dimensions)
        n = net.n_ports
        received = []
        for port in range(n):
            net.attach(port, received.append)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1, max_size=10,
            ),
            label="pairs",
        )
        for src, dst in pairs:
            net.send(src, dst, (src, dst))
        sim.run()
        assert len(received) == len(pairs)
        by_payload = {}
        for packet in received:
            by_payload.setdefault(packet.payload, []).append(packet)
        for (src, dst), packets in by_payload.items():
            for packet in packets:
                assert packet.hops == HypercubeNetwork.minimum_hops(src, dst)
        # No duplication: one delivery per send.
        assert sum(len(v) for v in by_payload.values()) == len(pairs)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_hamming_distance_metric(self, a, b):
        d = HypercubeNetwork.minimum_hops(a, b)
        assert d == HypercubeNetwork.minimum_hops(b, a)
        assert (d == 0) == (a == b)
        assert d == bin(a ^ b).count("1")


# ---------------------------------------------------------------------------
# MSI coherence
# ---------------------------------------------------------------------------

access_ops = st.tuples(
    st.integers(0, 2),  # processor
    st.sampled_from([Op.LOAD, Op.STORE]),
    st.integers(0, 7),  # address (small, to force sharing)
    st.integers(0, 99),  # store value
)


class TestCoherenceProperties:
    @given(st.lists(access_ops, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_censier_feautrier_and_single_writer(self, accesses):
        sim = Simulator()
        system = SnoopyBusSystem(sim, 3, cache_config=CacheConfig(n_sets=2,
                                                                  assoc=1,
                                                                  line_words=2))
        latest = {}
        results = []
        for proc, op, address, value in accesses:
            request = MemRequest(op=op, address=address,
                                 value=value, proc=proc)
            system.access(proc, request,
                          lambda response, a=address, o=op: results.append(
                              (o, a, response)))
            sim.run()  # serialize: each access completes before the next
            if op is Op.STORE:
                latest[address] = value
            else:
                expected = latest.get(address, 0)
                assert results[-1] == (Op.LOAD, address, expected)
            # Single-writer invariant: at most one MODIFIED copy per line.
            for line_address in {a // 2 for _, _, a, _ in accesses}:
                owners = [
                    c for c in system.caches
                    if c.peek_state(line_address * 2) is CacheState.MODIFIED
                ]
                assert len(owners) <= 1


# ---------------------------------------------------------------------------
# Engine equivalence on generated programs
# ---------------------------------------------------------------------------

_RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


@st.composite
def arith_exprs(draw, depth=0, vars_=("x", "y")):
    """Random Id expressions paired with a reference evaluator.

    Returns ``(source, fn)`` where ``fn(env)`` computes the expression's
    value in Python from a variable environment — so the oracle is built
    structurally alongside the source, never re-parsed.
    """
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            value = draw(st.integers(-9, 9))
            # Write negatives as (0 - v): the grammar has no literal sign.
            src = str(value) if value >= 0 else f"(0 - {-value})"
            return src, (lambda env, v=value: v)
        name = draw(st.sampled_from(vars_))
        return name, (lambda env, n=name: env[n])
    kind = draw(st.sampled_from(["bin", "if", "minmax", "let"]))
    if kind == "bin":
        op = draw(st.sampled_from(sorted(_ARITH)))
        left_src, left_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        right_src, right_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        fn = _ARITH[op]
        return (
            f"({left_src} {op} {right_src})",
            lambda env: fn(left_fn(env), right_fn(env)),
        )
    if kind == "minmax":
        name = draw(st.sampled_from(["min", "max"]))
        left_src, left_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        right_src, right_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        fn = min if name == "min" else max
        return (
            f"{name}({left_src}, {right_src})",
            lambda env: fn(left_fn(env), right_fn(env)),
        )
    if kind == "if":
        relation = draw(st.sampled_from(sorted(_RELATIONS)))
        a_src, a_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        b_src, b_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        t_src, t_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        e_src, e_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
        rel_fn = _RELATIONS[relation]
        return (
            f"(if {a_src} {relation} {b_src} then {t_src} else {e_src})",
            lambda env: t_fn(env) if rel_fn(a_fn(env), b_fn(env)) else e_fn(env),
        )
    fresh = f"z{depth}"
    bound_src, bound_fn = draw(arith_exprs(depth=depth + 1, vars_=vars_))
    body_src, body_fn = draw(
        arith_exprs(depth=depth + 1, vars_=vars_ + (fresh,))
    )
    return (
        f"(let {fresh} = {bound_src} in {body_src})",
        lambda env: body_fn({**env, fresh: bound_fn(env)}),
    )


@st.composite
def loop_exprs(draw):
    """Random for-loops with a reference evaluator.

    ``(initial s <- INIT for i from LO to HI do new s <- BODY return s)``
    where BODY may reference x, y, s and i — covering the L/D/D⁻¹/L⁻¹
    schema, invariants and conditionals inside loop bodies.
    """
    init_src, init_fn = draw(arith_exprs(depth=2))
    body_src, body_fn = draw(
        arith_exprs(depth=1, vars_=("x", "y", "s", "i"))
    )
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(-1, 6))
    src = (
        f"(initial s <- {init_src} for i from {lo} to {hi} do "
        f"new s <- {body_src} return s)"
    )

    def fn(env):
        s = init_fn(env)
        for i in range(lo, hi + 1):
            s = body_fn({**env, "s": s, "i": i})
        return s

    return src, fn


class TestEngineEquivalence:
    @given(arith_exprs(), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_interpreter_machine_and_python_agree(self, expr, x, y):
        source_fragment, oracle = expr
        source = f"def main(x, y) = {source_fragment};"
        program = compile_source(source, entry="main")
        expected = oracle({"x": x, "y": y})
        assert Interpreter(program).run(x, y) == expected
        machine = TaggedTokenMachine(program, MachineConfig(n_pes=3))
        assert machine.run(x, y).value == expected

    @given(arith_exprs(), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=15, deadline=None)
    def test_determinism_across_pe_counts(self, expr, x, y):
        source = f"def main(x, y) = {expr[0]};"
        program = compile_source(source, entry="main")
        values = {
            TaggedTokenMachine(program, MachineConfig(n_pes=n)).run(x, y).value
            for n in (1, 2, 5)
        }
        assert len(values) == 1

    @given(loop_exprs(), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_loops_agree_everywhere(self, expr, x, y):
        source_fragment, oracle = expr
        program = compile_source(f"def main(x, y) = {source_fragment};",
                                 entry="main")
        expected = oracle({"x": x, "y": y})
        assert Interpreter(program).run(x, y) == expected
        machine = TaggedTokenMachine(program, MachineConfig(n_pes=2))
        assert machine.run(x, y).value == expected
        from repro.graph import optimize_program

        optimized = optimize_program(program)
        assert Interpreter(optimized).run(x, y) == expected
