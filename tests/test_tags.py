"""Tags as values: equality, immutability, pickling, and the pinned
``repr`` and mapping keys that traces and PE placement depend on."""

import pickle
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import (
    ByContextMapping,
    HashMapping,
    MachineConfig,
    Tag,
    TaggedTokenMachine,
    Token,
    TokenKind,
    stable_tag_key,
)
from repro.workloads.handbuilt import build_arith_diamond

OUTER = Tag(None, "main", 3, 1)
INNER = Tag(OUTER, "f", 7, 2)

#: (context, code block, statement, iteration) for a small grid of
#: nested tags, in the order of the pinned values below.
GRID = [Tag(context, block, statement, iteration)
        for context in (None, OUTER, INNER)
        for block, statement, iteration in (("main", 0, 1), ("f", 5, 4),
                                            ("loop", 12, 3))]

#: stable_tag_key over GRID.  A value that moves means every hash-mapped
#: token lands on a different PE: re-record only for an intended change.
GRID_KEYS = [807321026, 3713186332, 3266747662, 1659108792, 3884013066,
             806931380, 1472325963, 1968036153, 474411415]

#: ByContextMapping(7).pe_of over GRID, with and without iteration
#: spreading.
GRID_CONTEXT_PES = [6, 1, 0, 3, 0, 5, 2, 4, 5]
GRID_CONTEXT_PES_FLAT = [0, 3, 3, 1, 4, 5, 0, 2, 3]


class TestTagValues:
    def test_separately_built_tags_are_equal_and_hash_alike(self):
        first = Tag(Tag(None, "main", 3, 1), "f", 7, 2)
        second = Tag(Tag(None, "main", 9, 1).enter(3, "f", 0).context,
                     "f", 7, 2)
        assert first is not second
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert {first: "x"}[second] == "x"
        assert first != Tag(OUTER, "f", 7, 3)

    def test_separately_built_tags_meet_in_the_match_store(self):
        machine = TaggedTokenMachine(build_arith_diamond(),
                                     MachineConfig(n_pes=1))
        pe = machine.pes[0]
        left = Tag(None, "diamond", 2, 1)  # MUL needs two operands
        right = Tag(None, "diamond", 0, 1).at_statement(2)
        assert left is not right
        pe.receive(Token(left, 0, 3, TokenKind.NORMAL, nt=2, pe=0))
        machine.sim.run()
        assert list(pe._match_store) == [left]
        pe.receive(Token(right, 1, 4, TokenKind.NORMAL, nt=2, pe=0))
        machine.sim.run()
        assert pe.counters["matches"] == 1
        assert left not in pe._match_store

    def test_fields_are_read_only(self):
        tag = Tag(OUTER, "f", 7, 2)
        assert (tag.context, tag.code_block, tag.statement,
                tag.iteration) == (OUTER, "f", 7, 2)
        assert Tag(None, "f", 1).iteration == 1
        for name in ("context", "code_block", "statement", "iteration"):
            with pytest.raises(AttributeError):
                setattr(tag, name, 0)
            with pytest.raises(AttributeError):
                delattr(tag, name)
        with pytest.raises(AttributeError):
            tag.extra = 1

    def test_pickle_round_trips(self):
        tag = Tag(INNER, "loop", 12, 3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(tag, protocol))
            assert type(copy) is Tag
            assert copy == tag
            assert copy.context.context == OUTER
            assert repr(copy) == repr(tag)

    def test_repr_is_pinned(self):
        assert repr(Tag(None, "main", 0, 1)) == "⟨·,main,0,1⟩"
        assert repr(Tag(INNER, "loop", 12, 3)) == "⟨u145d,loop,12,3⟩"
        assert repr(INNER.enter(4, "g", 0)) == "⟨u66f3,g,0,1⟩"
        assert str(INNER) == repr(INNER)


class TestMappingKeys:
    def test_stable_tag_key_is_pinned(self):
        assert [stable_tag_key(tag) for tag in GRID] == GRID_KEYS

    def test_mappings_are_pinned(self):
        hashed = HashMapping(7)
        assert [hashed.pe_of(tag) for tag in GRID] == \
            [key % 7 for key in GRID_KEYS]
        assert [ByContextMapping(7).pe_of(tag) for tag in GRID] == \
            GRID_CONTEXT_PES
        flat = ByContextMapping(7, spread_iterations=False)
        assert [flat.pe_of(tag) for tag in GRID] == GRID_CONTEXT_PES_FLAT


def reference_key(tag):
    """The root-first fold, written out: from the seed, each chain node
    from the outermost context down folds (crc32 of its code block,
    statement, iteration) in."""
    nodes = []
    while tag is not None:
        nodes.append(tag)
        tag = tag.context
    h = 0x811C9DC5
    for node in reversed(nodes):
        for value in (zlib.crc32(node.code_block.encode("utf-8")),
                      node.statement, node.iteration):
            h = (h * 1000003 ^ value) & 0xFFFFFFFF
    return h


def reference_context_pe(tag, n_pes, spread_iterations=True):
    """ByContextMapping's PE: the code block's crc32, and the iteration
    when spreading, folded onto the context's key."""
    h = reference_key(tag.context)
    h = (h * 1000003 ^ zlib.crc32(tag.code_block.encode("utf-8"))) \
        & 0xFFFFFFFF
    if spread_iterations:
        h = (h * 1000003 ^ tag.iteration) & 0xFFFFFFFF
    return h % n_pes


def chain(depth, block="f"):
    """One context chain ``depth`` tags deep, built iteratively."""
    tag = None
    for level in range(depth):
        tag = Tag(tag, block, level % 7, level % 3 + 1)
    return tag


nodes = st.tuples(st.sampled_from(["main", "f", "loop", "é", ""]),
                  st.integers(0, 2 ** 31), st.integers(1, 2 ** 31))


class TestRootFirstKey:
    @settings(max_examples=200, deadline=None)
    @given(path=st.lists(nodes, min_size=1, max_size=12),
           n_pes=st.integers(1, 64))
    def test_matches_the_reference_fold(self, path, n_pes):
        tag = None
        for block, statement, iteration in path:
            tag = Tag(tag, block, statement, iteration)
        assert stable_tag_key(tag) == reference_key(tag)
        assert HashMapping(n_pes).pe_of(tag) == reference_key(tag) % n_pes
        for spread in (True, False):
            assert ByContextMapping(n_pes, spread).pe_of(tag) == \
                reference_context_pe(tag, n_pes, spread)

    def test_deep_chain_keys_without_recursion(self):
        deep = Tag(chain(5000), "leaf", 1, 2)
        key = reference_key(deep)
        assert stable_tag_key(deep) == key
        assert HashMapping(8).pe_of(deep) == key % 8
        assert ByContextMapping(8).pe_of(deep) == \
            reference_context_pe(deep, 8)


def _memo_tags():
    contexts = [OUTER, INNER, Tag(INNER, "g", 1, 5), Tag(OUTER, "h", 2, 1),
                chain(40)]
    return [Tag(context, "loop", 12, iteration)
            for context in contexts for iteration in (1, 2)] + GRID


def _expected(mapping, tag):
    if isinstance(mapping, HashMapping):
        return reference_key(tag) % mapping.n_pes
    return reference_context_pe(tag, mapping.n_pes,
                                mapping.spread_iterations)


class TestContextKeyMemo:
    @pytest.mark.parametrize("make", [lambda: HashMapping(7),
                                      lambda: ByContextMapping(7),
                                      lambda: ByContextMapping(7, False)],
                             ids=["hash", "context", "context-flat"])
    def test_cold_and_warm_memo_agree(self, make):
        tags = _memo_tags()
        mapping = make()
        cold = [mapping.pe_of(tag) for tag in tags]
        warm = [mapping.pe_of(tag) for tag in tags]
        assert cold == warm == [_expected(mapping, tag) for tag in tags]
        # every tag a cold mapping meets first, in the reverse order
        assert [make().pe_of(tag) for tag in reversed(tags)] == cold[::-1]

    def test_equal_contexts_share_one_entry(self):
        first = Tag(Tag(None, "main", 3, 1), "f", 7, 2)
        second = Tag(Tag(None, "main", 9, 1).enter(3, "f", 0).context,
                     "f", 7, 2)
        assert first == second and first is not second
        for mapping in (HashMapping(7), ByContextMapping(7)):
            pes = [mapping.pe_of(Tag(first, "loop", 12, 3)),
                   mapping.pe_of(Tag(second, "loop", 12, 3))]
            # the root, the outer context and the one equal pair
            assert list(mapping._context_keys) == \
                [None, Tag(None, "main", 3, 1), first]
            assert pes[0] == pes[1] == \
                _expected(mapping, Tag(INNER, "loop", 12, 3))

    def test_overflow_clears_without_moving_any_pe(self, monkeypatch):
        from repro.dataflow import mapping as mapping_module
        monkeypatch.setattr(mapping_module, "_CONTEXT_KEYS_MAX", 2)
        tags = _memo_tags()
        for mapping in (HashMapping(7), ByContextMapping(7)):
            sizes = []
            for _ in range(2):
                for tag in tags:
                    assert mapping.pe_of(tag) == _expected(mapping, tag)
                    sizes.append(len(mapping._context_keys))
            assert max(sizes) == 2
            assert 1 in sizes[1:]  # cleared at least once after filling
