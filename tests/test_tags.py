"""Tags as values: equality, immutability, pickling, and the pinned
``repr`` and mapping keys that traces and PE placement depend on."""

import pickle

import pytest

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
GRID_KEYS = [807321026, 3713186332, 3266747662, 3981233774, 3864096888,
             2145539322, 2945447503, 1355476285, 2031199291]

#: ByContextMapping(7).pe_of over GRID, with and without iteration
#: spreading.
GRID_CONTEXT_PES = [5, 4, 4, 3, 0, 5, 3, 5, 1]
GRID_CONTEXT_PES_FLAT = [1, 5, 5, 1, 4, 5, 4, 3, 5]


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


class TestContextKeyMemo:
    def test_equal_contexts_share_one_entry(self):
        mapping = ByContextMapping(7)
        first = Tag(Tag(None, "main", 3, 1), "f", 7, 2)
        second = Tag(Tag(None, "main", 9, 1).enter(3, "f", 0).context,
                     "f", 7, 2)
        assert first == second and first is not second
        pes = [mapping.pe_of(Tag(first, "loop", 12, 3)),
               mapping.pe_of(Tag(second, "loop", 12, 3))]
        assert len(mapping._context_keys) == 1
        assert pes[0] == pes[1] == ByContextMapping(7).pe_of(
            Tag(INNER, "loop", 12, 3))

    def test_overflow_clears_without_moving_any_pe(self, monkeypatch):
        from repro.dataflow import mapping as mapping_module
        monkeypatch.setattr(mapping_module, "_CONTEXT_KEYS_MAX", 2)
        mapping = ByContextMapping(7)
        contexts = [OUTER, INNER, Tag(INNER, "g", 1, 5), Tag(OUTER, "h", 2, 1)]
        tags = [Tag(context, "loop", 12, iteration)
                for context in contexts for iteration in (1, 2)] + GRID
        sizes = []
        for _ in range(2):
            assert [mapping.pe_of(tag) for tag in GRID] == GRID_CONTEXT_PES
            for tag in tags:
                pe = mapping.pe_of(tag)
                sizes.append(len(mapping._context_keys))
                assert pe == ByContextMapping(7).pe_of(tag)
        assert max(sizes) == 2
        assert 1 in sizes[1:]  # cleared at least once after filling
