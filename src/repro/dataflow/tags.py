"""Activity names and runtime tags (§2.2.2).

An activity name has four parts — ``u`` (context), ``c`` (code block name),
``s`` (statement number) and ``i`` (initiation/iteration number) — and "the
context itself is specified by an activity name, thus making the definition
recursive".  We represent that faithfully: :attr:`Tag.context` is either
``None`` (the root context the entry procedure runs in) or another
:class:`Tag`, namely the activity name of the invocation point (the CALL
site or the loop's L site).  Because a Tag identifies an invocation
uniquely and recursion deepens the chain, the namespace is unbounded,
exactly as the paper requires of a scalable machine.

Tags are immutable and hashable; the waiting-matching section pairs tokens
by comparing them ("we can match up related tokens ... by comparing the
tags that they carry").

Tags sit on the hottest path of the tagged-token machine — every token
carries one, the waiting-matching store is keyed by them, and the mapping
policy hashes them — so this module is tuned accordingly:

* ``__slots__`` and a hash computed once at construction (the recursive
  context chain makes naive re-hashing O(depth) per dict probe);
* **interning** via :func:`intern_tag`: every tag derived by the
  tag-manipulation operators is canonicalized, so structurally equal tags
  are usually the *same object* and dict probes short-circuit on identity
  (CPython compares keys by identity before calling ``__eq__``).  The
  table is bounded; clearing it costs only the identity fast path, never
  correctness, because equality stays structural.
"""

import zlib

__all__ = ["Tag", "intern_tag", "reset_intern_table"]


class Tag:
    """An activity name ``(u, c, s, i)``.  Immutable."""

    __slots__ = ("context", "code_block", "statement", "iteration",
                 "_hash", "_map_key")

    def __init__(self, context, code_block, statement, iteration=1):
        set_ = object.__setattr__
        set_(self, "context", context)
        set_(self, "code_block", code_block)
        set_(self, "statement", statement)
        set_(self, "iteration", iteration)
        set_(self, "_hash", hash((context, code_block, statement, iteration)))
        set_(self, "_map_key", None)  # cache for mapping.stable_tag_key

    def __setattr__(self, name, value):
        raise AttributeError(f"Tag is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Tag is immutable (tried to delete {name!r})")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Tag:
            return NotImplemented
        return (
            self.statement == other.statement
            and self.iteration == other.iteration
            and self.code_block == other.code_block
            and self.context == other.context
        )

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- derivation helpers used by the tag-manipulation opcodes --------
    def at_statement(self, statement):
        """Same activity, different statement (ordinary result arcs)."""
        return intern_tag(self.context, self.code_block, statement,
                          self.iteration)

    def next_iteration(self, statement):
        """The D operator: advance to iteration i+1 at ``statement``."""
        return intern_tag(self.context, self.code_block, statement,
                          self.iteration + 1)

    def reset_iteration(self, statement):
        """The D⁻¹ operator: canonicalize to iteration 1 at ``statement``."""
        return intern_tag(self.context, self.code_block, statement, 1)

    def enter(self, site, target_block, statement):
        """The L / CALL context push: a fresh context named after this
        invocation point (this tag with ``statement`` replaced by the
        site id), entering ``target_block`` at iteration 1."""
        invocation = intern_tag(self.context, self.code_block, site,
                                self.iteration)
        return intern_tag(invocation, target_block, statement, 1)

    @property
    def depth(self):
        """Nesting depth of the context chain (root = 0)."""
        depth = 0
        context = self.context
        while context is not None:
            depth += 1
            context = context.context
        return depth

    def __repr__(self):
        # The context label must be a *structural* digest, not id():
        # traces of identical runs have to be byte-identical.
        if self.context is None:
            context = "·"
        else:
            digest = zlib.crc32(repr(self.context).encode("utf-8"))
            context = f"u{digest & 0xFFFF:04x}"
        return f"⟨{context},{self.code_block},{self.statement},{self.iteration}⟩"


#: Canonical tag per (context, code_block, statement, iteration).  Bounded:
#: when full, *new* tags simply stop being interned (they are returned
#: uncached), which only forfeits the identity fast path for the excess
#: tags.  The table is never cleared mid-run — clearing would let two
#: structurally equal tags stop being the same object while a machine
#: holds both, which is exactly the hazard interning exists to avoid
#: (dict probes and cached ``_map_key`` values assume a canonical
#: object per activity name within a run).  Eviction is run-boundary
#: only: :func:`reset_intern_table` is called when a machine or
#: interpreter starts a fresh program invocation.
_INTERN = {}
_INTERN_MAX = 1 << 17


def intern_tag(context, code_block, statement, iteration=1):
    """The canonical :class:`Tag` for the given activity name.

    At capacity the tag is built but not cached: equality stays
    structural, correctness is unaffected, and every previously interned
    tag keeps its canonical identity for the rest of the run.
    """
    key = (context, code_block, statement, iteration)
    tag = _INTERN.get(key)
    if tag is None:
        tag = Tag(context, code_block, statement, iteration)
        if len(_INTERN) < _INTERN_MAX:
            _INTERN[key] = tag
    return tag


def reset_intern_table():
    """Run-boundary eviction: drop every canonical tag.

    Called at the start of a machine/interpreter invocation, when no
    live run can be holding interned tags — the only moment clearing is
    identity-safe.  Long-lived processes (the sweep engine, test
    suites) otherwise accumulate one table entry per distinct activity
    name ever seen.
    """
    _INTERN.clear()
