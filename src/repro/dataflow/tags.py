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

Tags are immutable values; the waiting-matching section pairs tokens by
comparing them ("we can match up related tokens ... by comparing the
tags that they carry").

Tags sit on the hottest path of the tagged-token machine — every token
carries one and the waiting-matching store is keyed by them — so a
:class:`Tag` *is* the tuple ``(u, c, s, i)``: hashing and equality run in
C, the fields are read through C-level ``itemgetter`` properties, and the
derivation helpers build the tuple directly.  Two tags built separately
from the same fields are equal and hash alike; they need not be the same
object, and nothing canonicalizes them.  A tag also equals the plain
4-tuple of its fields, so no store mixes tags with other 4-tuples.
"""

import zlib
from operator import itemgetter

__all__ = ["Tag"]

_new = tuple.__new__


class Tag(tuple):
    """An activity name ``(u, c, s, i)``.  Immutable."""

    __slots__ = ()

    def __new__(cls, context, code_block, statement, iteration=1):
        return _new(cls, (context, code_block, statement, iteration))

    context = property(itemgetter(0))
    code_block = property(itemgetter(1))
    statement = property(itemgetter(2))
    iteration = property(itemgetter(3))

    def __reduce__(self):
        return (Tag, tuple(self))

    # -- derivation helpers for result arcs and context pushes; the
    # -- D/D⁻¹ iteration rules are in exec_core.FANOUT -----------------
    def at_statement(self, statement):
        """Same activity, different statement (ordinary result arcs)."""
        return _new(Tag, (self[0], self[1], statement, self[3]))

    def enter(self, site, target_block, statement):
        """The L / CALL context push: a fresh context named after this
        invocation point (this tag with ``statement`` replaced by the
        site id), entering ``target_block`` at iteration 1."""
        invocation = _new(Tag, (self[0], self[1], site, self[3]))
        return _new(Tag, (invocation, target_block, statement, 1))

    @property
    def depth(self):
        """Nesting depth of the context chain (root = 0)."""
        depth = 0
        context = self[0]
        while context is not None:
            depth += 1
            context = context[0]
        return depth

    def __repr__(self):
        # The context label must be a *structural* digest, not id():
        # traces of identical runs have to be byte-identical.
        context, code_block, statement, iteration = self
        if context is None:
            label = "·"
        else:
            digest = zlib.crc32(repr(context).encode("utf-8"))
            label = f"u{digest & 0xFFFF:04x}"
        return f"⟨{label},{code_block},{statement},{iteration}⟩"
