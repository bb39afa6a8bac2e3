"""Mapping activity names onto processing elements.

"Activity names, then, define an unbounded namespace.  Names in this space
are mapped dynamically into a finite namespace.  The activity name plus
some mapping information uniquely define the runtime tag and processing
element (PE) number" (§2.2.2).

The key used here is *stable*: it is built only from crc32 and ints,
never from Python's per-process seeded ``hash()``, so a simulation is
reproducible run to run.

It is also a *root-first* fold: the root context's key is
:data:`ROOT_KEY`, and a tag's key is its context's key with the tag's
own (crc32 of code block, statement, iteration) folded on.  Every token
of a context therefore needs only that context's key, and both mappings
remember it in one bounded memo per mapping (:class:`_ContextKeyed`).
A token's PE then costs a dict probe and a few folds in Python at any
recursion depth; the probe hashes the context chain in C, as every
match-store probe does.
"""

import zlib

__all__ = ["stable_tag_key", "HashMapping", "ByContextMapping"]

#: The key of the root context (``None``), where every fold starts.
ROOT_KEY = 0x811C9DC5

#: crc32 of each code-block name, the one per-block input to the key.
#: Keyed by the name string, so it holds no program alive; bounded, and
#: cleared wholesale on overflow (a pure cache: values never change).
_BLOCK_CRC = {}
_BLOCK_CRC_MAX = 1 << 12


def _block_crc(name):
    crc = _BLOCK_CRC.get(name)
    if crc is None:
        if len(_BLOCK_CRC) >= _BLOCK_CRC_MAX:
            _BLOCK_CRC.clear()
        crc = _BLOCK_CRC[name] = zlib.crc32(name.encode("utf-8"))
    return crc


def _fold(h, node):
    """Fold one chain node (crc32 of its code block, statement,
    iteration) onto the key ``h`` of its context."""
    _context, code_block, statement, iteration = node
    crc = _BLOCK_CRC.get(code_block)
    if crc is None:
        crc = _block_crc(code_block)
    h = (h * 1000003 ^ crc) & 0xFFFFFFFF
    h = (h * 1000003 ^ statement) & 0xFFFFFFFF
    return (h * 1000003 ^ iteration) & 0xFFFFFFFF


def stable_tag_key(tag):
    """A deterministic 32-bit key for a tag.

    Root-first: starting from :data:`ROOT_KEY`, each chain node from the
    outermost context down to ``tag`` itself folds (crc32 of its code
    block, statement, iteration) into the key with
    ``h = (h * 1000003 ^ value) & 0xFFFFFFFF``.  The key is a pure
    function of the tag's structure, and a tag's key is its context's
    key with the tag's own fields folded on.  This walks the whole
    chain (iteratively); the mappings reach the same keys through their
    context-key memo instead.
    """
    chain = []
    while tag is not None:
        chain.append(tag)
        tag = tag[0]
    h = ROOT_KEY
    for node in reversed(chain):
        h = _fold(h, node)
    return h


#: Most contexts one mapping remembers the key of before it forgets
#: them all.
_CONTEXT_KEYS_MAX = 1 << 12


class _ContextKeyed:
    """The context-key memo both mappings share the code of.

    Each mapping remembers ``context -> key`` (the root, ``None``, maps
    to :data:`ROOT_KEY`) for the contexts its tokens carry.  The memo is
    keyed by equality, so equal contexts built separately share an
    entry; it is bounded and cleared wholesale on overflow, and since a
    key is a pure function of its context, clearing never moves a PE.
    It is per mapping, so per machine: contexts of one run share their
    ancestors' objects, and an equality probe stops at the first shared
    one instead of comparing two unrelated chains down to the root.
    """

    def __init__(self, n_pes):
        self.n_pes = n_pes
        self._context_keys = {}

    def _context_key(self, context):
        """The memo's miss path: walk up only to the nearest remembered
        ancestor (or the root), then fold back down, remembering each
        key on the way.  A loop, so any depth works."""
        keys = self._context_keys
        chain = []
        node = context
        h = None
        while h is None and node is not None:
            chain.append(node)
            node = node[0]
            h = keys.get(node)
        if h is None:
            h = ROOT_KEY
            chain.append(None)
        for node in reversed(chain):
            if node is not None:
                h = _fold(h, node)
            if len(keys) >= _CONTEXT_KEYS_MAX:
                keys.clear()
            keys[node] = h
        return h


class HashMapping(_ContextKeyed):
    """Spread individual activities across all PEs by hashing the full tag.

    Maximizes load balance and exposes the most communication — the
    configuration that stresses latency tolerance hardest.  A tag's PE
    is ``stable_tag_key(tag) % n_pes``, computed as the tag's three
    fields folded onto its memoized context key.
    """

    def pe_of(self, tag):
        context, code_block, statement, iteration = tag
        h = self._context_keys.get(context)
        if h is None:
            h = self._context_key(context)
        # _fold(h, tag), inlined: this runs once per token.
        crc = _BLOCK_CRC.get(code_block)
        if crc is None:
            crc = _block_crc(code_block)
        h = (h * 1000003 ^ crc) & 0xFFFFFFFF
        h = (h * 1000003 ^ statement) & 0xFFFFFFFF
        return ((h * 1000003 ^ iteration) & 0xFFFFFFFF) % self.n_pes

    def __repr__(self):
        return f"HashMapping(n_pes={self.n_pes})"


class ByContextMapping(_ContextKeyed):
    """Keep each invocation context on one PE.

    All activities of one procedure call or loop context execute on the
    same PE, so only linkage (CALL/L) and structure traffic cross the
    network.  Loop iterations are spread by folding the iteration number
    in, giving the classic "unfold loops across PEs" behaviour.

    A tag's PE folds the crc32 of its code block, and its iteration when
    ``spread_iterations`` is set, onto its memoized context key, the
    same key :class:`HashMapping` folds the whole tag onto.
    """

    def __init__(self, n_pes, spread_iterations=True):
        super().__init__(n_pes)
        self.spread_iterations = spread_iterations

    def pe_of(self, tag):
        context, code_block, _statement, iteration = tag
        h = self._context_keys.get(context)
        if h is None:
            h = self._context_key(context)
        crc = _BLOCK_CRC.get(code_block)
        if crc is None:
            crc = _block_crc(code_block)
        h = (h * 1000003 ^ crc) & 0xFFFFFFFF
        if self.spread_iterations:
            h = (h * 1000003 ^ iteration) & 0xFFFFFFFF
        return h % self.n_pes

    def __repr__(self):
        return (
            f"ByContextMapping(n_pes={self.n_pes}, "
            f"spread_iterations={self.spread_iterations})"
        )
