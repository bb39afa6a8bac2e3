"""Mapping activity names onto processing elements.

"Activity names, then, define an unbounded namespace.  Names in this space
are mapped dynamically into a finite namespace.  The activity name plus
some mapping information uniquely define the runtime tag and processing
element (PE) number" (§2.2.2).

The hash used here is *stable*: it does not depend on Python's per-process
string seeding, so a simulation is reproducible run to run.
"""

import zlib

__all__ = ["stable_tag_key", "HashMapping", "ByContextMapping"]


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


def stable_tag_key(tag):
    """A deterministic 32-bit key for a tag (recursing through contexts).

    Each chain node folds (crc32 of its code block, statement, iteration)
    into the key with ``h = (h * 1000003 ^ value) & 0xFFFFFFFF``.  The key
    is a pure function of the tag's structure, so it is memoized on the
    tag itself (``Tag._map_key``) — with interned tags the mapping policy
    pays the chain walk once per distinct activity name instead of once
    per routed token.
    """
    try:
        cached = tag._map_key
    except AttributeError:  # a non-Tag stand-in without the cache slot
        cached = None
    if cached is not None:
        return cached
    crcs = _BLOCK_CRC
    h = 0x811C9DC5
    node = tag
    while node is not None:
        crc = crcs.get(node.code_block)
        if crc is None:
            crc = _block_crc(node.code_block)
        h = (h * 1000003 ^ crc) & 0xFFFFFFFF
        h = (h * 1000003 ^ node.statement) & 0xFFFFFFFF
        h = (h * 1000003 ^ node.iteration) & 0xFFFFFFFF
        node = node.context
    try:
        object.__setattr__(tag, "_map_key", h)
    except AttributeError:  # a non-Tag stand-in without the cache slot
        pass
    return h


class HashMapping:
    """Spread individual activities across all PEs by hashing the full tag.

    Maximizes load balance and exposes the most communication — the
    configuration that stresses latency tolerance hardest.
    """

    def __init__(self, n_pes):
        self.n_pes = n_pes

    def pe_of(self, tag):
        return stable_tag_key(tag) % self.n_pes

    def __repr__(self):
        return f"HashMapping(n_pes={self.n_pes})"


class ByContextMapping:
    """Keep each invocation context on one PE.

    All activities of one procedure call or loop context execute on the
    same PE, so only linkage (CALL/L) and structure traffic cross the
    network.  Loop iterations are spread by folding the iteration number
    in, giving the classic "unfold loops across PEs" behaviour.
    """

    def __init__(self, n_pes, spread_iterations=True):
        self.n_pes = n_pes
        self.spread_iterations = spread_iterations

    def pe_of(self, tag):
        context_key = stable_tag_key(tag.context) if tag.context else 0
        crc = _BLOCK_CRC.get(tag.code_block)
        if crc is None:
            crc = _block_crc(tag.code_block)
        h = (context_key * 1000003 ^ crc) & 0xFFFFFFFF
        if self.spread_iterations:
            h = (h * 1000003 ^ tag.iteration) & 0xFFFFFFFF
        return h % self.n_pes

    def __repr__(self):
        return (
            f"ByContextMapping(n_pes={self.n_pes}, "
            f"spread_iterations={self.spread_iterations})"
        )
