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
    is a pure function of the tag's structure.
    """
    crcs = _BLOCK_CRC
    h = 0x811C9DC5
    node = tag
    while node is not None:
        context, code_block, statement, iteration = node
        crc = crcs.get(code_block)
        if crc is None:
            crc = _block_crc(code_block)
        h = (h * 1000003 ^ crc) & 0xFFFFFFFF
        h = (h * 1000003 ^ statement) & 0xFFFFFFFF
        h = (h * 1000003 ^ iteration) & 0xFFFFFFFF
        node = context
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
        context, code_block, _statement, iteration = tag
        context_key = 0 if context is None else stable_tag_key(context)
        crc = _BLOCK_CRC.get(code_block)
        if crc is None:
            crc = _block_crc(code_block)
        h = (context_key * 1000003 ^ crc) & 0xFFFFFFFF
        if self.spread_iterations:
            h = (h * 1000003 ^ iteration) & 0xFFFFFFFF
        return h % self.n_pes

    def __repr__(self):
        return (
            f"ByContextMapping(n_pes={self.n_pes}, "
            f"spread_iterations={self.spread_iterations})"
        )
