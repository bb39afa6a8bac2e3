"""A set-associative cache model (state and replacement only).

The cache holds *coherence state*, not data — data values live in the
memory image and the protocol merely times and counts transactions.  This
is the standard trace-simulator simplification; every quantity the paper
argues about (hit rates, invalidation traffic, bus occupancy) is
preserved.

States follow the MSI write-invalidate protocol, the "mechanism which,
upon the occurrence of a write to location x, invalidates all other cached
copies of location x wherever they may occur" that §1.1 says is logically
required — and whose cost E3 measures.

Each cache also keeps its bus's holders directory up to date (line ->
the caches holding it).  The directory is host-side bookkeeping, not a
directory protocol: the simulated machine still snoops, and pays every
cycle of its broadcasts; the host simply skips the caches that cannot
answer a snoop.
"""

import enum

from ..common.stats import Counter

__all__ = ["CacheState", "CacheConfig", "Cache"]


class CacheState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class CacheConfig:
    """Geometry of one private cache."""

    def __init__(self, n_sets=64, assoc=2, line_words=4, hit_time=1.0):
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_words = line_words
        self.hit_time = hit_time

    @property
    def capacity_words(self):
        return self.n_sets * self.assoc * self.line_words

    def __repr__(self):
        return (
            f"CacheConfig(sets={self.n_sets}, assoc={self.assoc}, "
            f"line={self.line_words}w)"
        )


class _Line:
    __slots__ = ("tag", "state", "stamp")

    def __init__(self, tag, state, stamp):
        self.tag = tag
        self.state = state
        self.stamp = stamp


class Cache:
    """One processor's private cache: lookup, fill, invalidate, LRU.

    ``holders`` is the bus's directory, shared by all its caches: line
    address -> set of the ``owner`` ids whose cache holds that line in
    a valid state.  Every install, eviction and INVALID transition here
    keeps it exact, so a snoop visits only the caches that hold a line.
    """

    def __init__(self, config, holders, owner, name="cache"):
        self.config = config
        self.name = name
        self.holders = holders
        self.owner = owner
        self._sets = [[] for _ in range(config.n_sets)]
        self._clock = 0
        self.counters = Counter()

    # ------------------------------------------------------------------
    def line_address(self, address):
        return address // self.config.line_words

    def _place(self, address):
        line = self.line_address(address)
        return self._sets[line % self.config.n_sets], line

    def _tick(self):
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------------
    def lookup(self, address):
        """Current state of the line holding ``address`` (INVALID if absent),
        touching LRU on a hit."""
        bucket, tag = self._place(address)
        for line in bucket:
            if line.tag == tag:
                line.stamp = self._tick()
                return line.state
        return CacheState.INVALID

    def peek_state(self, address):
        """State without touching LRU (snooping path)."""
        bucket, tag = self._place(address)
        for line in bucket:
            if line.tag == tag:
                return line.state
        return CacheState.INVALID

    def fill(self, address, state):
        """Install ``address``'s line in ``state``.

        Returns the state of the victim line when a dirty line had to be
        evicted (so the caller can charge a write-back), else None.
        """
        bucket, tag = self._place(address)
        for line in bucket:
            if line.tag == tag:
                line.state = state
                line.stamp = self._tick()
                return None
        victim_state = None
        if len(bucket) >= self.config.assoc:
            victim = min(bucket, key=lambda entry: entry.stamp)
            bucket.remove(victim)
            self._drop_holder(victim.tag)
            self.counters.add("evictions")
            if victim.state is CacheState.MODIFIED:
                victim_state = victim.state
                self.counters.add("writebacks")
        bucket.append(_Line(tag, state, self._tick()))
        holders = self.holders.get(tag)
        if holders is None:
            self.holders[tag] = {self.owner}
        else:
            holders.add(self.owner)
        return victim_state

    def set_state(self, address, state):
        bucket, tag = self._place(address)
        for line in bucket:
            if line.tag == tag:
                if state is CacheState.INVALID:
                    bucket.remove(line)
                    self._drop_holder(tag)
                else:
                    line.state = state
                return True
        return False

    def _drop_holder(self, tag):
        holders = self.holders[tag]
        holders.discard(self.owner)
        if not holders:
            del self.holders[tag]

    def invalidate(self, address):
        """Drop the line (snooped BusRdX); True if it was present."""
        present = self.set_state(address, CacheState.INVALID)
        if present:
            self.counters.add("invalidations_received")
        return present

    # ------------------------------------------------------------------
    @property
    def lines_valid(self):
        return sum(len(bucket) for bucket in self._sets)

    def __repr__(self):
        return f"<Cache {self.name!r} valid_lines={self.lines_valid}>"
