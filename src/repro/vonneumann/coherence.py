"""A snoopy write-invalidate bus memory system.

Implements the coherent-memory requirement of Censier & Feautrier as
quoted in §1.1 — "the value returned on a LOAD instruction is always the
value given by the latest STORE instruction with the same address" — with
the classic atomic-bus MSI protocol.  The costs the paper points at are
all first-class measurables here:

* every coherence transaction holds the single bus for its full duration,
  so bus utilization is the scaling bottleneck;
* writes to shared lines broadcast invalidations ("invalidates all other
  cached copies of location x wherever they may occur"), counted per run;
* atomic synchronization operations bypass the caches and lock the bus,
  making the cost of a semaphore "high relative to, say, an ALU
  operation" (§1.2.1) directly visible.

Caches can be disabled entirely (every access is a bus transaction) to
model C.mmp as actually built — "only one processor in the machine was
ever fitted with [a cache] ... the reason is, quite simply, the cache
coherence problem."

The protocol, its timing and its counters are those of a snoop that
every cache answers.  The host does not ask every cache: ``holders``,
an exact map of line -> processors whose cache holds it valid, kept by
:class:`~repro.vonneumann.cache.Cache`, names the only caches whose
answer can be other than "not here", so the dirty-copy check and the
invalidate/demote pass visit those alone.  Every count they make is a
sum, and MSI allows one MODIFIED copy at most, so the order of the
visits changes no output.
"""

from ..common.queueing import FifoServer
from ..common.stats import SlotCounter
from .cache import Cache, CacheState
from .isa import Op
from .memory import MemoryModule, MemRequest, RETRY  # noqa: F401 (re-export)

__all__ = ["SnoopyBusSystem"]

_LOAD, _STORE = Op.LOAD, Op.STORE
_INVALID, _MODIFIED = CacheState.INVALID, CacheState.MODIFIED


class SnoopyBusSystem:
    """Private MSI caches over one shared bus and one memory image."""

    def __init__(self, sim, n_procs, cache_config=None, memory_time=10.0,
                 bus_time=2.0, write_policy="write_back", name="bus"):
        if write_policy not in ("write_back", "write_through"):
            raise ValueError(f"unknown write policy {write_policy!r}")
        self.sim = sim
        self.n_procs = n_procs
        self.name = name
        self.memory = MemoryModule(sim, memory_time, name=f"{name}.dram")
        self.memory_time = memory_time
        self.bus = FifoServer(sim, bus_time, name=f"{name}.bus")
        self.bus_time = bus_time
        #: "Using a store-through design instead of a store-in design does
        #: not completely solve the problem either" (§1.1): write_through
        #: sends *every* store over the bus (and still must invalidate
        #: remote copies), trading silent dirty lines for bus traffic.
        self.write_policy = write_policy
        self.caches = None
        #: The holders directory: line -> set of the processors whose
        #: cache holds it in a valid state (see :class:`Cache`).
        self.holders = {}
        if cache_config is not None:
            self.caches = [
                Cache(cache_config, self.holders, i, name=f"{name}.c{i}")
                for i in range(n_procs)
            ]
        # Per-access counts live in slots; the transaction kinds and the
        # coherence traffic go through ``counters.add``.
        self._accesses = 0
        self._load_hits = 0
        self._store_hits = 0
        self.counters = SlotCounter(self._hot_counts)

    def _hot_counts(self):
        return {"accesses": self._accesses, "load_hits": self._load_hits,
                "store_hits": self._store_hits}

    # ------------------------------------------------------------------
    def attach_processor(self, proc):
        """Bus systems need no per-processor wiring; kept for interface
        symmetry with the dancehall system."""

    def access(self, proc, request, on_complete):
        self._accesses += 1
        op = request.op
        is_load = op is _LOAD
        is_store = op is _STORE
        if self.caches is None or not (is_load or is_store):
            # Uncached access / atomic: a full bus + memory transaction.
            self._bus_transaction(proc, request, on_complete,
                                  kind="uncached" if is_load or is_store
                                  else "atomic")
            return
        cache = self.caches[proc]
        state = cache.lookup(request.address)
        if is_load and state is not _INVALID:
            self._load_hits += 1
            value = self.memory.data.get(request.address, 0)
            self.sim.post(cache.config.hit_time, on_complete, value)
            return
        if is_store and self.write_policy == "write_through":
            # Every store goes to memory over the bus, hit or not.
            self._bus_transaction(proc, request, on_complete,
                                  kind="write_through")
            return
        if is_store and state is _MODIFIED:
            self._store_hits += 1
            self.memory.data[request.address] = request.value
            self.sim.post(cache.config.hit_time, on_complete, None)
            return
        kind = "read_miss" if is_load else (
            "upgrade" if state is CacheState.SHARED else "write_miss"
        )
        self._bus_transaction(proc, request, on_complete, kind=kind)

    # ------------------------------------------------------------------
    def _bus_transaction(self, proc, request, on_complete, kind):
        self.counters.add(f"bus_{kind}")
        service = self._transaction_time(proc, request, kind)
        self.bus.submit(
            (proc, request, on_complete, kind),
            self._bus_complete,
            service_time=service,
        )

    def _transaction_time(self, proc, request, kind):
        """Bus occupancy of this transaction.

        An upgrade (invalidate-only) needs just the bus; anything touching
        memory holds the bus for the memory access as well (atomic bus).
        A dirty remote copy adds a write-back before the memory read.
        """
        time = self.bus_time
        if kind != "upgrade":
            time += self.memory_time
        if self.caches is not None:
            address = request.address
            line = self.caches[proc].line_address(address)
            for other in self.holders.get(line, ()):
                if other != proc and (
                    self.caches[other].peek_state(address) is _MODIFIED
                ):
                    time += self.memory_time  # write-back of the dirty copy
                    self.counters.add("dirty_transfers")
                    break
        return time

    def _bus_complete(self, work):
        proc, request, on_complete, kind = work
        address = request.address
        if self.caches is not None:
            invalidating = request.op is not Op.LOAD
            mine = self.caches[proc]
            # A snapshot: invalidating a holder drops it from the set.
            for other in tuple(self.holders.get(mine.line_address(address),
                                                ())):
                if other == proc:
                    continue
                cache = self.caches[other]
                if invalidating:
                    if cache.invalidate(address):
                        self.counters.add("invalidations")
                else:
                    # A read demotes remote MODIFIED copies to SHARED.
                    if cache.peek_state(address) is _MODIFIED:
                        cache.set_state(address, CacheState.SHARED)
            if request.op is Op.LOAD:
                if mine.fill(address, CacheState.SHARED) is not None:
                    self.counters.add("eviction_writebacks")
            elif request.op is Op.STORE:
                # Write-through lines stay SHARED (memory is always
                # current); write-back takes ownership.
                new_state = (
                    CacheState.SHARED
                    if self.write_policy == "write_through"
                    else CacheState.MODIFIED
                )
                if mine.fill(address, new_state) is not None:
                    self.counters.add("eviction_writebacks")
            else:
                # Atomics leave nobody caching the line.
                mine.invalidate(address)
        response = self.memory.apply(request)
        on_complete(response)

    # ------------------------------------------------------------------
    def bus_utilization(self):
        return self.bus.utilization(self.sim.now)

    def peek(self, address):
        return self.memory.peek(address)

    def poke(self, address, value, full=False):
        self.memory.poke(address, value, full=full)

    def total_retries(self):
        return self.memory.counters["readf_retries"]
