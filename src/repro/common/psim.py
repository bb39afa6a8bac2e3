"""Sharded conservative-parallel event kernel (Chandy–Misra style).

The serial calendar kernel (:mod:`repro.common.simulator`) runs a whole
machine on one queue.  This kernel partitions a machine's simulation
objects across N *shards*, each holding its own calendar queue, and
connects the shards by *channels*.  Each channel carries the link's
minimum latency — the Chandy–Misra *lookahead*, taken from the
machine's topology (:mod:`repro.common.topology`) — and every
cross-shard post is checked against it.

Dispatch is *sequenced*: a global (instant, post-sequence) merge over
the per-shard calendars fires events in exactly the order the serial
kernel would use, so results are **byte-identical** to the calendar
kernel by construction.  Cross-shard posts still flow through channels
(with lookahead validation and traffic accounting), so the partition is
exercised while determinism stays absolute: the kernel is the contract
checker for a machine's topology declaration.

A machine opts in by describing its partition graph (``topology()``)
and registering object ownership via :meth:`configure_shards`; unrouted
``post()`` calls stay on the posting shard, so intra-shard execution
order is untouched.  Machines whose units couple through zero-lookahead
links (shared buses, inline queue handoffs — the von Neumann pattern
the paper critiques) contract to a single shard and run serially.
"""

import heapq
import itertools
import math
import time

from .errors import SimulationError
from .simulator import _COMPACT_MIN, Event

__all__ = ["ShardedSimulator"]


class _Shard:
    """One shard: a private calendar queue."""

    __slots__ = ("index", "buckets", "keys", "live", "ncancelled", "fired")

    def __init__(self, index):
        self.index = index
        self.buckets = {}  # float instant -> [(seq, fn, args) | Event]
        self.keys = []  # heap of occupied instants
        self.live = 0  # queued, not yet fired or cancelled
        self.ncancelled = 0  # cancelled but still queued (lazy)
        self.fired = 0

    # Events created by ``schedule`` carry this shard as their ``sim`` so
    # a cancel() lands on the right shard's accounting.
    def _note_cancel(self):
        self.live -= 1
        self.ncancelled += 1

    def next_time(self):
        return self.keys[0] if self.keys else math.inf

    def compact(self):
        """Drop cancelled Event debris (bare tuples cannot cancel)."""
        survivors = {}
        for key, bucket in self.buckets.items():
            bucket[:] = [
                e for e in bucket if type(e) is tuple or not e.cancelled
            ]
            if bucket:
                survivors[key] = bucket
        self.buckets = survivors
        keys = list(survivors)
        heapq.heapify(keys)
        self.keys = keys
        self.ncancelled = 0


class _Channel:
    """A directed shard-to-shard link and its minimum latency."""

    __slots__ = ("src", "dst", "lookahead", "messages")

    def __init__(self, src, dst, lookahead):
        self.src = src
        self.dst = dst
        self.lookahead = lookahead
        self.messages = 0


class ShardedSimulator:
    """Drop-in kernel: the :class:`~repro.common.simulator.Simulator`
    surface (post/schedule/run/now/...) plus shard configuration."""

    def __init__(self, shards=1):
        if isinstance(shards, bool) or not isinstance(shards, int):
            raise SimulationError(
                f"shards must be a positive integer, got {shards!r}"
            )
        if shards < 1:
            raise SimulationError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.shards = shards
        self._shards = [_Shard(i) for i in range(shards)]
        self._channels = {}  # (src, dst) -> _Channel
        self._owner_shard = {}  # id(obj) -> shard index
        self._owner_refs = []  # keep owners alive so ids stay unique
        self._seq = itertools.count()
        self._now = 0.0
        self._active = None  # index of the dispatching shard, else None
        self._events_fired = 0
        self._running = False
        self._quiescence_hooks = []
        self.bus = None  # optional repro.obs.TraceBus
        self.wall_seconds = 0.0  # host time spent inside run()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure_shards(self, owners, links):
        """Install the partition: object ownership and channel links.

        ``owners`` is an iterable of ``(object, shard_index)`` pairs —
        the objects a machine passes to :meth:`post_to`.  ``links`` is
        either a ``{(src_shard, dst_shard): lookahead}`` mapping (the
        shape :meth:`MachineTopology.shard_links` returns) or an
        iterable of ``(src, dst, lookahead)`` triples.  Every cross-shard
        link must have **strictly positive** lookahead; a zero-lookahead
        link between distinct shards is a causality violation and is
        rejected here rather than corrupting a run later.
        """
        if self._running:
            raise SimulationError("cannot reconfigure shards mid-run")
        for obj, shard in owners:
            self._check_shard(shard)
            self._owner_shard[id(obj)] = shard
            self._owner_refs.append(obj)
        if isinstance(links, dict):
            links = [(s, d, la) for (s, d), la in links.items()]
        for src, dst, lookahead in links:
            self._check_shard(src)
            self._check_shard(dst)
            if src == dst:
                continue
            if lookahead <= 0:
                raise SimulationError(
                    f"channel {src}->{dst} has lookahead {lookahead!r}; "
                    "conservative parallel simulation needs strictly "
                    "positive lookahead on every cross-shard link "
                    "(zero-lookahead couplings must share a shard)"
                )
            self._channels[(src, dst)] = _Channel(src, dst, lookahead)

    def _check_shard(self, shard):
        if not isinstance(shard, int) or isinstance(shard, bool) or \
                not 0 <= shard < self.shards:
            raise SimulationError(
                f"shard index {shard!r} out of range [0, {self.shards})"
            )

    def shard_of(self, owner):
        """The shard ``owner`` was registered to (None when unknown)."""
        return self._owner_shard.get(id(owner))

    def kernel_stats(self):
        """Traffic and synchronization counters for introspection."""
        lookaheads = [c.lookahead for c in self._channels.values()]
        shard_events = [s.fired for s in self._shards]
        populated = [n for n in shard_events if n]
        # Load imbalance across populated shards: max/mean per-shard event
        # count (1.0 = perfectly even).  Deterministic — derived purely
        # from event counts, never wall-clock.
        imbalance = None
        if populated:
            mean = sum(populated) / len(populated)
            if mean > 0:
                imbalance = round(max(populated) / mean, 4)
        return {
            "kernel": "parallel",
            "shards": self.shards,
            "populated_shards": sum(
                1 for s in self._shards if s.live or s.fired
            ),
            "channels": len(self._channels),
            "min_lookahead": min(lookaheads) if lookaheads else None,
            "events_fired": self._events_fired,
            "shard_events": shard_events,
            "shard_imbalance": imbalance,
            "channel_messages": sum(
                c.messages for c in self._channels.values()
            ),
        }

    # ------------------------------------------------------------------
    # Clock and bookkeeping
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time."""
        return self._now

    @property
    def events_fired(self):
        return self._events_fired

    @property
    def pending(self):
        return sum(shard.live for shard in self._shards)

    def attach_bus(self, bus):
        self.bus = bus
        return bus

    def add_quiescence_hook(self, hook):
        self._quiescence_hooks.append(hook)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _active_shard(self):
        shard = self._active
        return self._shards[0] if shard is None else self._shards[shard]

    def _insert(self, shard, when, fn, args):
        entry = (next(self._seq), fn, args)
        bucket = shard.buckets.get(when)
        if bucket is None:
            shard.buckets[when] = [entry]
            heapq.heappush(shard.keys, when)
        else:
            bucket.append(entry)
        shard.live += 1

    def post(self, delay, fn, *args):
        """Fire-and-forget schedule on the posting shard (intra-shard
        execution order is exactly the serial kernel's)."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        self._insert(self._active_shard(), self._now + delay, fn, args)

    def post_at(self, when, fn, *args):
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        self._insert(self._active_shard(), float(when), fn, args)

    def post_to(self, owner, delay, fn, *args):
        """Post routed to ``owner``'s shard.

        Within a shard this is a plain :meth:`post`.  Across shards the
        event becomes a timestamped channel message: the link must exist
        and ``delay`` must be at least its lookahead, otherwise the
        machine's topology declaration was a lie and we fail loudly.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        target = self._owner_shard.get(id(owner))
        active = self._active
        if target is None:
            target = active if active is not None else 0
        if active is None or target == active:
            # Pre-run wiring (direct placement on the owner's shard) or
            # an intra-shard post.
            self._insert(self._shards[target], self._now + delay, fn, args)
            return
        channel = self._channels.get((active, target))
        if channel is None:
            raise SimulationError(
                f"no channel from shard {active} to shard {target}; "
                "declare the link in the machine topology"
            )
        if delay < channel.lookahead:
            raise SimulationError(
                f"cross-shard post {active}->{target} with delay {delay} "
                f"below the declared lookahead {channel.lookahead}"
            )
        # Global sequence numbers keep the serial dispatch order; the
        # channel exists for accounting and validation.
        channel.messages += 1
        self._insert(self._shards[target], self._now + delay, fn, args)

    def schedule(self, delay, fn, *args):
        """Cancellable schedule; returns the :class:`Event`."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when, fn, *args):
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        when = float(when)
        shard = self._active_shard()
        event = Event(when, next(self._seq), fn, args, sim=shard)
        bucket = shard.buckets.get(when)
        if bucket is None:
            shard.buckets[when] = [event]
            heapq.heappush(shard.keys, when)
        else:
            bucket.append(event)
        shard.live += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        raise SimulationError(
            "ShardedSimulator has no single-step mode; use run()"
        )

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("simulator is already running")
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(self._now, "sim", "run_begin", "", pending=self.pending)
        wall_start = time.perf_counter()
        self._running = True
        try:
            return self._run(until, max_events)
        finally:
            self._running = False
            self._active = None
            self.wall_seconds += time.perf_counter() - wall_start
            if bus is not None and bus.enabled:
                bus.emit(self._now, "sim", "run_end", "",
                         events=self._events_fired)

    def _quiesce(self, bus):
        """Clear debris, announce quiescence, let hooks refill.

        Returns True when a hook scheduled new work.
        """
        for shard in self._shards:
            if shard.keys:
                shard.keys.clear()
                shard.buckets.clear()
                shard.ncancelled = 0
        if bus is not None and bus.enabled:
            bus.emit(self._now, "sim", "quiescent", "",
                     events=self._events_fired)
        for hook in self._quiescence_hooks:
            hook()
            if self.pending:
                return True
        return False

    def _budget_error(self, max_events):
        return SimulationError(
            f"event budget exhausted ({max_events} events) at "
            f"t={self._now}; possible livelock"
        )

    def _run(self, until, max_events):
        """Per-shard calendars, global (instant, sequence) merge.

        Dispatch order is exactly the serial calendar kernel's — within
        an instant events fire in global post order regardless of which
        shard holds them — so every counter, metric, and trace is
        byte-identical to a serial run.
        """
        shards = self._shards
        until_f = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired_total = 0
        while True:
            for shard in shards:
                if shard.ncancelled >= _COMPACT_MIN and \
                        shard.ncancelled > shard.live:
                    shard.compact()
            if self.pending == 0:
                if self._quiesce(self.bus):
                    continue
                return self._now
            t = min(shard.next_time() for shard in shards)
            if t > until_f:
                self._now = float(until)
                return self._now
            prev_now = self._now
            self._now = t
            cursors = [0] * len(shards)
            nfired = [0] * len(shards)
            fired_instant = 0
            try:
                while True:
                    # The k-way merge: the live entry with the lowest
                    # global sequence across every shard's bucket at t.
                    # Re-scanned per event because a callback may post
                    # at the current instant into any shard.
                    best = None
                    best_seq = None
                    for shard in shards:
                        bucket = shard.buckets.get(t)
                        if not bucket:
                            continue
                        pos = cursors[shard.index]
                        n = len(bucket)
                        while pos < n:
                            entry = bucket[pos]
                            if type(entry) is tuple or not entry.cancelled:
                                break
                            pos += 1
                            shard.ncancelled -= 1
                        cursors[shard.index] = pos
                        if pos >= n:
                            continue
                        entry = bucket[pos]
                        seq = entry[0] if type(entry) is tuple else entry.seq
                        if best_seq is None or seq < best_seq:
                            best_seq = seq
                            best = shard
                    if best is None:
                        break
                    if fired_total + fired_instant >= budget:
                        raise self._budget_error(max_events)
                    entry = best.buckets[t][cursors[best.index]]
                    cursors[best.index] += 1
                    nfired[best.index] += 1
                    fired_instant += 1
                    self._active = best.index
                    if type(entry) is tuple:
                        entry[1](*entry[2])
                    else:
                        # Mark consumed so a late cancel() is a no-op.
                        entry.cancelled = True
                        entry.fn(*entry.args)
            finally:
                self._active = None
                fired_total += fired_instant
                self._events_fired += fired_instant
                for shard in shards:
                    count = nfired[shard.index]
                    if count:
                        shard.live -= count
                        shard.fired += count
                    bucket = shard.buckets.get(t)
                    if bucket is None:
                        continue
                    pos = cursors[shard.index]
                    if pos >= len(bucket):
                        del shard.buckets[t]
                        if shard.keys and shard.keys[0] == t:
                            heapq.heappop(shard.keys)
                    elif pos:
                        # Interrupted mid-instant (budget/exception):
                        # keep the unfired tail queued.
                        del bucket[:pos]
                if fired_instant == 0:
                    # Cancelled-only instant: the clock never advances
                    # (parity with the serial kernels).
                    self._now = prev_now

    def __repr__(self):
        return (
            f"<ShardedSimulator shards={self.shards} "
            f"t={self._now} pending={self.pending} "
            f"fired={self._events_fired}>"
        )
