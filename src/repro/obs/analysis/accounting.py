"""Cycle accounting: where every unit-cycle of a run went.

The decomposition follows the paper's taxonomy of losses:

* ``compute`` — the unit did the work it exists for (ALU slices,
  instruction issue, fetch);
* ``memory_stall`` — **Issue 1**, "memory latency": cycles a unit spent
  waiting on (or servicing) memory references;
* ``sync_wait`` — **Issue 2**, "waits for synchronization events":
  matching-store residency, full/empty busy-wait retries, context-switch
  overhead, semaphore spins;
* ``network_queue`` — cycles attributable to the interconnect (output
  sections, switch rails, round-trip queueing);
* ``idle`` — nothing to do (insufficient exposed parallelism, or the
  unit finished early and waited for the makespan).

Accounting is *per unit*: a unit is one hardware resource with its own
clock — a pipeline stage, a processor, a memory port, a switch rail.
For every unit the five buckets sum **exactly** to the run's window
(total cycles), so across the machine they sum to ``cycles x units``.
The invariant is structural: :func:`unit_account` computes ``idle`` as
the residual of the other four buckets in a fixed accumulation order,
and :meth:`CycleAccounting.check` re-verifies the sum (and that no
bucket went negative, which would mean an instrumentation bug).
"""

__all__ = [
    "BUCKETS",
    "UnitAccount",
    "CycleAccounting",
    "unit_account",
    "ttda_accounting",
    "vn_accounting",
    "ultra_accounting",
]

#: Canonical bucket order.  Sums iterate in this order so the exactness
#: of the idle-as-residual construction survives float accumulation.
BUCKETS = ("compute", "memory_stall", "sync_wait", "network_queue", "idle")

#: Which paper issue each loss bucket measures (docs + reports).
BUCKET_ISSUES = {
    "memory_stall": "Issue 1 (memory latency)",
    "sync_wait": "Issue 2 (synchronization waits)",
}


class UnitAccount:
    """One unit's cycles, decomposed into the five buckets."""

    __slots__ = ("unit", "window", "buckets")

    def __init__(self, unit, window, buckets):
        self.unit = unit
        self.window = window
        self.buckets = buckets

    def total(self):
        total = 0.0
        for bucket in BUCKETS:
            total += self.buckets[bucket]
        return total

    def as_dict(self):
        return {"unit": self.unit, "window": self.window,
                "buckets": dict(self.buckets)}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["unit"], payload["window"],
                   dict(payload["buckets"]))

    def __repr__(self):
        parts = " ".join(f"{b}={self.buckets[b]:g}" for b in BUCKETS)
        return f"<UnitAccount {self.unit!r} window={self.window:g} {parts}>"


def unit_account(unit, window, compute=0.0, memory_stall=0.0,
                 sync_wait=0.0, network_queue=0.0):
    """Build a :class:`UnitAccount` with ``idle`` as the exact residual."""
    partial = 0.0
    for value in (compute, memory_stall, sync_wait, network_queue):
        partial += value
    return UnitAccount(unit, window, {
        "compute": compute,
        "memory_stall": memory_stall,
        "sync_wait": sync_wait,
        "network_queue": network_queue,
        "idle": window - partial,
    })


class CycleAccounting:
    """The full decomposition of one run: a window and its units."""

    def __init__(self, machine, window, units):
        self.machine = machine
        self.window = window
        self.units = list(units)

    # ------------------------------------------------------------------
    @property
    def n_units(self):
        return len(self.units)

    @property
    def total_unit_cycles(self):
        """``cycles x units`` — what the buckets must sum to."""
        return self.window * self.n_units

    def totals(self):
        """Bucket sums across all units, in canonical order."""
        totals = {bucket: 0.0 for bucket in BUCKETS}
        for unit in self.units:
            for bucket in BUCKETS:
                totals[bucket] += unit.buckets[bucket]
        return totals

    def fractions(self):
        """Bucket totals as fractions of ``cycles x units``."""
        denom = self.total_unit_cycles
        if denom <= 0:
            return {bucket: 0.0 for bucket in BUCKETS}
        return {bucket: value / denom
                for bucket, value in self.totals().items()}

    # ------------------------------------------------------------------
    def check(self, tol=1e-9):
        """Verify the invariant; returns the worst per-unit residual.

        Raises ``ValueError`` if any unit's buckets fail to sum to the
        window (relative tolerance ``tol``) or a non-idle bucket is
        negative.  ``idle`` may be (tiny) negative only within ``tol``
        — a real negative means some unit was double-counted.
        """
        worst = 0.0
        for unit in self.units:
            scale = max(1.0, abs(unit.window))
            residual = unit.total() - unit.window
            worst = max(worst, abs(residual))
            if abs(residual) > tol * scale:
                raise ValueError(
                    f"accounting violated for unit {unit.unit!r}: buckets "
                    f"sum to {unit.total()!r}, window is {unit.window!r}"
                )
            for bucket in BUCKETS:
                if unit.buckets[bucket] < -tol * scale:
                    raise ValueError(
                        f"negative {bucket} ({unit.buckets[bucket]!r}) "
                        f"for unit {unit.unit!r}"
                    )
        return worst

    def exact(self):
        """True when every unit's buckets sum *bit-for-bit* to the window."""
        return all(unit.total() == unit.window for unit in self.units)

    # ------------------------------------------------------------------
    def as_dict(self):
        return {
            "machine": self.machine,
            "window": self.window,
            "units": [unit.as_dict() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            machine=payload["machine"],
            window=payload["window"],
            units=[UnitAccount.from_dict(u) for u in payload["units"]],
        )

    def __repr__(self):
        return (
            f"<CycleAccounting {self.machine!r} window={self.window:g} "
            f"units={self.n_units}>"
        )


# ---------------------------------------------------------------------------
# Builders: one per machine family.  Each knows which hardware resource
# maps to which bucket; the paper's Issues 1 and 2 are the two loss rows.
# ---------------------------------------------------------------------------

#: TTDA pipeline stages -> bucket of their *busy* time.  The
#: waiting-matching section is the synchronization hardware (Issue 2 made
#: explicit in silicon); the I-structure controller and the PE controller
#: are the memory system (Issue 1); the output section feeds the network.
_TTDA_STAGE_BUCKETS = (
    ("wm", "waiting_matching", "sync_wait"),
    ("fetch", "fetch", "compute"),
    ("alu", "alu", "compute"),
    ("out", "output", "network_queue"),
    ("ctrl", "controller", "memory_stall"),
)


def ttda_accounting(machine, window=None):
    """Accounting for a finished :class:`TaggedTokenMachine` run.

    Units are the pipeline stages of every PE (wm, fetch, alu, out,
    ctrl, isc): each is a FIFO server whose busy time lands in the
    stage's bucket and whose remaining cycles are idle.  The window is
    the drain time (``machine.sim.now`` after quiescence).
    """
    now = machine.sim.now if window is None else window
    units = []
    for pe in machine.pes:
        for suffix, attr, bucket in _TTDA_STAGE_BUCKETS:
            server = getattr(pe, attr)
            busy = server.busy_time(now)
            units.append(unit_account(f"pe{pe.pe}.{suffix}", now,
                                      **{bucket: busy}))
        isc_busy = pe.istructure.utilization.busy_time(now)
        units.append(unit_account(f"pe{pe.pe}.isc", now,
                                  memory_stall=isc_busy))
    return CycleAccounting("ttda", now, units)


def vn_accounting(machine, result, name=None):
    """Accounting for a finished :class:`VNMachine` run.

    Units are the processors.  Single-context processors split their
    non-busy time into ``memory_stall`` (plain reference round-trips,
    Issue 1) and ``sync_wait`` (references that drew at least one
    full/empty RETRY, Issue 2 — the busy-waiting loop of footnote 2).
    Multithreaded processors charge context-switch overhead and
    retry-classified whole-pipeline idle windows to ``sync_wait``, and
    latency-classified idle windows (all contexts parked on plain
    references, the too-few-contexts regime of §1.1) to
    ``memory_stall``; trailing wait for the makespan is ``idle``.
    """
    window = result.time
    units = []
    for proc in machine.processors:
        compute = proc.busy_cycles - getattr(proc, "halt_overcount", 0.0)
        if hasattr(proc, "contexts"):  # MultithreadedProcessor
            sync = proc.switch_cycles + proc.sync_idle_cycles
            stall = proc.stall_idle_cycles
        else:
            sync = proc.sync_cycles
            stall = proc.stall_cycles
        units.append(unit_account(
            f"proc{proc.proc_id}", window,
            compute=compute, memory_stall=stall, sync_wait=sync,
        ))
    return CycleAccounting(name or "vn", window, units)


def ultra_accounting(net, servers, window, name="ultracomputer"):
    """Accounting for an Ultracomputer hot-spot run.

    Units are the memory-port servers (busy time = memory service,
    Issue 1) and the omega switch output rails (busy time = network
    forwarding; their queueing is what combining exists to bound).
    """
    units = []
    for server in servers:
        busy = server.busy_time(window)
        units.append(unit_account(server.name, window, memory_stall=busy))
    for (stage, rail), switch in sorted(net._switches.items()):
        busy = switch.utilization.busy_time(window)
        units.append(unit_account(f"{net.name}.s{stage}r{rail}", window,
                                  network_queue=busy))
    return CycleAccounting(name, window, units)
