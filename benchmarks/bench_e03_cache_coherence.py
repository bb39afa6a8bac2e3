"""E3 — the cache coherence problem (§1.1).

"What is logically required is a mechanism which, upon the occurrence of a
write to location x, invalidates all other cached copies of location x
wherever they may occur ... This can incur significant overhead and
complexity.  Several approximate solutions ... inevitably introduce
overhead and/or decrease parallelism."

Two measurements on the snoopy-bus machine:

* **private-data scaling** — caches work beautifully when processors do
  not share: near-linear speedup, bus stays cool;
* **shared-data scaling** — processors updating a shared line turn every
  write into an invalidation broadcast; the single serializing bus
  saturates and speedup stops.
"""

from repro.analysis import Table
from repro.exp import Experiment, row_at
from repro.vonneumann import CacheConfig, VNMachine, programs

PROCS = (1, 2, 4, 8, 16)


def _private_kernel(pid, passes, words=8):
    """Repeated passes over a small private array: after the cold misses,
    every reference hits the processor's own cache."""
    base = 1000 + pid * 64  # one line group per processor
    return f"""
    movi r9, {passes}
outer:
    beqz r9, done
    movi r3, {words}
    movi r4, {base}
    movi r5, 0
loop:
    beqz r3, next
    load r6, r4, 0
    add  r5, r5, r6
    addi r4, r4, 1
    subi r3, r3, 1
    jmp  loop
next:
    subi r9, r9, 1
    jmp  outer
done:
    halt
"""


def run_point(config, iterations=24):
    """One (pattern, processor count) run on the snoopy bus:
    [time, invalidations, bus utilization]."""
    n_procs = config["procs"]
    machine = VNMachine(n_procs, memory="bus",
                        cache_config=CacheConfig(line_words=4),
                        memory_time=10, bus_time=2)
    for pid in range(n_procs):
        if config["pattern"] == "shared":
            source = programs.shared_counter_spinlock(0, 1, iterations)
        else:
            source = _private_kernel(pid, iterations)
        machine.add_processor(source, regs={1: pid})
    result = machine.run()
    return [result.time, machine.memory.counters["invalidations"],
            machine.memory.bus_utilization()]


def _assemble(experiment, values):
    table = Table(
        "E3  Cache coherence overhead under scaling (paper §1.1)",
        ["procs", "pattern", "time", "relative throughput", "invalidations",
         "bus utilization"],
        notes=[
            "relative throughput = n * t(1) / t(n); linear scaling keeps it ~n",
            "private pattern: disjoint lines; shared: one lock + one counter",
        ],
    )
    base_time = {}
    for config, (time, invalidations, bus_util) in zip(experiment.grid,
                                                      values):
        n_procs, pattern = config["procs"], config["pattern"]
        base = base_time.setdefault(pattern, time)
        table.add_row(n_procs, pattern, time, n_procs * base / time,
                      invalidations, bus_util)
    return table


#: Processors per write-policy run, and stores each one makes.
POLICY_PROCS = 4
POLICY_STORES = 24


def run_policy_point(config):
    """"Store-through ... does not completely solve the problem either"
    (§1.1): every store becomes a bus transaction, and invalidations are
    still required.  One policy's run: [time, store bus transactions,
    invalidations, bus utilization]."""
    machine = VNMachine(POLICY_PROCS, memory="bus",
                        cache_config=CacheConfig(line_words=4),
                        memory_time=10, bus_time=2,
                        write_policy=config["policy"])
    for pid in range(POLICY_PROCS):
        machine.add_processor(f"""
            movi r2, {pid}
            movi r3, {POLICY_STORES}
        loop:
            beqz r3, done
            store r3, r2, 0
            subi r3, r3, 1
            jmp loop
        done:
            halt
        """, regs={1: pid})
    result = machine.run()
    counters = machine.memory.counters
    store_traffic = (
        counters.get("bus_write_through")
        + counters.get("bus_write_miss")
        + counters.get("bus_upgrade")
    )
    return [result.time, store_traffic, counters.get("invalidations"),
            machine.memory.bus_utilization()]


def _assemble_policy(experiment, values):
    table = Table(
        "E3b  Write-back vs write-through under a store-heavy kernel "
        "(paper §1.1)",
        ["policy", "time", "store bus transactions", "invalidations",
         "bus utilization"],
        notes=[f"{POLICY_PROCS} processors, each storing {POLICY_STORES}x "
               "into its own word of one shared line region"],
    )
    for config, row in zip(experiment.grid, values):
        table.add_row(config["policy"], *row)
    return table


SWEEPS = {
    "e03_cache_coherence": Experiment(
        name="e03_cache_coherence",
        run=run_point,
        grid=[{"pattern": pattern, "procs": n_procs}
              for pattern in ("private", "shared") for n_procs in PROCS],
        assemble=_assemble,
    ),
    "e03b_write_policy": Experiment(
        name="e03b_write_policy",
        run=run_policy_point,
        grid=[{"policy": policy}
              for policy in ("write_back", "write_through")],
        assemble=_assemble_policy,
    ),
}


_at = row_at("procs", "pattern")
_policy = row_at("policy")

#: The paper's claims, read off the tables (scaling at 8 processors).
CLAIMS = {
    "e03_cache_coherence": {
        # Private data scales near-linearly; shared data does not.
        "private_scales": lambda rows: _at(
            rows, 8, "private")["relative throughput"] > 5.0,
        "shared_does_not_scale": lambda rows: (
            _at(rows, 8, "shared")["relative throughput"]
            < _at(rows, 8, "private")["relative throughput"] / 2),
        # Sharing generates invalidation storms; private data nearly none.
        "sharing_invalidates": lambda rows: (
            _at(rows, 8, "shared")["invalidations"]
            > 20 * max(1, _at(rows, 8, "private")["invalidations"])),
        "shared_bus_saturates": lambda rows: _at(
            rows, 8, "shared")["bus utilization"] > 0.8,
    },
    "e03b_write_policy": {
        # Store-through makes *every* store a bus transaction (96 = 4
        # procs x 24 stores); write-back pays only for false sharing.
        "every_store_on_bus": lambda rows: 96 == _policy(
            rows, "write_through")["store bus transactions"] > 3 * _policy(
            rows, "write_back")["store bus transactions"],
        # It still needs the invalidations the paper requires, and it is
        # slower here.
        "still_invalidates": lambda rows: _policy(
            rows, "write_through")["invalidations"] >= _policy(
            rows, "write_back")["invalidations"],
        "write_through_slower": lambda rows: _policy(
            rows, "write_through")["time"] > _policy(
            rows, "write_back")["time"],
    },
}
