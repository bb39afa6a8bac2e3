"""Event-kernel microbenchmark: calendar-queue throughput.

Measures raw post/fire throughput (events per second) of
:class:`repro.common.simulator.Simulator` on synthetic workloads shaped
like the hot paths of the real machine models:

* ``post_chain_int``     — self-perpetuating integer-delay ``post()``
  chains: the bucket fast path (PE pipeline stages, network hops);
* ``post_fanout_burst``  — every firing posts several events at small
  integer delays: token fanout under the calendar queue;
* ``post_fractional``    — fractional delays, so sub-cycle instants are
  measured, not assumed (the calendar keys buckets by the exact float
  instant, so these share the fast path).

Run directly to write ``BENCH_perf.json`` at the repo root.  Each
scenario runs ``--repeat`` times (at least 7) and records the median
events/s and the interquartile range of its runs, with ``spread`` the
IQR over the median, and ``kernel.trajectory`` keeps one entry of
medians and spreads per run (carried over from the previous file at
``--out``), so the kernel's speed reads as a series across changes
rather than as a ratio against another kernel, and a move smaller than
the spread reads as noise.  ``--experiments`` additionally times
the e10 scaling sweep and the e19 crossover in subprocesses.

The ``e2e.cold_start`` section times fresh interpreters: a bare ``python
-c pass``, ``import repro.cli`` and ``registry.names()`` (min and median
wall of 9 runs each), and lists the non-stdlib top-level modules that
``registry.names()`` loads, which should be none.

Usage::

    python benchmarks/bench_micro_kernel.py
    python benchmarks/bench_micro_kernel.py --experiments  # + e10/e19
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.simulator import Simulator  # noqa: E402
from repro.exp.bench import host_cpus  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_perf.json")

#: Experiments ``--experiments`` times end to end.
GATED_EXPERIMENTS = ("e10_ttda_scaling", "e19_crossover")

#: Runs kept in ``kernel.trajectory``.
TRAJECTORY_LENGTH = 20

#: Fewest repeats per scenario whose quartiles mean something.
MIN_REPEAT = 7


# ----------------------------------------------------------------------
# Scenarios.  Each takes n_events and returns events fired.  The
# workloads terminate naturally (countdown closures), so every run fires
# the identical event population to quiescence.
# ----------------------------------------------------------------------

def post_chain_int(n_events, chains=64):
    """Parallel integer-delay post() chains (the bucket fast path)."""
    sim = Simulator()
    budget = [n_events]

    def tick():
        budget[0] -= 1
        if budget[0] > 0:
            sim.post(1, tick)

    for _ in range(min(chains, n_events)):
        sim.post(1, tick)
    sim.run()
    return sim.events_fired


def post_fanout_burst(n_events, fanout=4, chains=32):
    """Every firing posts ``fanout`` events at mixed integer delays —
    token fanout on a loaded machine (``chains`` concurrent producers,
    the way every PE pipeline keeps its own events in flight)."""
    sim = Simulator()
    budget = [n_events]
    delays = (1, 1, 2, 3)

    def fire():
        budget[0] -= 1
        if budget[0] <= 0:
            return
        burst = min(fanout, budget[0])
        outstanding = [burst]
        for i in range(burst):
            sim.post(delays[i % len(delays)], sink, outstanding)

    def sink(outstanding):
        budget[0] -= 1
        outstanding[0] -= 1
        if outstanding[0] == 0 and budget[0] > 0:
            sim.post(1, fire)

    for _ in range(min(chains, n_events)):
        sim.post(1, fire)
    sim.run()
    return sim.events_fired


def post_fractional(n_events, chains=512):
    """Fractional delays under load: sub-cycle instants at the queue
    depths a large machine sustains."""
    sim = Simulator()
    budget = [n_events]

    def tick():
        budget[0] -= 1
        if budget[0] > 0:
            sim.post(0.5, tick)

    for _ in range(min(chains, n_events)):
        sim.post(0.25, tick)
    sim.run()
    return sim.events_fired


SCENARIOS = [
    ("post_chain_int", post_chain_int),
    ("post_fanout_burst", post_fanout_burst),
    ("post_fractional", post_fractional),
]


#: The analytic-surrogate answer-latency gate (seconds per query): the
#: whole point of ``repro predict`` is answering in microseconds what a
#: simulation answers in seconds, so a warm query must stay under 1 ms.
PREDICT_GATE_SECONDS = 1e-3


def run_predict_bench(repeat, queries=2000):
    """Warm-query latency of the analytic surrogate (repro.predict).

    Loads the committed ttda fit once, then times ``queries`` repeated
    in-region queries; reports best-of-``repeat`` mean seconds/query and
    the <1ms gate.  The simulated time of the same config (from the e10
    grid: seconds of wall clock per run) is what the surrogate avoids.
    """
    from repro.predict import PredictPlane

    plane = PredictPlane()
    config = {"workload": "matmul", "n_pes": 8, "network_latency": 20}
    predictor = plane.predictor("ttda")
    predictor.query(config)  # warm: artifact load + first import
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(queries):
            predictor.query(config)
        per_query = (time.perf_counter() - t0) / queries
        best = per_query if best is None else min(best, per_query)
    return {
        "machine": "ttda",
        "config": config,
        "queries": queries,
        "seconds_per_query": round(best, 9),
        "queries_per_sec": round(1.0 / best) if best else 0,
        "gate": {
            "target_seconds": PREDICT_GATE_SECONDS,
            "achieved_seconds": round(best, 9),
            "met": best < PREDICT_GATE_SECONDS,
        },
    }


#: Fresh-interpreter start-up probes: (name, code run with ``-c``).
COLD_START_PROBES = (
    ("python_pass", "pass"),
    ("import_repro_cli", "import repro.cli"),
    ("registry_names",
     "from repro.machines import registry; registry.names()"),
)
COLD_START_RUNS = 9

_FOREIGN_MODULES_PROBE = """
import json, sys
before = set(sys.modules)
from repro.machines import registry
registry.names()
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in loaded
    if name != "repro" and name not in sys.stdlib_module_names
)))
"""


def run_cold_start_bench():
    """Start-up wall of fresh interpreters, and what they import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    def python(code, **kwargs):
        return subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                              env=env, check=True, **kwargs)

    probes = {}
    for name, code in COLD_START_PROBES:
        walls = []
        for _ in range(COLD_START_RUNS):
            t0 = time.perf_counter()
            python(code)
            walls.append(time.perf_counter() - t0)
        walls.sort()
        probes[name] = {
            "min_seconds": round(walls[0], 4),
            "median_seconds": round(walls[len(walls) // 2], 4),
        }
    foreign = python(_FOREIGN_MODULES_PROBE, capture_output=True, text=True)
    return {
        "runs": COLD_START_RUNS,
        "probes": probes,
        "registry_names_foreign_modules": json.loads(foreign.stdout),
        "python": sys.version.split()[0],
        "host_cpus": host_cpus(),
    }


def run_kernel_bench(n_events, repeat):
    """Median and interquartile range of events/sec over ``repeat``
    runs per scenario; ``spread`` is the IQR over the median."""
    results = {}
    for name, fn in SCENARIOS:
        rates = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fired = fn(n_events)
            elapsed = time.perf_counter() - t0
            rates.append(fired / elapsed if elapsed > 0 else 0.0)
        median = statistics.median(rates)
        q1, _q2, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        results[name] = {"events_per_sec": round(median),
                         "iqr_events_per_sec": [round(q1), round(q3)],
                         "spread": round((q3 - q1) / median, 4),
                         "events_fired": fired}
    return results


def previous_trajectory(path):
    """``kernel.trajectory`` of the file at ``path`` ([] if none)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["kernel"]["trajectory"]
    except (OSError, ValueError, KeyError):
        return []


def run_experiment_timings():
    """Wall-clock (seconds) for the gated experiments, one subprocess
    each, cache disabled so the measured work is the real simulation."""
    timings = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    for exp in GATED_EXPERIMENTS:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--only", exp,
             "--jobs", "0", "--no-cache"],
            cwd=REPO_ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        timings[exp] = {"wall_seconds": round(time.perf_counter() - t0, 3)}
    return timings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000,
                        help="events per scenario (default 200000)")
    parser.add_argument("--repeat", type=int, default=MIN_REPEAT,
                        help="repetitions per scenario, at least "
                             f"{MIN_REPEAT}; the median and IQR are kept "
                             f"(default {MIN_REPEAT})")
    parser.add_argument("--experiments", action="store_true",
                        help="also time the gated experiments (e10, e19)")
    parser.add_argument("--skip-predict", action="store_true",
                        help="skip the analytic-surrogate latency section")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default: repo BENCH_perf.json)")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without writing the JSON file")
    args = parser.parse_args(argv)
    if args.repeat < MIN_REPEAT:
        parser.error(f"--repeat must be at least {MIN_REPEAT}")

    scenarios = run_kernel_bench(args.events, args.repeat)
    width = max(len(name) for name in scenarios)
    print(f"{'scenario':<{width}}  {'median ev/s':>11}  {'spread':>6}")
    for name, row in scenarios.items():
        print(f"{name:<{width}}  {row['events_per_sec']:>11}  "
              f"{row['spread']:>6.1%}")
    meta = {"host_cpus": host_cpus(), "python": sys.version.split()[0]}
    run = dict(meta, recorded=time.strftime("%Y-%m-%d", time.gmtime()),
               events_per_sec={name: row["events_per_sec"]
                               for name, row in scenarios.items()},
               spread={name: row["spread"]
                       for name, row in scenarios.items()})
    trajectory = previous_trajectory(args.out) + [run]
    payload = {
        "meta": meta,
        "kernel": {
            "events_per_scenario": args.events,
            "repeat": args.repeat,
            "scenarios": scenarios,
            "trajectory": trajectory[-TRAJECTORY_LENGTH:],
        },
    }

    if not args.skip_predict:
        print("\nbenchmarking the analytic surrogate (repro predict)...")
        predict = run_predict_bench(args.repeat)
        payload["predict"] = predict
        gate = predict["gate"]
        verdict = "met" if gate["met"] else "NOT met"
        print(f"  warm query: {predict['seconds_per_query'] * 1e6:.1f} us "
              f"({predict['queries_per_sec']} queries/s); gate "
              f"<{gate['target_seconds'] * 1e3:.0f}ms {verdict}")

    print(f"\ntiming cold start ({COLD_START_RUNS} fresh interpreters "
          f"per probe)...")
    cold = run_cold_start_bench()
    payload["e2e"] = {"cold_start": cold}
    for name, row in cold["probes"].items():
        print(f"  {name:<16}: min {row['min_seconds']:.3f}s, "
              f"median {row['median_seconds']:.3f}s")
    print(f"  non-stdlib modules under registry.names(): "
          f"{cold['registry_names_foreign_modules']}")

    if args.experiments:
        print("\ntiming gated experiments (subprocess, cache off)...")
        payload["experiments"] = run_experiment_timings()
        for exp, row in payload["experiments"].items():
            print(f"  {exp}: {row['wall_seconds']:.3f}s")

    if not args.no_write:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
