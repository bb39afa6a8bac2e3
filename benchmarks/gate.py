"""The bench gate: the whole suite cold and warm against its baselines,
and the differential legs too slow for the tier-1 tests.

Usage, from any directory, on the standard library alone::

    python3 benchmarks/gate.py [--out DIR]   # check JSON + trace to DIR

Legs, in this order:

* ``faults``: e20 under one fault plan at ``--jobs 2``, at ``--jobs
  0``, and with ``--remote`` against a ``repro serve --no-store``
  started for the leg; the three tables must be byte-identical.
* ``hashseed``: e10b, e12 and e12b under ``PYTHONHASHSEED`` 1 and 2;
  the tables must be byte-identical (PE placement must not follow the
  per-process str hash).
* ``micro``: the event-kernel microbenchmark runs (no file written).
* ``suite``: every table cold at ``--jobs 2`` into a fresh store with
  ``--check`` (its sweep events go to ``sweep-events.jsonl`` beside the
  check JSON), then again warm from that store with ``--check``; the
  warm run must take every cell from the store (``meta.cells.cold ==
  0``), so a cell value that does not survive JSON shows as a diff.
* ``fits``: ``repro predict --fit`` into a scratch directory, with
  ``REPRO_STORE`` at the suite leg's store.  It must simulate no cell
  (e21's cells are the fit points, and the suite stored them), and
  every file must equal its committed twin in ``benchmarks/fits`` byte
  for byte.

Each bench run rewrites ``benchmarks/results/`` and
``BENCH_results.json``, as ``repro bench`` always does; the suite leg
is the last bench run, so they end up fault-free.  Run it in a scratch
copy to keep a checkout clean.  Every leg runs; the exit status is 1 if
any failed.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")

FAULT_PLAN = {"seed": 11, "mem_slow_rate": 0.9, "mem_slow_cycles": 64.0,
              "levels": [0, 64]}
#: ``--only`` selections and the tables they write, for the hashseed leg.
HASHSEED_RUNS = ("e10b", "e12")
HASHSEED_TABLES = ("e10b_mapping_ablation", "e12_matching_store",
                   "e12b_matching_store_pes")


def repro(*args, hashseed=None, store=None, capture=False):
    """Run ``python -m repro ARGS`` on this checkout's ``src``, with
    ``REPRO_STORE`` at ``store`` when given; returns its stdout when
    ``capture`` is set."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    if store is not None:
        env["REPRO_STORE"] = store
    print(f"$ repro {' '.join(args)}", flush=True)
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=ROOT,
                          env=env, check=True, text=True,
                          stdout=subprocess.PIPE if capture else None).stdout


@contextlib.contextmanager
def serve(*args):
    """``repro serve --port 0 ARGS`` on this checkout in its own process;
    yields the URL its banner names and stops it on the way out."""
    print(f"$ repro serve --port 0 {' '.join(args)} &", flush=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stderr.readline()   # "repro serve: http://HOST:PORT ..."
        if "http://" not in line:
            raise subprocess.CalledProcessError(proc.wait(), proc.args)
        yield line.split()[2]
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stderr.close()


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def tables(*names):
    return [read(os.path.join(RESULTS, f"{name}.txt")) for name in names]


def faults_leg(scratch, out):
    plan = os.path.join(scratch, "fault-plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump(FAULT_PLAN, fh)
    bench = ("bench", "--only", "e20", "--faults", plan, "--no-cache")
    runs = []
    for jobs in ("2", "0"):
        repro(*bench, "--jobs", jobs)
        runs.append(tables("e20_fault_tolerance"))
    with serve("--no-store", "--workers", "2") as url:
        repro(*bench, "--remote", url)
    runs.append(tables("e20_fault_tolerance"))
    return runs[0] == runs[1] == runs[2]


def hashseed_leg(scratch, out):
    runs = []
    for seed in (1, 2):
        for only in HASHSEED_RUNS:
            repro("bench", "--only", only, "--no-cache", "--jobs", "0",
                  hashseed=seed)
        runs.append(tables(*HASHSEED_TABLES))
    return runs[0] == runs[1]


def micro_leg(scratch, out):
    args = ["--events", "50000", "--no-write"]
    print(f"$ bench_micro_kernel.py {' '.join(args)}", flush=True)
    subprocess.run([sys.executable, os.path.join(
        ROOT, "benchmarks", "bench_micro_kernel.py"), *args],
        cwd=ROOT, check=True)
    return True


def suite_leg(scratch, out):
    store = os.path.join(scratch, "store")
    trace = ["--trace", os.path.join(out, "sweep-events.jsonl")]
    for run, extra in (("cold", trace), ("warm", [])):
        repro("bench", "--jobs", "2", "--cache-dir", store,
              "--check", "--check-out",
              os.path.join(out, f"full-bench-{run}-check.json"),
              *extra)
    with open(os.path.join(ROOT, "BENCH_results.json"), "r",
              encoding="utf-8") as fh:
        cells = json.load(fh)["meta"]["cells"]
    print(f"warm rerun: {cells}")
    return cells["cold"] == 0


def fits_leg(scratch, out):
    fresh = os.path.join(scratch, "fits")
    committed = os.path.join(ROOT, "benchmarks", "fits")
    written = repro("predict", "--fit", "--json", "--fits-dir", fresh,
                    store=os.path.join(scratch, "store"), capture=True)
    cells = json.loads(written)["cells"]
    print(f"refit from the suite's store: {cells}")
    names = sorted(os.listdir(committed))
    return cells["cold"] == 0 and sorted(os.listdir(fresh)) == names and all(
        read(os.path.join(fresh, name)) == read(os.path.join(committed, name))
        for name in names)


LEGS = {"faults": faults_leg, "hashseed": hashseed_leg, "micro": micro_leg,
        "suite": suite_leg, "fits": fits_leg}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="gate-out", metavar="DIR",
                        help="where the suite leg's check JSON and sweep "
                             "trace go (default ./gate-out)")
    out = os.path.abspath(parser.parse_args(argv).out)
    os.makedirs(out, exist_ok=True)
    failed = []
    with tempfile.TemporaryDirectory(prefix="repro-gate-") as scratch:
        for name, leg in LEGS.items():
            try:
                ok = leg(scratch, out)
            except subprocess.CalledProcessError as exc:
                print(exc, file=sys.stderr)
                ok = False
            print(f"[{'ok' if ok else 'FAILED'}] {name}", flush=True)
            if not ok:
                failed.append(name)
    if failed:
        print(f"gate failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
