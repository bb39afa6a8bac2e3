#!/usr/bin/env python3
"""The repository's benchmark: four workloads, calibrated host times.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dataflow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
earlier line is a human-readable table, each metric with its unit and,
for host times, the raw wall beside the calibrated value.  See
``perfbench/README.md`` for the workloads, metrics and method.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (NAMES, NullTracer, Outcome, digest_of,  # noqa: E402
                    load_workload)
from hostcalib import NOMINAL_CALIB_MS, Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Fresh-interpreter set-ups per run, each paired with a reference
#: start; ``setup_s`` is the fastest set-up over the fastest reference.
SETUP_SAMPLES = 9

#: What a reference start imports: the third-party and standard-library
#: modules the program's set-up loads, and nothing of ``repro``, so that
#: no program change can move it.  It does the same kind of work as a
#: set-up (process start, shared libraries, unmarshalling), which the
#: calibration loop does not.
REFERENCE_IMPORTS = ("numpy, networkx, asyncio, sqlite3, ssl, email, "
                     "http.server, multiprocessing, concurrent.futures, "
                     "decimal, csv, statistics, logging, json")

#: Fastest reference start (s) on an idle fast CPU of the reference host;
#: ``setup_s`` is scaled to it.
NOMINAL_REFERENCE_S = 0.25

#: Rounds after which ``peak_rss_mb`` is read: a fixed op count rather
#: than the end of the run, because the service keeps every sweep it
#: ran, so its memory grows with the number of ops, which follows the
#: host's speed.
RSS_ROUNDS = 3

#: Fresh ``python -X importtime`` interpreters per traced run.
IMPORT_SAMPLES = 3

#: Packages whose cumulative import time the traced run reports.
IMPORT_PACKAGES = ["repro", "repro.common", "repro.dataflow",
                   "repro.network", "repro.vonneumann", "repro.machines",
                   "repro.exp", "repro.serve", "repro.predict"]

#: Layer spans; the traced run reports each as ``<span>_ms``, its
#: calibrated self time per op (0 where the workload lacks the layer).
LAYER_SPANS = ["machines.create", "machines.run", "obs.accounting",
               "lang.compile", "dataflow.build", "dataflow.run",
               "workloads.check", "vonneumann.assemble", "vonneumann.run",
               "serve.submit", "serve.wait", "serve.store_get",
               "serve.store_put"]

#: Figures the workloads measure themselves, with their units; every
#: traced run reports each (0 where the workload lacks the layer).
LAYER_FIGURES = {
    **{f"exp.experiment_ms.{name}": "ms"
       for name in ("e01", "e02", "e03", "e03b", "e04", "e05", "e06",
                    "e07", "e08", "e08b", "e09")},
    "exp.worker_busy_frac": "frac",
    "serve.queue_wait_ms": "ms",
    "serve.cell_ms": "ms",
    "serve.http_ms": "ms",
    "serve.backup_wasted_frac": "frac",
    "predict.query_us": "us",
}

#: The exact counts every traced run reports (0 where the workload does
#: not reach the layer).
EXACT_COUNTS = ["common.events", "dataflow.tokens", "dataflow.instructions",
                "network.combines", "network.splits", "exp.cells",
                "serve.cells_executed", "serve.cells_store_hit",
                "serve.workers_spawned", "serve.requeued"]


def checkout_root():
    """The checkout the benchmark runs in (the working directory), or
    None when it lacks the program's source."""
    root = os.getcwd()
    needed = [os.path.join(root, "src", "repro", "__init__.py"),
              os.path.join(root, "benchmarks", "run_all.py")]
    return root if all(os.path.isfile(p) for p in needed) else None


def child_env(root):
    """Environment for every interpreter the benchmark starts: the
    checkout's ``src`` first on the path, temp files inside the run's
    work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    env.pop("REPRO_EXP_CACHE", None)
    env.pop("REPRO_BENCH_DIR", None)
    return env


# ---------------------------------------------------------------------------
# measurement


class Record:
    __slots__ = ("kind", "spec", "t0", "t1", "outcome")

    def __init__(self, kind, spec, t0, t1, outcome):
        self.kind = kind
        self.spec = spec
        self.t0 = t0
        self.t1 = t1
        self.outcome = outcome

    @property
    def wall(self):
        return self.t1 - self.t0

    def factor(self, calib):
        """This op's calibration scale."""
        return calib.factor(self.t0, self.t1, self.outcome.calib_ms)


def run_op(workload, tracer, index, kind, spec):
    workload.prepare(kind, spec)  # untimed per-op set-up (scratch copies)
    tracer.op = index
    t0 = time.perf_counter()
    try:
        outcome = workload.run(kind, spec)
    except Exception:  # a failed op is counted, never fatal to the run
        outcome = Outcome(ok=False, error=traceback.format_exc())
    t1 = time.perf_counter()
    return Record(kind, spec, t0, t1, outcome)


def measure(workload, tracer, calib, seconds=None, specs=None):
    """Closed loop: whole rounds of ops until ``seconds`` have passed,
    or exactly the ops in ``specs`` (a replay).  Each op is checked
    right after it ran, outside its timing.  Returns the records and,
    for a timed loop, the peak RSS (MB) after :data:`RSS_ROUNDS`
    rounds."""
    records = []
    start = time.perf_counter()

    def step(kind, spec):
        calib.maybe()
        record = run_op(workload, tracer, len(records), kind, spec)
        workload.check(record)
        records.append(record)

    rss_mb = None
    if specs is not None:
        for kind, spec in specs:
            step(kind, spec)
    else:
        stream = workload.ops()
        rounds = 0
        while True:
            for _ in range(workload.round_len):
                step(*next(stream))
            rounds += 1
            if rounds == RSS_ROUNDS:
                rss_mb = peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                break
        if rss_mb is None:
            rss_mb = peak_rss_mb()
    calib.sample()
    return records, rss_mb


def setup_samples(root, work, name, samples):
    """([set-up s], [reference s]): wall seconds of ``samples``
    fresh-interpreter set-ups and as many reference starts, alternated,
    each from starting the interpreter to its ``ready``."""
    setups, references = [], []
    for index in range(samples):
        probe_dir = os.path.join(work, f"probe{index}")
        os.makedirs(probe_dir)
        setups.append(_time_start(
            [os.path.join(HERE, "setupprobe.py"), name, probe_dir], root))
        shutil.rmtree(probe_dir, ignore_errors=True)
        references.append(_time_start(
            ["-c", f"import {REFERENCE_IMPORTS}; print('ready', flush=True);"
             " import sys; sys.stdin.read()"], root))
    return setups, references


def _time_start(args, root):
    """Seconds from starting ``python args`` to its ``ready`` line; the
    process is then told to tear down (its stdin closes) and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=root,
                            env=child_env(root), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{args[0]} failed to start (exit "
                           f"{proc.returncode}, said {line!r})")
    return t1 - t0


def import_times(root):
    """Median cumulative import time (ms) of each of
    :data:`IMPORT_PACKAGES`, imported in that order, over fresh
    ``-X importtime`` interpreters; ``repro`` stands for the whole set."""
    code = "import " + ", ".join(IMPORT_PACKAGES)
    samples = {name: [] for name in IMPORT_PACKAGES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=60, check=True)
        found = {}
        total = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            cumulative = fields[1].strip()
            module = fields[2].strip()
            if not cumulative.isdigit():
                continue  # the header line
            ms = int(cumulative) / 1000.0
            if module in samples and module not in found:
                found[module] = ms
            if module.startswith("repro") and \
                    not fields[2][1:].startswith(" "):
                total += ms  # a top-level import of the statement
        found["repro"] = total
        for name, ms in found.items():
            samples[name].append(ms)
    return {name: statistics.median(values) if values else 0.0
            for name, values in samples.items()}


def peak_rss_mb():
    """Peak resident set (MB) of the driver, plus the largest process it
    has reaped (a ``suite`` bench run with its workers), plus the peak of
    every process still running under it (the ``serve`` pool workers).
    Linux gives ``ru_maxrss`` and ``VmHWM`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = sum(_peak_kib(pid) for pid in _descendants(os.getpid()))
    return (own + reaped + live) / 1024.0


def _descendants(root):
    """Pids of the live processes under ``root``, from ``/proc``."""
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue  # it has just exited
        # "pid (command) state ppid ...": the command may hold spaces.
        parents[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [p for p, parent in parents.items() if parent == pid]
        found += children
        frontier += children
    return found


def _peak_kib(pid):
    """``VmHWM`` (peak resident set, KiB) of a live process, else 0."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# reporting


def kind_times(records, calib, kind):
    """(calibrated ms list, raw ms list) of the ok ops of ``kind``."""
    cal, raw = [], []
    for r in records:
        if r.kind == kind and r.outcome.ok:
            raw.append(1000.0 * r.wall)
            cal.append(1000.0 * r.wall * r.factor(calib))
    return cal, raw


def digests(records, prefix):
    """(digest of the first ``prefix`` ops, digest of all ops)."""
    chain = [r.outcome.digest for r in records]
    return digest_of(chain[:prefix]), digest_of(chain)


class Report:
    """Collects metric lines, then prints them and the JSON last line."""

    def __init__(self, workload, seed, trace):
        self.rows = []
        self.json_metrics = {}
        print(f"# perfbench workload={workload} seed={seed} "
              f"trace={trace}")

    def add(self, name, value, unit, raw=None, in_json=False):
        self.rows.append((name, value, unit, raw))
        if in_json:
            self.json_metrics[name] = {"value": value, "unit": unit}

    def note(self, text):
        self.rows.append((text, None, None, None))

    def emit(self, correct, attempted, failed):
        for name, value, unit, raw in self.rows:
            if value is None:
                print(f"  {name}")
                continue
            text = f"  {name:<34} {value:>14.6g} {unit}"
            if raw is not None:
                text += f"   (raw wall {raw:.6g} {unit})"
            print(text)
        sys.stdout.flush()
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": self.json_metrics},
                         sort_keys=True))


def end_to_end(report, workload, records, calib, setups, rss_mb):
    """The untraced run's metrics (see README.md for each)."""
    primary = workload.primary
    cal, raw = kind_times(records, calib, primary)
    if not cal:
        raise RuntimeError("no op of the primary kind succeeded")
    starts, references = setups
    report.add("setup_s", min(starts) * NOMINAL_REFERENCE_S
               / min(references), "s", raw=min(starts), in_json=True)
    report.add("setup_median_s", statistics.median(starts), "s")
    report.add("setup_reference_s", min(references), "s")
    report.add("op_ms", statistics.median(cal), "ms",
               raw=statistics.median(raw), in_json=True)
    if len(cal) >= 100:
        report.add("op_p90_ms", statistics.quantiles(cal, n=10)[8], "ms",
                   raw=statistics.quantiles(raw, n=10)[8])
    ok = [r for r in records if r.kind == primary and r.outcome.ok]
    seconds = sum(c for c in cal) / 1000.0
    raw_seconds = sum(raw) / 1000.0
    cells = sum(r.outcome.cells for r in ok)
    report.add("cells_per_s", cells / seconds, "1/s",
               raw=cells / raw_seconds, in_json=True)
    events = sum(r.outcome.events for r in ok)
    if events:
        report.add("sim_events_per_s", events / seconds, "1/s",
                   raw=events / raw_seconds)
    for kind, metric in workload.side_metrics:
        side_cal, side_raw = kind_times(records, calib, kind)
        if side_cal:
            report.add(metric, statistics.median(side_cal), "ms",
                       raw=statistics.median(side_raw))
    report.add("peak_rss_mb", rss_mb, "MB", in_json=True)
    failed = sum(1 for r in records if not r.outcome.ok)
    report.add("failed_frac", failed / len(records), "frac")
    report.note(f"ops: {len(records)} ({len(cal)} timed {primary} ops)")


def per_layer(report, workload, base, traced, calib_base, calib_traced,
              tracer, extras, extra_counts, root):
    """The traced run's metrics: layer self times, exact counts, import
    times, host speed and tracing overhead."""
    n_ops = len(traced)
    prefix = workload.round_len
    imports = import_times(root)
    for package in IMPORT_PACKAGES:
        short = package.split(".", 1)[1] if "." in package else "repro"
        report.add(f"import.{short}_ms", imports[package], "ms",
                   in_json=True)
    calib_ms, calib_spread = calib_traced.summary()
    report.add("host.calib_ms", calib_ms, "ms", in_json=True)
    report.add("host.calib_spread", calib_spread, "frac", in_json=True)
    report.add("host.steal_frac", calib_traced.steal_share(), "frac",
               in_json=True)

    # Self time per layer, each span scaled by its op's calibration.
    factors = [r.factor(calib_traced) for r in traced]
    self_cal = tracer.self_times(lambda op: factors[op])
    for name in LAYER_SPANS:
        report.add(f"{name}_ms", 1000.0 * self_cal.get(name, 0.0) / n_ops,
                   "ms", in_json=True)
    for name, label in (("dataflow.run", "dataflow.ns_per_event"),
                        ("vonneumann.run", "vonneumann.ns_per_event")):
        events = workload.layer_events(name, traced)
        report.add(label, 1e9 * self_cal.get(name, 0.0) / events
                   if events else 0.0, "ns", in_json=True)

    counts = {name: 0 for name in EXACT_COUNTS}
    for r in traced[:prefix]:
        counts["common.events"] += r.outcome.events
        for key, value in r.outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    counts.update(extra_counts)
    for name in EXACT_COUNTS:
        report.add(name, counts[name], "count", in_json=True)
    figures = dict.fromkeys(LAYER_FIGURES, 0.0)
    for name, value, unit in extras:
        if name in figures:
            figures[name] = value
        else:
            report.add(name, value, unit)
    for name, value in figures.items():
        report.add(name, value, LAYER_FIGURES[name], in_json=True)

    base_cal, _ = kind_times(base, calib_base, workload.primary)
    traced_cal, _ = kind_times(traced, calib_traced, workload.primary)
    report.add("trace.op_ms", statistics.median(traced_cal), "ms",
               in_json=True)
    report.add("trace.overhead", statistics.median(traced_cal)
               / statistics.median(base_cal), "x", in_json=True)
    report.note(f"traced ops: {n_ops}; exact counts over the first "
                f"{prefix} op(s)")


# ---------------------------------------------------------------------------
# driver


def run(args, root, work):
    name = args.workload
    trace = bool(args.trace)
    report = Report(name, args.seed, args.trace)
    workload = load_workload(name, NullTracer())
    workload.configure(root, work, args.seed, tiny=args.tiny)
    workload.setup()
    traced = tracer = calib_traced = None
    try:
        calib = Calibrator(workload.calib_interval, workload.all_cpus)
        calib.sample()
        warm = workload.warmup()
        seconds = args.seconds / 2.0 if trace else args.seconds
        records, rss_mb = measure(workload, NullTracer(), calib,
                                  seconds=seconds)
        if warm is not None and warm.digest != records[0].outcome.digest:
            records[0].outcome.ok = False
            records[0].outcome.error = "warm-up and first op digests differ"
        if trace:
            tracer = Tracer()
            workload.reset()
            workload.tracer = tracer
            workload.layers()
            calib_traced = Calibrator(workload.calib_interval,
                                      workload.all_cpus)
            calib_traced.sample()
            try:
                traced, _ = measure(workload, tracer, calib_traced,
                                    specs=[(r.kind, r.spec) for r in records])
            finally:
                tracer.restore()
            for a, b in zip(records, traced):
                if a.outcome.digest != b.outcome.digest and b.outcome.ok:
                    b.outcome.ok = False
                    b.outcome.error = "traced op digest differs"
            extras = workload.layer_extras(traced, calib_traced)
            extra_counts = workload.extra_counts()
    finally:
        workload.close()

    if not trace:
        # After the ops, so that no probe counts in ``peak_rss_mb``.
        setups = setup_samples(root, work, name, args.setup_samples)
    judged = traced if trace else records
    prefix, full = digests(judged, workload.round_len)
    if trace:
        tracer.write(os.path.join(
            root, ".perfbench", f"spans-{name}-seed{args.seed}.jsonl"))
        per_layer(report, workload, records, traced, calib, calib_traced,
                  tracer, extras, extra_counts, root)
    else:
        end_to_end(report, workload, records, calib, setups, rss_mb)
    calib_ms, spread = calib.summary()
    report.note(f"host calibration loop {calib_ms:.4f} ms median, spread "
                f"{spread:.4f} (nominal {NOMINAL_CALIB_MS} ms); steal "
                f"{calib.steal_share():.4f} of busy CPU time")
    report.note(f"digest {prefix[:16]} (first {workload.round_len} ops)  "
                f"digest_all {full[:16]} ({len(judged)} ops)")
    failures = [r for r in records + (traced or []) if not r.outcome.ok]
    for r in failures[:5]:
        report.note(f"FAILED {r.kind} {json.dumps(r.spec, default=repr)}: "
                    f"{(r.outcome.error or '').strip().splitlines()[-1:]}")
    attempted = len(records) + len(traced or [])
    report.emit(correct=not failures, attempted=attempted,
                failed=len(failures))
    return 0 if not failures else 1


def self_check(root):
    """Tiny runs of every workload, traced and untraced; non-zero on any
    failed check or missing metric."""
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--tiny"],
                cwd=root, capture_output=True, text=True, timeout=180)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False}
            if proc.returncode != 0 or not result["correct"]:
                print(f"self-check: {name} trace={trace} FAILED")
                status = 1
    print("self-check:", "ok" if status == 0 else "FAILED")
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up sample")
    parser.add_argument("--self-check", action="store_true",
                        help="tiny runs of every workload, both modes")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    args.setup_samples = 1 if args.tiny else SETUP_SAMPLES
    return args


def main(argv=None):
    args = parse_args(argv)
    root = checkout_root()
    if root is None:
        print("perfbench: run from the root of a checkout (needs "
              "src/repro and benchmarks/)", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ.update(child_env(root))
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        import repro

        if not os.path.abspath(repro.__file__).startswith(src + os.sep):
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"from {src}", file=sys.stderr)
            return 2
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
