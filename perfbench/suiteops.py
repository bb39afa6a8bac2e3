"""The ``suite`` workload: cold ``python -m repro bench`` runs.

An op is one cold ``repro bench --only e0 --jobs 2`` (experiments
e01-e09) in a scratch copy of ``benchmarks/`` with an empty cache
directory, so the bench driver, the engine's worker processes, the
directory cache and CLI start-up are all on the measured path.  Every
op's tables are checked against ``benchmarks/baselines/`` with
``repro.obs.analysis.check_suite``; a cache hit fails the op, since a
cold run was asked for.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import Outcome, Workload, digest_of
from hostcalib import calib_sample

#: Experiments each op runs (``--only``); the tiny self-check uses one
#: single-cell experiment.
ONLY = "e0"
TINY_ONLY = "e02"
JOBS = 2
#: Seconds one bench run may take before it is killed (a failed op).
TIMEOUT = 170


class SuiteWorkload(Workload):
    name = "suite"
    primary = "bench"
    all_cpus = True

    def __init__(self, tracer):
        super().__init__(tracer)
        self.traced = False
        self._ops = 0

    def configure(self, root, work, seed, tiny=False):
        # The suite's inputs are the committed experiment grids; the seed
        # has nothing to vary, so it only names the run.
        super().configure(root, work, seed)
        self.only = TINY_ONLY if tiny else ONLY

    def setup(self):
        from repro.obs.analysis import check_suite

        self.check_suite = check_suite
        self.template = os.path.join(self.work, "template")
        shutil.copytree(os.path.join(self.root, "benchmarks"), self.template,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      ".expcache"))
        self.baselines = os.path.join(self.root, "benchmarks", "baselines")

    def ops(self):
        while True:
            yield "bench", {"only": self.only, "jobs": JOBS}

    def warmup(self):
        self.prepare("bench", None)
        return self.run("bench", {"only": self.only, "jobs": JOBS})

    def prepare(self, kind, spec):
        """A fresh scratch copy for the next op, made outside its timing."""
        self._ops += 1
        self.op_dir = os.path.join(self.work, f"op{self._ops}")
        shutil.copytree(self.template, os.path.join(self.op_dir,
                                                    "benchmarks"))

    def run(self, kind, spec):
        op_dir = self.op_dir
        bench = os.path.join(op_dir, "benchmarks")
        cmd = [sys.executable, "-m", "repro", "bench", "--only",
               spec["only"], "--jobs", str(spec["jobs"]), "--bench-dir",
               bench, "--cache-dir", os.path.join(op_dir, "cache")]
        trace_path = os.path.join(op_dir, "sweep.jsonl")
        if self.traced:
            cmd += ["--trace", trace_path]
        try:
            code, loop_ms = _run_sampled(cmd, op_dir)
            if code != 0:
                with open(os.path.join(op_dir, "stderr.txt"),
                          encoding="utf-8") as fh:
                    return Outcome(ok=False, error=fh.read()[-2000:])
            with open(os.path.join(op_dir, "BENCH_results.json"),
                      encoding="utf-8") as fh:
                aggregate = json.load(fh)
            cell_walls = []
            if self.traced:
                cell_walls = _cell_walls(trace_path)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        outcome = self._judge(aggregate, cell_walls)
        outcome.calib_ms = loop_ms
        return outcome

    def _judge(self, aggregate, cell_walls):
        entries = aggregate["experiments"]
        check = self.check_suite(entries, self.baselines)
        hits = sum(entry["cache_hits"] for entry in entries)
        errors = []
        if aggregate["failures"]:
            errors.append(f"{len(aggregate['failures'])} failed experiments")
        if not check["ok"] or check["missing"]:
            errors.append(f"check_suite: {len(check['diffs'])} diff(s), "
                          f"missing {check['missing']}")
        if hits:
            errors.append(f"{hits} cache hit(s) in a cold run")
        if not entries:
            errors.append("no experiment ran")
        tables = [(e["experiment"], e["columns"], e["data"])
                  for e in sorted(entries, key=lambda e: e["experiment"])]
        cells = sum(entry["grid"] for entry in entries)
        return Outcome(
            ok=not errors, error="; ".join(errors) or None,
            digest=digest_of(tables), cells=cells,
            counts={"exp.cells": cells},
            extra={"walls": {e["experiment"]: e["wall_seconds"]
                             for e in entries},
                   "cell_walls": cell_walls})

    def layers(self):
        self.traced = True

    def layer_extras(self, records, calib):
        """Per-experiment cold walls and the engine's worker busy share,
        from the aggregate and the ``sweep_task`` events of each op."""
        ok = [r for r in records if r.outcome.ok]
        out = []
        names = sorted({n for r in ok for n in r.outcome.extra["walls"]})
        for name in names:
            walls = sorted(1000.0 * r.outcome.extra["walls"][name]
                           * r.factor(calib) for r in ok)
            out.append((f"exp.experiment_ms.{name.split('_')[0]}",
                        walls[len(walls) // 2], "ms"))
        busy = sum(sum(r.outcome.extra["cell_walls"]) for r in ok)
        span = sum(JOBS * r.wall for r in ok)
        out.append(("exp.worker_busy_frac", busy / span if span else 0.0,
                    "frac"))
        return out


def _run_sampled(cmd, op_dir, every=0.05):
    """Run ``cmd`` to completion, timing one calibration loop every
    ``every`` seconds while it runs; returns (exit code, loop ms).

    The bench run spreads over both CPUs for seconds, long enough for
    each CPU to change speed several times, so the loop is sampled
    through the op rather than only beside it, pinned to each CPU in
    turn; the per-CPU mean times are combined as the CPUs' joint rate
    (see :func:`hostcalib.calib_sample_cpus`).  A sleeping sampler wakes
    ahead of the busy workers, so a sample reads the CPU's speed rather
    than the queue; it takes about 5% of one CPU.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = {cpu: [] for cpu in sorted(cpus)}
    order = sorted(cpus)
    try:
        with open(os.path.join(op_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(op_dir, "stderr.txt"), "w") as err:
            proc = subprocess.Popen(cmd, cwd=op_dir, stdout=out, stderr=err)
            deadline = time.monotonic() + TIMEOUT
            while True:
                try:
                    code = proc.wait(timeout=every)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        proc.kill()
                        proc.wait()
                        raise
                    cpu = order[sum(map(len, per_cpu.values())) % len(order)]
                    os.sched_setaffinity(0, {cpu})
                    per_cpu[cpu].append(calib_sample())
    finally:
        os.sched_setaffinity(0, cpus)
    means = [statistics.fmean(v) for v in per_cpu.values() if v]
    if not means:
        return code, None
    return code, 1000.0 * len(means) / sum(1.0 / m for m in means)


def _cell_walls(path):
    """Wall seconds of every executed cell in a ``repro bench --trace``
    JSONL file (its ``sweep_task`` events)."""
    walls = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event.get("kind") == "sweep_task" and not event.get("cached"):
                walls.append(float(event.get("wall", 0.0)))
    return walls
