"""Benchmark-suite orchestration: the engine behind ``repro bench`` and
``benchmarks/run_all.py``.

The suite definition (which modules, which table-producing functions)
lives in ``benchmarks/run_all.py`` as the ``EXPERIMENTS`` list.  A bench
module may additionally publish ``SWEEPS = {table_name: Experiment}``;
those tables are executed *grid-parallel* — one worker per grid point —
while the rest run as single-config experiments (the whole table in one
worker).  Either way every run flows through the same scheduler, cache,
timeout and telemetry machinery in :mod:`repro.exp.engine`.

Results land exactly where the serial runner put them: a ``.txt`` +
``.json`` pair per table under ``benchmarks/results/`` and the aggregate
``BENCH_results.json`` at the repository root.
"""

import importlib
import json
import os
import sys
import time

from .cache import ResultCache, invalidate_fingerprints, resolve_cache_dir
from .engine import host_cpus, run_experiment
from .experiment import Experiment
from .tables import payload_to_table, table_rows, table_to_payload

__all__ = ["build_experiment", "find_bench_dir", "host_cpus", "run_suite"]

#: Seconds one benchmark run may take before it is terminated + retried.
DEFAULT_TIMEOUT = 300.0


def find_bench_dir(start=None):
    """Locate the benchmarks directory.

    Search order: ``$REPRO_BENCH_DIR``; ``start`` (or cwd) if it holds
    ``run_all.py``; a ``benchmarks/`` child of start/cwd; the checkout
    the :mod:`repro` package itself lives in.
    """
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        return os.path.abspath(env)
    here = os.path.abspath(start or os.getcwd())
    for candidate in (here, os.path.join(here, "benchmarks")):
        if os.path.isfile(os.path.join(candidate, "run_all.py")):
            return candidate
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidate = os.path.join(os.path.dirname(os.path.dirname(package_root)),
                             "benchmarks")
    if os.path.isfile(os.path.join(candidate, "run_all.py")):
        return candidate
    raise FileNotFoundError(
        "cannot find the benchmarks directory (looked for run_all.py; "
        "set REPRO_BENCH_DIR or run from the repository root)"
    )


def _run_legacy_table(config):
    """Worker body for an un-ported benchmark: import the module, call
    its table function, ship the rendered table back as a payload."""
    bench_dir = os.environ.get("REPRO_BENCH_DIR")
    if bench_dir and bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    module = importlib.import_module(config["module"])
    table = getattr(module, config["fn"])()
    return table_to_payload(table)


def _select(experiments, only):
    """The (module_name, fn_name, out_name) triples matching ``only``."""
    selected = []
    for module_name, runners in experiments:
        for fn_name, out_name in runners:
            if (only is None or only in module_name or only in out_name):
                selected.append((module_name, fn_name, out_name))
    return selected


def build_experiment(module, fn_name, out_name):
    """The Experiment for one table of an imported bench ``module``: the
    module's declared sweep when it has one, a single-config legacy
    wrapper otherwise.  Returns ``(experiment, is_sweep)``.  Public so
    the sweep service (:mod:`repro.serve`) resolves requests through the
    exact machinery ``repro bench`` uses."""
    sweeps = getattr(module, "SWEEPS", None)
    module_file = getattr(module, "__file__", None)
    code_paths = [module_file] if module_file else []
    if sweeps and out_name in sweeps:
        experiment = sweeps[out_name]
        if not experiment.code_paths:
            experiment.code_paths = code_paths
        return experiment, True
    return Experiment(
        name=out_name,
        run=_run_legacy_table,
        grid=[{"module": module.__name__, "fn": fn_name}],
        title=out_name,
        assemble=lambda exp, values: payload_to_table(values[0]),
        code_paths=code_paths,
    ), False


def _build_experiment(bench_dir, module_name, fn_name, out_name):
    return build_experiment(importlib.import_module(module_name),
                            fn_name, out_name)


def run_suite(only=None, jobs=None, no_cache=False, timeout=None,
              bench_dir=None, cache_dir=None, bus=None, err=None,
              faults=None):
    """Run the benchmark suite; returns the aggregate telemetry dict.

    ``jobs``/``timeout``/``no_cache`` map 1:1 onto the ``repro bench``
    CLI flags.  Tables print to stdout (as the serial runner always did);
    per-experiment progress lines go to ``err``.

    ``faults`` (a plan dict or a JSON file path, the ``--faults`` flag)
    is validated and exported as ``REPRO_FAULT_PLAN`` before the bench
    modules are imported; fault-aware sweeps (e20) read it while
    building their grids, so each fault level appears as its own row.
    The payload may carry a ``levels`` list overriding a sweep's default
    fault-severity grid.
    """
    err = err if err is not None else sys.stderr
    # Fingerprint memoization is per process-lifetime; a long-lived
    # driver would stamp stale code versions after an on-disk edit.
    invalidate_fingerprints()
    if faults is not None:
        from ..faults import FaultPlan

        if isinstance(faults, str):
            with open(faults, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        elif isinstance(faults, dict):
            payload = faults
        else:
            payload = faults.as_dict()
        FaultPlan.from_dict(payload)  # validate eagerly (allows "levels")
        os.environ["REPRO_FAULT_PLAN"] = json.dumps(payload, sort_keys=True)
    else:
        os.environ.pop("REPRO_FAULT_PLAN", None)
    bench_dir = find_bench_dir(bench_dir)
    os.environ["REPRO_BENCH_DIR"] = bench_dir
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    run_all = importlib.import_module("run_all")
    harness = importlib.import_module("harness")

    cache = None
    if not no_cache:
        cache = ResultCache(resolve_cache_dir(cache_dir, bench_dir))
    timeout = DEFAULT_TIMEOUT if timeout is None else timeout

    telemetry = []
    failures = []
    suite_start = time.time()
    for module_name, fn_name, out_name in _select(run_all.EXPERIMENTS, only):
        experiment, is_sweep = _build_experiment(
            bench_dir, module_name, fn_name, out_name)
        start = time.time()
        records = run_experiment(experiment, jobs=jobs, cache=cache,
                                 timeout=timeout, bus=bus)
        wall = time.time() - start
        cached = sum(1 for record in records if record.cached)
        failed = [record for record in records if not record.ok]
        if failed:
            for record in failed:
                print(f"[FAILED] {out_name}[{record.index}] "
                      f"{record.status} after {record.attempts} attempt(s):"
                      f"\n{record.error}", file=err)
            failures.append({
                "experiment": out_name,
                "module": module_name,
                "rows": [record.payload() for record in failed],
            })
            continue
        table = experiment.table([record.value for record in records])
        harness.write_table(
            table, out_name,
            meta={"wall_seconds": round(wall, 3),
                  "cache_hits": cached,
                  "grid": len(records)},
        )
        print(f"[{wall:6.1f}s] {out_name} "
              f"({cached}/{len(records)} cached)\n", file=err)
        telemetry.append({
            "experiment": out_name,
            "module": module_name,
            "title": table.title,
            "rows": len(table.rows),
            "columns": list(table.columns),
            "wall_seconds": round(wall, 3),
            "cache_hits": cached,
            "grid": len(records),
            "data": table_rows(table),
        })

    from ..common.simulator import resolve_shards

    aggregate = {
        "experiments": telemetry,
        "failures": failures,
        "meta": {
            "jobs": jobs if jobs is not None else host_cpus(),
            "cache": (None if cache is None else
                      {"root": cache.root, "hits": cache.hits,
                       "misses": cache.misses}),
            "wall_seconds": round(time.time() - suite_start, 3),
            # Provenance: where this sweep ran.  The tables themselves
            # are host-independent (the regression gate diffs them), the
            # telemetry is not — stamp enough to explain a slow run.
            "host_cpus": host_cpus(),
            "kernel": os.environ.get("REPRO_SIM_KERNEL") or "calendar",
            "shards": resolve_shards(),
            "python": sys.version.split()[0],
        },
    }
    aggregate_path = os.path.join(os.path.dirname(bench_dir),
                                  "BENCH_results.json")
    with open(aggregate_path, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    total = sum(entry["wall_seconds"] for entry in telemetry)
    print(f"[{total:6.1f}s] total -> {aggregate_path}"
          + (f"  [{len(failures)} FAILED]" if failures else ""), file=err)
    return aggregate
