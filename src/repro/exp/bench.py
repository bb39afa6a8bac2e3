"""Benchmark-suite orchestration: the engine behind ``repro bench`` and
``benchmarks/run_all.py``.

The suite definition (which modules, which table-producing functions)
lives in ``benchmarks/run_all.py`` as the ``EXPERIMENTS`` list, walked
only by :func:`suite_tables`.  A bench module may additionally publish
``SWEEPS = {table_name: Experiment}``; those tables are executed
*grid-parallel* — one task per grid point — while the rest run as
single-config experiments (the whole table in one task).  The module's
``CLAIMS`` (:mod:`repro.exp.claims`) are evaluated in this process once
a table is assembled, by :func:`table_entry`.  With ``jobs >= 1`` every
selected table is submitted up front to
one :class:`~repro.serve.scheduler.SweepScheduler` pool, so cells of
later experiments keep workers busy that a single-cell experiment would
leave idle; ``jobs=0`` runs them one after another inline.  Either way
results are read from and written to the SQLite store
(:mod:`repro.serve.store`) that ``repro serve`` and ``repro cache`` use.

Results land exactly where the serial runner put them: a ``.txt`` +
``.json`` pair per table under ``benchmarks/results/`` and the aggregate
``BENCH_results.json`` at the repository root.
"""

import importlib
import json
import os
import sys
import time

from .cache import invalidate_fingerprints
from .claims import evaluate_claims
from .engine import host_cpus, run_experiment
from .experiment import Experiment
from .tables import payload_to_table, table_rows, table_to_payload

__all__ = ["build_experiment", "find_bench_dir", "host_cpus", "run_suite",
           "suite_tables", "table_entry", "wall_text", "write_aggregate"]

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


def suite_tables(bench_dir, only=None):
    """Yield ``(module_name, fn_name, table_name)`` for every table of
    the suite registry (``run_all.EXPERIMENTS`` in ``bench_dir``) whose
    module or table name contains ``only``."""
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    run_all = importlib.import_module("run_all")
    for module_name, runners in run_all.EXPERIMENTS:
        for fn_name, table_name in runners:
            if only is None or only in module_name or only in table_name:
                yield module_name, fn_name, table_name


def table_entry(module_name, out_name, table, wall, counts, err,
                plan=None):
    """One assembled table's ``BENCH_results.json`` entry.  Its
    ``claims`` maps each claim the module declares to ``True`` or to why
    it failed (also printed to ``err``).  The claims describe the
    fault-free tables, so a run under a machine-level fault ``plan``
    records none."""
    rows = table_rows(table)
    claims = {} if plan else evaluate_claims(
        importlib.import_module(module_name), out_name, rows)
    for name, verdict in claims.items():
        if verdict is not True:
            print(f"[CLAIM FAILED] {out_name}.{name}: {verdict}", file=err)
    return {
        "experiment": out_name,
        "module": module_name,
        "title": table.title,
        "rows": len(table.rows),
        "columns": list(table.columns),
        "wall_seconds": wall,
        **counts,
        "data": rows,
        "claims": claims,
    }


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


def _run_inline(selected, store, bus):
    """``--jobs 0``: each experiment in turn, inline in this process."""
    for module_name, fn_name, out_name in selected:
        experiment, _ = build_experiment(
            importlib.import_module(module_name), fn_name, out_name)
        start = time.time()
        records = run_experiment(experiment, jobs=0, cache=store, bus=bus)
        wall = time.time() - start
        yield module_name, out_name, experiment, records, wall


def _run_pooled(selected, bench_dir, jobs, store, timeout, bus, faults):
    """``--jobs N``: every experiment submitted up front to one pool of
    N workers, then awaited in suite order.  An experiment's wall is its
    own span (first dispatch to last cell), not its time in the queue."""
    from ..serve.scheduler import SweepScheduler

    pool = SweepScheduler(store=store, workers=jobs, timeout=timeout,
                          bus=bus, bench_dir=bench_dir)
    try:
        # Submitting imports every bench module.  It must finish before
        # the pool starts: a worker forked while this thread is inside
        # an import inherits that module's lock held, and deadlocks on
        # its first import of the module.
        sweep_ids = [pool.submit({"experiment": out_name,
                                  "bench_dir": bench_dir, "faults": faults})
                     for _module, _fn, out_name in selected]
        pool.start()
        for (module_name, _fn, out_name), sweep_id in zip(selected,
                                                           sweep_ids):
            pool.wait(sweep_id)
            sweep = pool.get(sweep_id)
            records = [sweep.records[index] for index in range(sweep.cells)]
            yield (module_name, out_name, sweep.experiment, records,
                   sweep.run_seconds)
    finally:
        pool.close()


def run_suite(only=None, jobs=None, no_cache=False, timeout=None,
              bench_dir=None, cache_dir=None, bus=None, err=None,
              faults=None):
    """Run the benchmark suite; returns the aggregate telemetry dict.

    ``jobs``/``timeout``/``no_cache`` map 1:1 onto the ``repro bench``
    CLI flags.  Tables print to stdout (as the serial runner always did);
    per-experiment progress lines go to ``err``.  Results are read from
    and written to the SQLite store at ``cache_dir`` (default
    :func:`~repro.serve.store.default_store_path`); ``no_cache`` runs
    without a store.

    ``faults`` (a plan dict or a JSON file path, the ``--faults`` flag)
    is validated, and its machine-level part is exported as
    ``REPRO_FAULT_PLAN`` before the bench modules are imported (and sent
    with every pool request, whose workers export it the same way);
    fault-aware sweeps (e20) read it while building their grids, so each
    fault level appears as its own row.  The payload may carry a
    ``levels`` list overriding a sweep's default fault-severity grid.

    Walls time cold work only: an experiment with any cell answered
    from the store gets ``wall_seconds: null`` (and "cached" on
    ``err``), and so does the suite ``meta`` when any experiment had
    one.  Each experiment records its ``cold_cells`` and
    ``cache_hits``; ``meta.cells`` sums them.
    """
    from ..serve.protocol import machine_plan
    from ..serve.store import open_store

    err = err if err is not None else sys.stderr
    # Fingerprint memoization is per process-lifetime; a long-lived
    # driver would stamp stale code versions after an on-disk edit.
    invalidate_fingerprints()
    if faults is not None:
        from ..faults import FaultPlan

        if isinstance(faults, str):
            with open(faults, "r", encoding="utf-8") as fh:
                faults = json.load(fh)
        elif not isinstance(faults, dict):
            faults = faults.as_dict()
        FaultPlan.from_dict(faults)  # validate eagerly (allows "levels")
    plan = machine_plan(faults)
    if plan is not None:
        os.environ["REPRO_FAULT_PLAN"] = json.dumps(plan, sort_keys=True)
    else:
        os.environ.pop("REPRO_FAULT_PLAN", None)
    bench_dir = find_bench_dir(bench_dir)
    os.environ["REPRO_BENCH_DIR"] = bench_dir
    selected = list(suite_tables(bench_dir, only))
    harness = importlib.import_module("harness")

    store = None if no_cache else open_store(cache_dir)
    timeout = DEFAULT_TIMEOUT if timeout is None else timeout
    jobs = host_cpus() if jobs is None else jobs

    telemetry = []
    failures = []
    cells = {"cold": 0, "cached": 0}
    suite_start = time.time()
    outcomes = (_run_inline(selected, store, bus)
                if jobs == 0 else
                _run_pooled(selected, bench_dir, jobs, store, timeout, bus,
                            faults))
    try:
        for module_name, out_name, experiment, records, wall in outcomes:
            cached = sum(1 for record in records if record.cached)
            cells["cold"] += len(records) - cached
            cells["cached"] += cached
            failed = [record for record in records if not record.ok]
            if failed:
                for record in failed:
                    print(f"[FAILED] {out_name}[{record.index}] "
                          f"{record.status} after {record.attempts} "
                          f"attempt(s):\n{record.error}", file=err)
                failures.append({
                    "experiment": out_name,
                    "module": module_name,
                    "rows": [record.payload() for record in failed],
                })
                continue
            table = experiment.table([record.value for record in records])
            wall = None if cached else round(wall, 3)
            counts = {"cold_cells": len(records) - cached,
                      "cache_hits": cached, "grid": len(records)}
            harness.write_table(table, out_name,
                                meta={"wall_seconds": wall, **counts})
            print(f"[{wall_text(wall)}] {out_name} "
                  f"({cached}/{len(records)} cached)\n", file=err)
            telemetry.append(table_entry(module_name, out_name, table, wall,
                                         counts, err, plan))
    finally:
        outcomes.close()  # stops the pool even if a table write failed
        if store is not None:
            store.close()

    aggregate = {
        "experiments": telemetry,
        "failures": failures,
        "meta": {
            "jobs": jobs,
            "cache": (None if store is None else
                      {"root": store.path, "hits": store.hits,
                       "misses": store.misses}),
            "wall_seconds": (None if cells["cached"] else
                             round(time.time() - suite_start, 3)),
            "cells": cells,
            # Provenance: where this sweep ran.  The tables themselves
            # are host-independent (the regression gate diffs them), the
            # telemetry is not — stamp enough to explain a slow run.
            "host_cpus": host_cpus(),
            "python": sys.version.split()[0],
        },
    }
    return write_aggregate(aggregate, bench_dir, err)


def write_aggregate(aggregate, bench_dir, err):
    """Write ``BENCH_results.json`` beside ``bench_dir`` and print the
    suite's total line to ``err``; returns ``aggregate``."""
    path = os.path.join(os.path.dirname(bench_dir), "BENCH_results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    failed = len(aggregate["failures"])
    print(f"[{wall_text(aggregate['meta']['wall_seconds'])}] total -> {path}"
          + (f"  [{failed} FAILED]" if failed else ""), file=err)
    return aggregate


def wall_text(wall):
    """A progress line's time: the wall, or "cached" when it is null."""
    return " cached" if wall is None else f"{wall:6.1f}s"
