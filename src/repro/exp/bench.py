"""Benchmark-suite orchestration: the engine behind ``repro bench``.

The suite definition lives in ``benchmarks/run_all.py`` as the
``EXPERIMENTS`` list of ``(module, [table, ...])``, walked only by
:func:`suite_tables`.  Every table is an entry of its module's
``SWEEPS = {table: Experiment}``: a grid of pure cells, one per table
row or parameter point, and an assembler that builds the table from
their values.  The suite schedules, caches and retries those cells one
by one.  The module's ``CLAIMS`` (:mod:`repro.exp.claims`) are
evaluated in this process once a table is assembled, by
:func:`table_entry`.  With ``jobs >= 1`` every selected table is
submitted up front to one :class:`~repro.serve.scheduler.SweepScheduler`
pool, so cells of later tables keep workers busy that an earlier table
would leave idle; ``jobs=0`` runs the tables one after another inline.
Either way results are read from and written to the SQLite store
(:mod:`repro.serve.store`) that ``repro serve`` and ``repro cache`` use.

Each table is written as a ``.txt`` + ``.json`` pair under
``benchmarks/results/``, and the aggregate ``BENCH_results.json`` at
the repository root.
"""

import importlib
import json
import os
import sys
import time

from .cache import invalidate_fingerprints
from .claims import evaluate_claims
from .engine import RunRecord, host_cpus, run_experiment
from .tables import table_rows

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


def suite_tables(bench_dir, only=None):
    """Yield ``(module_name, table_name)`` for every table of the suite
    registry (``run_all.EXPERIMENTS`` in ``bench_dir``) whose module or
    table name contains ``only``."""
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    run_all = importlib.import_module("run_all")
    for module_name, tables in run_all.EXPERIMENTS:
        for table_name in tables:
            if only is None or only in module_name or only in table_name:
                yield module_name, table_name


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


def build_experiment(module, out_name, plan=None):
    """The Experiment for one table of an imported bench ``module``: its
    ``SWEEPS`` entry, with the module's file hashed into its cells'
    cache keys.  An entry is an Experiment, or a function of the
    machine-level fault ``plan`` (a dict, or ``None`` when fault-free)
    that builds one: the table's grid is then the plan's (e20).  Public
    so the sweep service (:mod:`repro.serve`) resolves requests through
    the exact machinery ``repro bench`` uses."""
    experiment = module.SWEEPS[out_name]
    if callable(experiment):
        experiment = experiment(plan)
    if not experiment.code_paths:
        experiment.code_paths = [module.__file__]
    return experiment


def _run_inline(selected, bench_dir, plan, store, bus):
    """``--jobs 0``: each experiment in turn, inline in this process,
    resolved as the pool resolves them."""
    from ..serve.protocol import resolve_experiment

    for module_name, out_name in selected:
        experiment = resolve_experiment(
            {"experiment": out_name, "bench_dir": bench_dir}, plan=plan)
        start = time.time()
        records = run_experiment(experiment, jobs=0, cache=store, bus=bus)
        wall = time.time() - start
        yield module_name, out_name, experiment, records, wall


def _run_pooled(selected, bench_dir, faults, jobs, store, timeout, bus):
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
        sweep_ids = [pool.submit({"experiment": out_name, "faults": faults})
                     for _module, out_name in selected]
        pool.start()
        for (module_name, out_name), sweep_id in zip(selected, sweep_ids):
            pool.wait(sweep_id)
            sweep = pool.get(sweep_id)
            records = [sweep.records[index] for index in range(sweep.cells)]
            yield (module_name, out_name, sweep.experiment, records,
                   sweep.run_seconds)
    finally:
        pool.close()


def _run_remote(selected, bench_dir, faults, plan, url, no_store, timeout):
    """``--remote URL``: each experiment submitted in turn to a running
    ``repro serve``, which simulates the cells or answers them from its
    store.  Records are rebuilt from the rows the server returns; the
    experiment that assembles them is resolved here, under the same
    plan, so the table describes the grid the server ran.  A request the
    server refuses, or a sweep it aborts, is one failed record."""
    from ..serve.client import ServeClient, ServeError
    from ..serve.protocol import ProtocolError, resolve_experiment

    client = ServeClient(url)
    for module_name, out_name in selected:
        request = {"experiment": out_name, "faults": faults,
                   "no_store": no_store, "timeout": timeout}
        start = time.time()
        try:
            status = client.run({key: value for key, value in request.items()
                                 if value})
            error = None if status["state"] == "done" else \
                f"sweep {status['state']}"
        except (ProtocolError, ServeError) as exc:
            error = str(exc)
        wall = time.time() - start
        records = ([RunRecord(index=0, config={}, status="error",
                              error=error)] if error else
                   [RunRecord(**row) for row in status["records"]])
        experiment = resolve_experiment(
            {"experiment": out_name, "bench_dir": bench_dir}, plan=plan)
        yield module_name, out_name, experiment, records, wall


def _cpu_seconds():
    """User + system CPU seconds of this process and of its reaped
    children (pool workers count once ``close`` has joined them)."""
    import resource

    return tuple(usage.ru_utime + usage.ru_stime for usage in
                 (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def _read_faults(faults):
    """Validate a ``--faults`` plan (a dict, a FaultPlan or a JSON file
    path); returns ``(faults, plan)``: the plan as a dict and its
    machine-level part."""
    from ..serve.protocol import machine_plan

    if faults is not None:
        from ..faults import FaultPlan

        if isinstance(faults, str):
            with open(faults, "r", encoding="utf-8") as fh:
                faults = json.load(fh)
        elif not isinstance(faults, dict):
            faults = faults.as_dict()
        FaultPlan.from_dict(faults)  # validate eagerly (allows "levels")
    return faults, machine_plan(faults)


def run_suite(only=None, jobs=None, no_cache=False, timeout=None,
              bench_dir=None, cache_dir=None, bus=None, err=None,
              faults=None, remote=None):
    """Run the benchmark suite; returns the aggregate telemetry dict.

    ``jobs``/``timeout``/``no_cache``/``remote`` map 1:1 onto the
    ``repro bench`` CLI flags.  Tables print to stdout (as the serial
    runner always did); per-experiment progress lines go to ``err``.
    Results are read from and written to the SQLite store at
    ``cache_dir`` (default :func:`~repro.serve.store.default_store_path`);
    ``no_cache`` runs without a store.

    The cells run from one of three sources: inline in this process
    (``jobs=0``), on one pool of ``jobs`` workers, or on the ``repro
    serve`` at the URL ``remote``, whose store stands in for the local
    one (``no_cache`` becomes the request's ``no_store``).  Whichever
    ran them, one loop assembles and writes each table, its failures
    and its claims, and ``BENCH_results.json``; a remote run stamps its
    URL as ``meta.remote`` there and in each table's meta.

    ``faults`` (a plan dict or a JSON file path, the ``--faults`` flag)
    is validated, and its machine-level part is passed to each table's
    ``SWEEPS`` entry (and sent with every pool or remote request, which
    resolve it the same way); a fault-aware sweep (e20) builds its grid
    from it, so each fault level appears as its own row.  The payload
    may carry a ``levels`` list overriding a sweep's default
    fault-severity grid.

    Walls time cold work only: an experiment with any cell answered
    from the store gets ``wall_seconds: null`` (and "cached" on
    ``err``), and so does the suite ``meta`` when any experiment had
    one.  Each experiment records its ``cold_cells`` and
    ``cache_hits``; ``meta.cells`` sums them.  ``meta.cpu_seconds``
    splits the run's host CPU (user + system) between this process
    (``parent``) and its pool workers (``workers``), so a busy-waiting
    parent shows.
    """
    from ..serve.store import open_store

    err = err if err is not None else sys.stderr
    # Fingerprint memoization is per process-lifetime; a long-lived
    # driver would stamp stale code versions after an on-disk edit.
    invalidate_fingerprints()
    faults, plan = _read_faults(faults)
    bench_dir = find_bench_dir(bench_dir)
    selected = list(suite_tables(bench_dir, only))
    harness = importlib.import_module("harness")

    store = None if no_cache or remote else open_store(cache_dir)
    jobs = host_cpus() if jobs is None else jobs

    telemetry = []
    failures = []
    cells = {"cold": 0, "cached": 0}
    suite_start = time.time()
    cpu_start = _cpu_seconds()
    if remote:
        outcomes = _run_remote(selected, bench_dir, faults, plan, remote,
                               no_cache, timeout)
    elif jobs == 0:
        outcomes = _run_inline(selected, bench_dir, plan, store, bus)
    else:
        outcomes = _run_pooled(
            selected, bench_dir, faults, jobs, store,
            DEFAULT_TIMEOUT if timeout is None else timeout, bus)
    hits = "store hits, remote" if remote else "cached"
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
            meta = {"wall_seconds": wall, **counts}
            if remote:
                meta["remote"] = remote
            harness.write_table(table, out_name, meta=meta)
            print(f"[{wall_text(wall)}] {out_name} "
                  f"({cached}/{len(records)} {hits})\n", file=err)
            telemetry.append(table_entry(module_name, out_name, table, wall,
                                         counts, err, plan))
    finally:
        outcomes.close()  # stops the pool even if a table write failed
        if store is not None:
            store.close()
    cpu_seconds = {side: round(end - start, 3) for side, start, end in
                   zip(("parent", "workers"), cpu_start, _cpu_seconds())}

    aggregate = {
        "experiments": telemetry,
        "failures": failures,
        "meta": {
            "jobs": None if remote else jobs,
            "cache": (None if store is None else
                      {"root": store.path, "hits": store.hits,
                       "misses": store.misses}),
            "wall_seconds": (None if cells["cached"] else
                             round(time.time() - suite_start, 3)),
            "cells": cells,
            "cpu_seconds": cpu_seconds,
            # Provenance: where this sweep ran.  The tables themselves
            # are host-independent (the regression gate diffs them), the
            # telemetry is not — stamp enough to explain a slow run.
            "host_cpus": host_cpus(),
            "python": sys.version.split()[0],
        },
    }
    if remote:
        aggregate["meta"]["remote"] = remote
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
