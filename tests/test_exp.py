"""The sweep engine: grids, caching, timeouts, determinism, cell parsing."""

import io
import json
import os
import time

import pytest

from repro.exp import (
    Experiment,
    code_fingerprint,
    grid,
    invalidate_fingerprints,
    parse_cell,
    records_payload,
    run_experiment,
)
from repro.exp.cache import config_key
from repro.machines import registry
from repro.serve.store import SqliteStore, default_store_path


# ---------------------------------------------------------------------------
# Worker functions must be module-level (picklable) for the engine.
# ---------------------------------------------------------------------------

def square(config):
    return config["x"] * config["x"]


def fail_on_three(config):
    if config["x"] == 3:
        raise ValueError("three is right out")
    return config["x"]


def slow_run(config):
    time.sleep(config.get("sleep", 5.0))
    return "done"


def run_model_spec(config):
    model = registry.create(config["machine"], **config.get("config", {}))
    return model.run(**config.get("workload", {})).as_dict()


def raise_interrupt(config):
    raise KeyboardInterrupt


def raise_memory_error(config):
    raise MemoryError("simulated allocation failure")


class TestGrid:
    def test_cartesian_product_in_declaration_order(self):
        configs = grid(a=[1, 2], b=["x", "y"])
        assert configs == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Experiment(name="e", run=square, grid=[])


class TestEngineInline:
    def test_run_inline_preserves_order(self):
        experiment = Experiment(name="sq", run=square, grid=grid(x=[1, 2, 3]))
        assert experiment.run_inline() == [1, 4, 9]

    def test_jobs_zero_runs_without_workers(self):
        experiment = Experiment(name="sq", run=square, grid=grid(x=[2, 4]))
        records = run_experiment(experiment, jobs=0)
        assert [r.value for r in records] == [4, 16]
        assert all(r.ok for r in records)


class TestEngineWorkers:
    def test_results_ordered_by_grid_index(self):
        experiment = Experiment(name="sq", run=square,
                                grid=grid(x=list(range(8))))
        records = run_experiment(experiment, jobs=4)
        assert [r.index for r in records] == list(range(8))
        assert [r.value for r in records] == [x * x for x in range(8)]

    def test_failure_rows_are_structured(self):
        experiment = Experiment(name="f", run=fail_on_three,
                                grid=grid(x=[1, 3]))
        records = run_experiment(experiment, jobs=2)
        ok, bad = records
        assert ok.ok and ok.value == 1
        assert not bad.ok
        assert bad.status == "error"
        assert "three is right out" in bad.error
        assert bad.attempts == 2  # one retry before giving up

    def test_timeout_then_retry_then_failure_row(self):
        experiment = Experiment(name="slow", run=slow_run,
                                grid=[{"sleep": 30.0}])
        start = time.monotonic()
        records = run_experiment(experiment, jobs=1, timeout=0.3)
        elapsed = time.monotonic() - start
        (record,) = records
        assert record.status == "timeout"
        assert record.attempts == 2
        assert not record.ok
        assert elapsed < 10  # terminated, not waited out

    def test_keyboard_interrupt_is_fatal_not_swallowed(self):
        """An operator interrupt inside a worker must surface as a
        never-retried ``fatal`` row with its traceback — not vanish
        into the generic retried ``error`` path."""
        experiment = Experiment(name="intr", run=raise_interrupt,
                                grid=grid(x=[1]))
        (record,) = run_experiment(experiment, jobs=1, retries=3)
        assert record.status == "fatal"
        assert not record.ok
        assert record.attempts == 1  # fatal is never retried
        assert "KeyboardInterrupt" in record.error

    def test_memory_error_is_fatal_not_swallowed(self):
        experiment = Experiment(name="oom", run=raise_memory_error,
                                grid=grid(x=[1]))
        (record,) = run_experiment(experiment, jobs=1, retries=3)
        assert record.status == "fatal"
        assert record.attempts == 1
        assert "simulated allocation failure" in record.error

    def test_fatal_row_payload_is_structured(self):
        experiment = Experiment(name="oom", run=raise_memory_error,
                                grid=grid(x=[1]))
        records = run_experiment(experiment, jobs=1)
        (payload,) = records_payload(records)
        assert payload["status"] == "fatal"
        assert "MemoryError" in payload["error"]

    def test_jobs_1_and_jobs_4_byte_identical(self):
        experiment = Experiment(name="sq", run=square,
                                grid=grid(x=list(range(6))))
        serial = json.dumps(records_payload(run_experiment(experiment,
                                                           jobs=1)),
                            sort_keys=True)
        fanned = json.dumps(records_payload(run_experiment(experiment,
                                                           jobs=4)),
                            sort_keys=True)
        assert serial == fanned

    def test_models_run_through_engine(self):
        experiment = Experiment(
            name="models",
            run=run_model_spec,
            grid=[{"machine": "ultracomputer",
                   "config": {"stages": 3, "combining": True}},
                  {"machine": "cmmp", "config": {"n_procs": 4}}],
        )
        records = run_experiment(experiment, jobs=2)
        assert all(r.ok for r in records)
        assert records[0].value["metrics"]["final_value"] == 8
        assert records[1].value["metrics"]["crosspoints"] == 16


class TestCache:
    def _experiment(self):
        return Experiment(name="sq", run=square, grid=grid(x=[1, 2, 3]))

    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = SqliteStore(str(tmp_path / "store.sqlite"))
        experiment = self._experiment()
        first = run_experiment(experiment, jobs=0, cache=cache)
        assert all(not r.cached for r in first)
        assert cache.misses == 3
        second = run_experiment(experiment, jobs=0, cache=cache)
        assert all(r.cached for r in second)
        assert cache.hits == 3
        assert [r.value for r in second] == [1, 4, 9]

    def test_config_change_invalidates_exactly_that_point(self, tmp_path):
        cache = SqliteStore(str(tmp_path / "store.sqlite"))
        run_experiment(self._experiment(), jobs=0, cache=cache)
        grown = Experiment(name="sq", run=square, grid=grid(x=[1, 2, 4]))
        records = run_experiment(grown, jobs=0, cache=cache)
        assert [r.cached for r in records] == [True, True, False]

    def test_code_version_changes_key(self, tmp_path):
        key_a = config_key("e", {"x": 1}, "aaaa")
        key_b = config_key("e", {"x": 1}, "bbbb")
        assert key_a != key_b

    def test_key_is_insensitive_to_dict_order(self):
        assert config_key("e", {"a": 1, "b": 2}, "v") == (
            config_key("e", {"b": 2, "a": 1}, "v"))

    def test_failures_are_not_cached(self, tmp_path):
        cache = SqliteStore(str(tmp_path / "store.sqlite"))
        experiment = Experiment(name="f", run=fail_on_three,
                                grid=grid(x=[3]))
        run_experiment(experiment, jobs=1, cache=cache)
        records = run_experiment(experiment, jobs=1, cache=cache)
        assert not records[0].cached  # errors re-run every time

    def test_code_fingerprint_tracks_content(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("A = 1\n")
        before = code_fingerprint(str(tmp_path))
        invalidate_fingerprints()
        module.write_text("A = 2\n")
        after = code_fingerprint(str(tmp_path))
        assert before != after

    def test_fingerprint_memo_is_stale_without_invalidation(self, tmp_path):
        # The lru_cache memoizes per process-lifetime: an on-disk edit is
        # invisible until invalidate_fingerprints() drops the memo.
        module = tmp_path / "mod.py"
        module.write_text("A = 1\n")
        before = code_fingerprint(str(tmp_path))
        module.write_text("A = 2\n")
        assert code_fingerprint(str(tmp_path)) == before  # stale memo
        invalidate_fingerprints()
        assert code_fingerprint(str(tmp_path)) != before


class TestRegistryRoundTrip:
    @pytest.mark.parametrize("name", ["cmmp", "cmstar", "connection_machine",
                                      "hep", "ttda", "ultracomputer", "vliw"])
    def test_every_model_runs_and_serializes(self, name):
        model = registry.create(name)
        assert model.name == name
        result = model.run()
        assert result.machine == name
        # The SimResult round-trips through JSON (cache/IPC requirement).
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["machine"] == name
        assert payload["metrics"] == pytest.approx(result.metrics)


class TestParseCell:
    @pytest.mark.parametrize("cell,expected", [
        ("3", 3),
        ("3.25", 3.25),
        ("1e3", 1000.0),
        ("inf", float("inf")),
        ("3.2x", 3.2),
        ("1e3x", 1000.0),
        ("infx", float("inf")),
    ])
    def test_numeric_cells(self, cell, expected):
        assert parse_cell(cell) == expected

    def test_nan_and_dash(self):
        assert parse_cell("nan") != parse_cell("nan")  # NaN
        assert parse_cell("-") != parse_cell("-")  # Table renders NaN as "-"

    @pytest.mark.parametrize("cell", ["yes", "matmul", "1_0", "x", "0x10",
                                      "", "3 4"])
    def test_non_numeric_cells_stay_strings(self, cell):
        assert parse_cell(cell) == cell.strip()


class TestTaskQueue:
    def test_fifo_and_front(self):
        from repro.exp import TaskQueue

        queue = TaskQueue()
        queue.push("a")
        queue.push("b")
        queue.push("urgent", front=True)
        assert [queue.pop(), queue.pop(), queue.pop()] == ["urgent", "a", "b"]
        assert queue.pop() is None
        assert not queue

    def test_delayed_items_mature(self):
        from repro.exp import TaskQueue

        queue = TaskQueue()
        queue.push("later", not_before=100.0)
        queue.push("now")
        assert len(queue) == 2
        assert queue.pop(now=50.0) == "now"
        assert queue.pop(now=50.0) is None      # not mature yet
        assert queue.next_ready(50.0) == 50.0   # how long to sleep
        assert queue.pop(now=100.0) == "later"
        assert queue.next_ready(100.0) is None

    def test_bool_counts_delayed(self):
        from repro.exp import TaskQueue

        queue = TaskQueue()
        queue.push("x", not_before=10.0)
        assert queue and len(queue) == 1


class TestTimeoutPhase:
    def test_timeout_row_carries_phase(self):
        experiment = Experiment(name="slow", run=slow_run,
                                grid=[{"sleep": 30.0}])
        (record,) = run_experiment(experiment, jobs=1, timeout=0.5)
        assert record.status == "timeout"
        assert record.timeout_phase in ("startup", "run")
        assert record.payload()["timeout_phase"] == record.timeout_phase

    def test_ok_rows_omit_phase_key(self):
        experiment = Experiment(name="sq", run=square, grid=grid(x=[2]))
        (record,) = run_experiment(experiment, jobs=1)
        assert record.timeout_phase is None
        assert "timeout_phase" not in record.payload()


def test_every_suite_table_is_a_sweep():
    """Every table of the suite registry is built from its module's
    ``SWEEPS`` entry: an assembler and a non-empty grid of configs that
    survive JSON unchanged (the store and the pool ship them as JSON).
    Imports the bench modules only; no cell runs."""
    import importlib

    from repro.exp.bench import build_experiment, find_bench_dir, suite_tables

    tables = list(suite_tables(find_bench_dir()))
    assert len(tables) == 27
    for module_name, table in tables:
        experiment = build_experiment(importlib.import_module(module_name),
                                      table)
        assert experiment.name == table
        assert experiment.assemble is not None and experiment.grid
        assert json.loads(json.dumps(experiment.grid)) == experiment.grid


class TestSuiteStore:
    def test_run_suite_defaults_to_the_shared_store(self, monkeypatch,
                                                     tmp_path):
        """With no ``cache_dir``, ``repro bench`` uses the store ``repro
        serve`` and ``repro cache`` default to ($REPRO_STORE here), and
        inline and pooled runs answer each other's cells."""
        from repro.exp.bench import run_suite
        from stub_bench import slow_table, stub_bench

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        modules = {"bench_tiny": (slow_table("tiny", 0.0),
                                  ["tiny"])}
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            first = run_suite(jobs=0, bench_dir=bench_dir,
                              err=io.StringIO())
            second = run_suite(jobs=1, bench_dir=bench_dir,
                               err=io.StringIO())
        path = os.path.join(default_store_path(), "store.sqlite")
        assert path.startswith(str(tmp_path / "store"))
        assert first["meta"]["cache"] == {"root": path, "hits": 0,
                                          "misses": 1}
        assert second["meta"]["cache"] == {"root": path, "hits": 1,
                                           "misses": 0}
        assert second["experiments"][0]["cache_hits"] == 1
        for aggregate in (first, second):   # --jobs 0, then --jobs 1
            cpu = aggregate["meta"]["cpu_seconds"]
            assert set(cpu) == {"parent", "workers"}
            assert all(isinstance(seconds, float) and seconds >= 0.0
                       for seconds in cpu.values())

    def test_faulted_cells_key_alike_inline_and_pooled(self, monkeypatch,
                                                       tmp_path):
        """Under a machine-level fault plan the inline path keys a cell
        as the pool does, so a ``--jobs 1`` rerun of a ``--jobs 0
        --faults`` run is all store hits."""
        from repro.exp.bench import run_suite
        from stub_bench import GRID, stub_bench

        faults = {"seed": 3, "mem_slow_rate": 0.9, "levels": [0, 64]}
        store = str(tmp_path / "store")
        with stub_bench(tmp_path, monkeypatch,
                        {"bench_grid": (GRID, ["stub_grid"])}) as bench_dir:
            inline = run_suite(jobs=0, bench_dir=bench_dir,
                               cache_dir=store, faults=faults,
                               err=io.StringIO())
            pooled = run_suite(jobs=1, bench_dir=bench_dir,
                               cache_dir=store, faults=faults,
                               err=io.StringIO())
        assert inline["meta"]["cells"] == {"cold": 6, "cached": 0}
        assert pooled["meta"]["cells"] == {"cold": 0, "cached": 6}

    def test_inline_runs_under_two_plans_use_each_plans_grid(
            self, monkeypatch, tmp_path):
        """Two ``--jobs 0 --faults`` runs in one process pass each plan
        to the fault-aware module's ``SWEEPS`` entry, so each table is
        built on its own plan's grid."""
        from repro.exp.bench import run_suite
        from stub_bench import FAULT_AWARE, stub_bench

        modules = {"bench_faults": (FAULT_AWARE, ["stub_faults"])}
        results = tmp_path / "benchmarks" / "results" / "stub_faults.txt"
        notes = []
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            for rate in (0.5, 0.25):
                run_suite(jobs=0, no_cache=True, bench_dir=bench_dir,
                          faults={"mem_slow_rate": rate}, err=io.StringIO())
                notes.append(results.read_text().splitlines()[-1])
        assert "rate 0.5" in notes[0]
        assert "rate 0.25" in notes[1]


    def test_one_pool_serves_two_plans_each_on_its_own_grid(
            self, monkeypatch, tmp_path):
        """One scheduler serves two sweeps of the fault-aware stub under
        two plans at once; each sweep's grid, values and table are its
        own plan's, as the workers get no plan at all."""
        from repro.serve.scheduler import SweepScheduler
        from stub_bench import FAULT_AWARE, stub_bench

        modules = {"bench_faults": (FAULT_AWARE, ["stub_faults"])}
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            with SweepScheduler(workers=2, bench_dir=bench_dir) as pool:
                sweep_ids = [pool.submit({"experiment": "stub_faults",
                                          "faults": {"mem_slow_rate": rate}})
                             for rate in (0.5, 0.25)]
                assert all(pool.wait(sweep_id, timeout=60)
                           for sweep_id in sweep_ids)
                sweeps = [pool.get(sweep_id) for sweep_id in sweep_ids]
                tables = [pool.table_text(sweep_id) for sweep_id in sweep_ids]
        for sweep, table, rate in zip(sweeps, tables, (0.5, 0.25)):
            assert sweep.experiment.grid == [{"rate": rate}]
            assert sweep.records[0].value == rate
            assert f"rate {rate:g}" in table.splitlines()[-1]


class TestSuiteWalls:
    """A wall times cold work only: any store hit nulls the experiment's
    ``wall_seconds`` and the suite's, and the cell counts say why."""

    def test_warm_rerun_reports_null_walls(self, monkeypatch, tmp_path):
        from repro.exp.bench import run_suite
        from stub_bench import GRID, slow_table, stub_bench

        modules = {"bench_tiny": (slow_table("tiny", 0.0),
                                  ["tiny"]),
                   "bench_grid": (GRID, ["stub_grid"])}
        store = str(tmp_path / "store")
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            cold = run_suite(jobs=0, bench_dir=bench_dir, cache_dir=store,
                             err=io.StringIO())
            err = io.StringIO()
            warm = run_suite(jobs=0, bench_dir=bench_dir, cache_dir=store,
                             err=err)
        for entry in cold["experiments"]:
            assert isinstance(entry["wall_seconds"], float)
            assert entry["cold_cells"] == entry["grid"]
            assert entry["cache_hits"] == 0
        assert isinstance(cold["meta"]["wall_seconds"], float)
        assert cold["meta"]["cells"] == {"cold": 7, "cached": 0}
        for entry in warm["experiments"]:
            assert entry["wall_seconds"] is None
            assert entry["cold_cells"] == 0
            assert entry["cache_hits"] == entry["grid"]
        assert warm["meta"]["wall_seconds"] is None
        assert warm["meta"]["cells"] == {"cold": 0, "cached": 7}
        lines = err.getvalue().splitlines()
        assert "[ cached] stub_grid (6/6 cached)" in lines
        assert any(line.startswith("[ cached] total -> ") for line in lines)


class TestSuitePool:
    """``repro bench`` submits every experiment to one worker pool up
    front, and reports each experiment's own span as its wall."""

    def _run(self, tmp_path, monkeypatch, sleeps, jobs, bus=None):
        from repro.exp.bench import run_suite
        from stub_bench import slow_table, stub_bench

        modules = {f"bench_s{i}": (slow_table(f"s{i}", sleep),
                                   [f"s{i}"])
                   for i, sleep in enumerate(sleeps)}
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            aggregate = run_suite(jobs=jobs, no_cache=True,
                                  bench_dir=bench_dir, bus=bus,
                                  err=io.StringIO())
        assert not aggregate["failures"]
        return {e["experiment"]: e for e in aggregate["experiments"]}

    def test_later_experiments_fill_idle_workers(self, monkeypatch,
                                                 tmp_path):
        from repro.obs import TraceBus
        from repro.obs.sinks import RingSink

        sink = RingSink()
        self._run(tmp_path, monkeypatch, [0.5, 0.5], jobs=2,
                  bus=TraceBus(sink))
        kinds = [(e.kind, e.detail) for e in sink.events]
        second_assigned = next(
            i for i, (kind, detail) in enumerate(kinds)
            if kind == "serve_assign" and detail.startswith("s1["))
        first_done = kinds.index(("sweep_end", "s0"))
        assert second_assigned < first_done

    def test_wall_excludes_time_queued_behind_others(self, monkeypatch,
                                                     tmp_path):
        walls = self._run(tmp_path, monkeypatch, [1.0, 0.0], jobs=1)
        assert walls["s0"]["wall_seconds"] >= 1.0
        assert walls["s1"]["wall_seconds"] < 0.5


class TestDefaultJobs:
    """With no ``jobs`` given, a sweep forks one worker per CPU the
    process may run on (its affinity mask), not one per CPU the machine
    has; the bench aggregate records that same number."""

    @pytest.fixture
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

    def test_run_experiment_defaults_to_the_affinity_mask(self, one_cpu):
        from repro.exp.bench import host_cpus
        from repro.obs import TraceBus
        from repro.obs.sinks import RingSink

        assert host_cpus() == 1
        sink = RingSink()
        experiment = Experiment(name="sq", run=square, grid=grid(x=[2, 3]))
        records = run_experiment(experiment, bus=TraceBus(sink))
        assert [r.value for r in records] == [4, 9]
        (begin,) = [e for e in sink.events if e.kind == "sweep_begin"]
        assert begin.fields["jobs"] == 1

    def test_bench_aggregate_records_the_default(self, one_cpu, monkeypatch,
                                                 tmp_path):
        from repro.exp.bench import run_suite
        from stub_bench import slow_table, stub_bench

        modules = {"bench_tiny": (slow_table("tiny", 0.0),
                                  ["tiny"])}
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            aggregate = run_suite(no_cache=True, bench_dir=bench_dir,
                                  err=io.StringIO())
        assert not aggregate["failures"]
        assert aggregate["meta"]["jobs"] == 1
        assert aggregate["meta"]["host_cpus"] == 1
