"""The sweep service: store, scheduler, HTTP server, client, cache CLI."""

import contextlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeError,
    ServerThread,
    SqliteStore,
    SweepRequest,
    SweepScheduler,
    open_store,
)
from repro.obs import KINDS, validate_chrome_trace
from repro.serve.protocol import (machine_plan, resolve_experiment,
                                  scheduling_plan)
from repro.serve.store import default_store_path

WAIT = 120.0  # generous per-sweep ceiling; sweeps finish in seconds


# ---------------------------------------------------------------------------
# the durable store
# ---------------------------------------------------------------------------

class TestStore:
    def test_round_trip_and_hit_counters(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        found, _ = store.get("e1", "k1")
        assert not found
        store.put("e1", "k1", {"x": 1}, "v0", {"y": 2})
        found, value = store.get("e1", "k1")
        assert found and value == {"y": 2}
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["session"]["hits"] == 1
        assert stats["session"]["misses"] == 1
        store.close()

    def test_put_is_idempotent_upsert(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        store.put("e1", "k1", {}, "v0", 1)
        store.put("e1", "k1", {}, "v0", 2)
        assert store.get("e1", "k1") == (True, 2)
        assert store.stats()["entries"] == 1
        store.close()

    def test_prune_and_clear(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        for i in range(4):
            store.put("e1", f"k{i}", {}, "v0", i)
        assert store.prune(older_than_seconds=3600.0) == 0
        assert store.prune(older_than_seconds=0.0) == 4
        store.put("e1", "k9", {}, "v0", 9)
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
        store.close()

    def test_prune_rejects_negative_and_nan_windows(self, tmp_path):
        """A negative (or NaN) window would place the cutoff in the
        future and delete entries written this instant — refused."""
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        store.put("e1", "k1", {}, "v0", 1)
        with pytest.raises(ValueError, match=">= 0"):
            store.prune(older_than_seconds=-1.0)
        with pytest.raises(ValueError, match=">= 0"):
            store.prune(older_than_seconds=float("nan"))
        assert store.stats()["entries"] == 1
        store.close()

    def test_prune_is_clock_skew_safe(self, tmp_path):
        """An entry whose ``created`` stamp lies in the future (the wall
        clock stepped backwards since the write) must never be pruned,
        and its reported age clamps at zero instead of going negative."""
        import time as _time

        store = SqliteStore(str(tmp_path / "s.sqlite"))
        store.put("e1", "k1", {}, "v0", 1)
        with store._lock:
            store._db.execute("UPDATE results SET created = ?",
                              (_time.time() + 3600.0,))
            store._db.commit()
        assert store.prune(older_than_seconds=0.0) == 0
        assert store.prune(older_than_seconds=86400.0) == 0
        assert store.stats()["oldest_age_seconds"] == 0.0
        assert store.get("e1", "k1") == (True, 1)
        store.close()

    def test_open_store_dispatch(self, tmp_path):
        # A .sqlite path (even a fresh one) opens a SqliteStore.
        explicit = open_store(str(tmp_path / "a.sqlite"))
        assert isinstance(explicit, SqliteStore)
        explicit.close()
        # A plain directory gets a store.sqlite inside it.
        inside = open_store(str(tmp_path / "fresh"))
        assert isinstance(inside, SqliteStore)
        assert inside.path.endswith("store.sqlite")
        inside.close()
        # An old .expcache layout (subdirs of .json files) is just a
        # directory: the store lives in store.sqlite beside the files,
        # which are never read.
        legacy = tmp_path / "expcache" / "e1"
        legacy.mkdir(parents=True)
        (legacy / "abc.json").write_text('{"value": 1}')
        dir_store = open_store(str(tmp_path / "expcache"))
        assert isinstance(dir_store, SqliteStore)
        assert dir_store.path == str(tmp_path / "expcache" / "store.sqlite")
        assert dir_store.get("e1", "abc") == (False, None)
        assert dir_store.stats()["entries"] == 0
        dir_store.close()

    def test_default_store_path_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
        assert default_store_path() == str(tmp_path / "env.sqlite")
        monkeypatch.delenv("REPRO_STORE")
        assert ".cache" in default_store_path()


# ---------------------------------------------------------------------------
# request validation + fault-plan splitting
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_request_needs_experiment_or_callable(self):
        with pytest.raises(ProtocolError, match="experiment"):
            SweepRequest.from_dict({})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            SweepRequest.from_dict({"experiment": "e07", "bogus": 1})

    def test_backup_field_is_unknown(self):
        with pytest.raises(ProtocolError, match="unknown.*backup"):
            SweepRequest.from_dict({"experiment": "e07", "backup": False})

    def test_callable_needs_grid(self):
        with pytest.raises(ProtocolError, match="grid"):
            SweepRequest.from_dict({"callable": "serve_jobs:square"})

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(ProtocolError, match="fault plan"):
            SweepRequest.from_dict({"experiment": "e07",
                                    "faults": {"no_such_knob": 1.0}})

    def test_callable_takes_no_machine_level_faults(self):
        """A ``callable`` sweep has no table grid to shape, so a
        machine-level fault field would be read by nothing; chaos
        (scheduling-level) fields are still accepted."""
        with pytest.raises(ProtocolError, match="scheduling-level"):
            SweepRequest.from_dict(_request([{"x": 1}],
                                            faults={"mem_slow_rate": 0.5}))
        chaos = {"worker_crash_rate": 0.5, "seed": 7, "max_retries": 4}
        assert SweepRequest.from_dict(
            _request([{"x": 1}], faults=chaos)).faults == chaos

    def test_predict_field_is_unknown(self):
        with pytest.raises(ProtocolError, match="unknown.*predict"):
            SweepRequest.from_dict({"experiment": "e07", "predict": True})

    def test_inline_grid_overrides_any_table(self, monkeypatch):
        """An inline ``grid`` replaces the declared grid of any suite
        table, and the table's own assembler builds the result."""
        bench_dir = str(Path(__file__).resolve().parent.parent
                        / "benchmarks")
        monkeypatch.setenv("REPRO_BENCH_DIR", bench_dir)
        experiment = resolve_experiment({"experiment": "e09_context_depth"},
                                        grid=[{"latency": 10}])
        assert experiment.grid == [{"latency": 10}]
        table = experiment.table(experiment.run_inline())
        assert [row[0] for row in table.rows] == ["10"]

    def test_worker_crash_rate_is_scheduling_only(self):
        faults = {"worker_crash_rate": 0.5, "seed": 3,
                  "mem_slow_rate": 0.01}
        machine = machine_plan(faults)
        chaos = scheduling_plan(faults)
        assert "worker_crash_rate" not in machine
        assert machine["mem_slow_rate"] == 0.01
        assert chaos["worker_crash_rate"] == 0.5
        # Pure chaos (no machine-level fields) leaves no plan for a
        # table grid: a chaos run shares store entries with a clean run.
        assert machine_plan({"worker_crash_rate": 0.5}) is None


# ---------------------------------------------------------------------------
# the scheduler: stragglers, crashes, store hits
# ---------------------------------------------------------------------------

def _request(grid, **extra):
    payload = {"callable": "serve_jobs:square", "grid": grid}
    payload.update(extra)
    return payload


class TestScheduler:
    def test_sweep_executes_and_repeat_hits_store(self, tmp_path):
        grid = [{"x": i} for i in range(5)]
        with SweepScheduler(store=open_store(str(tmp_path)),
                            workers=2) as sched:
            first = sched.submit(_request(grid))
            assert sched.wait(first, timeout=WAIT)
            second = sched.submit(_request(grid))
            assert sched.wait(second, timeout=WAIT)
            s1 = sched.status(first)
            s2 = sched.status(second)
        assert s1["stats"]["executed"] == 5
        assert s2["stats"]["executed"] == 0          # zero new tasks
        assert s2["stats"]["store_hits"] == 5
        assert ([r["value"] for r in s1["records"]]
                == [r["value"] for r in s2["records"]]
                == [{"x": i, "y": i * i} for i in range(5)])

    def test_freed_worker_is_dispatched_before_the_store_write(
            self, tmp_path):
        log = []

        class RecordingStore(SqliteStore):
            def put(self, experiment_name, key, config, code_version,
                    value):
                log.append(("put", config["x"]))
                return super().put(experiment_name, key, config,
                                   code_version, value)

        class RecordingBus:
            def emit(self, t, source, kind, detail, **fields):
                if kind == "serve_assign":
                    log.append(("assign", fields["index"]))

        grid = [{"x": i} for i in range(4)]
        store = RecordingStore(str(tmp_path / "store.sqlite"))
        with SweepScheduler(store=store, workers=1,
                            bus=RecordingBus()) as sched:
            sid = sched.submit(_request(grid))
            assert sched.wait(sid, timeout=WAIT)
            repeat = sched.submit(_request(grid))
            assert sched.wait(repeat, timeout=WAIT)
            assert sched.status(repeat)["stats"]["store_hits"] == 4
        store.close()
        assert sorted(log) == sorted(
            [("assign", i) for i in range(4)] + [("put", i) for i in range(4)])
        for i in range(3):
            assert log.index(("assign", i + 1)) < log.index(("put", i))

    def test_one_copy_per_cell(self):
        # Cell 0 runs 0.3 s and cell 1 returns at once, so one worker
        # sits idle while cell 0 finishes: it must stay idle, with no
        # second copy of cell 0 still running when the sweep ends.
        request = {"callable": "serve_jobs:sleep_forever",
                   "grid": [{"sleep": 0.3}, {"sleep": 0.0}]}
        with SweepScheduler(store=None, workers=2) as sched:
            sid = sched.submit(request)
            assert sched.wait(sid, timeout=WAIT)
            busy = sched.pool_stats()["busy"]
            events, state = sched.events_after(sid)
            status = sched.status(sid)
        assert state == "done"
        assert busy == 0
        assigned = [e["index"] for e in events
                    if e["kind"] == "serve_assign"]
        assert sorted(assigned) == [0, 1]
        assert {e["kind"] for e in events} <= set(KINDS)
        stats = status["stats"]
        assert stats["executed"] == 2
        # The status contract: the backup counters stay, pinned at 0,
        # and no other key rides along.
        assert stats["backups"] == stats["backup_wins"] == 0
        assert set(stats) == {"store_hits", "executed", "requeued",
                              "timeouts", "worker_deaths", "backups",
                              "backup_wins"}

    def test_crashed_workers_recovered(self, tmp_path):
        grid = [{"x": i} for i in range(8)]
        chaos = {"worker_crash_rate": 0.5, "seed": 7, "max_retries": 4}
        with SweepScheduler(store=open_store(str(tmp_path)),
                            workers=2) as sched:
            sid = sched.submit(_request(grid, faults=chaos))
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
        assert status["state"] == "done"
        assert status["failed"] == 0
        assert status["stats"]["worker_deaths"] >= 1
        assert ([r["value"] for r in status["records"]]
                == [{"x": i, "y": i * i} for i in range(8)])

    def test_crash_rows_identical_to_clean_run(self, tmp_path):
        grid = [{"x": i} for i in range(6)]
        chaos = {"worker_crash_rate": 0.6, "seed": 11, "max_retries": 4}
        with SweepScheduler(store=None, workers=2) as sched:
            sid_clean = sched.submit(_request(grid))
            sched.wait(sid_clean, timeout=WAIT)
            sid_chaos = sched.submit(_request(grid, faults=chaos))
            sched.wait(sid_chaos, timeout=WAIT)
            clean = sched.status(sid_clean)
            chaotic = sched.status(sid_chaos)
        assert chaotic["stats"]["worker_deaths"] >= 1
        assert ([r["value"] for r in clean["records"]]
                == [r["value"] for r in chaotic["records"]])
        # attempts/wall differ under chaos; values cannot.

    def test_cell_timeout_records_phase(self, tmp_path):
        request = {"callable": "serve_jobs:sleep_forever",
                   "grid": [{"sleep": 60.0}],
                   "timeout": 1.0, "retries": 0}
        with SweepScheduler(store=None, workers=1) as sched:
            sid = sched.submit(request)
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
        (row,) = status["records"]
        assert row["status"] == "timeout"
        assert row["timeout_phase"] == "run"

    def test_full_pool_does_not_spin_the_scheduler(self):
        # Three of the four cells wait while the one worker sleeps.  The
        # scheduler thread must block until the worker replies, not poll
        # the queue; CPU time, unlike wall time, is immune to host load.
        request = {"callable": "serve_jobs:sleep_forever",
                   "grid": [{"sleep": 0.25}] * 4}
        with SweepScheduler(store=None, workers=1) as sched:
            sid = sched.submit(request)
            start = time.process_time()
            assert sched.wait(sid, timeout=WAIT)
            used = time.process_time() - start
        assert used < 0.2, f"scheduler used {used:.3f} s of CPU"

    def test_failed_cells_surface_as_rows(self, tmp_path):
        request = {"callable": "serve_jobs:fail_on_three",
                   "grid": [{"x": 1}, {"x": 3}], "retries": 1}
        with SweepScheduler(store=None, workers=2) as sched:
            sid = sched.submit(request)
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
            assert sched.table_text(sid) is None
        ok, bad = status["records"]
        assert ok["status"] == "ok"
        assert bad["status"] == "error"
        assert "three is right out" in bad["error"]
        assert bad["attempts"] == 2

    def test_bad_request_fails_fast(self):
        with SweepScheduler(store=None, workers=1) as sched:
            with pytest.raises(ProtocolError, match="unknown experiment"):
                sched.submit({"experiment": "no_such_table"})

    def test_fatal_cell_is_not_retried(self, tmp_path):
        # MemoryError in a pool worker must surface as a structured
        # ``fatal`` row with its traceback, and must never burn retries.
        with SweepScheduler(store=open_store(str(tmp_path)),
                            workers=1) as sched:
            sid = sched.submit(
                {"callable": "serve_jobs:raise_memory_error",
                 "grid": [{"x": 1}], "retries": 3})
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
        (record,) = status["records"]
        assert record["status"] == "fatal"
        assert record["attempts"] == 1
        assert "MemoryError" in record["error"]
        assert "pool allocation failure" in record["error"]
        assert "Traceback" in record["error"]
        assert status["stats"]["requeued"] == 0


class TestWaitHorizon:
    """What the scheduler thread's wait may block for: ``None`` means
    until a pipe is ready (a worker reply or a ``submit``)."""

    NOW = 100.0

    @pytest.fixture
    def pool(self):
        # Never started: the test drives the thread's state by hand.
        sched = SweepScheduler(store=None, workers=1)
        sid = sched.submit(_request([{"x": 1}, {"x": 2}]))
        sched._intake_pass(self.NOW)
        yield sched, sched.get(sid)
        sched.close()

    @staticmethod
    def _busy_worker(sched, deadline=None):
        from repro.serve.scheduler import _Assignment, _Worker

        assignment = _Assignment(sweep_id="sw0000", index=0, attempt=0,
                                 key=None, started=0.0, deadline=deadline)
        sched._workers[1] = _Worker(wid=1, process=None, conn=None,
                                    busy=assignment)
        return sched._workers[1]

    def test_full_pool_with_ready_cells_blocks(self, pool):
        sched, sweep = pool
        self._busy_worker(sched)
        assert len(sweep.queue) == 2
        assert sched._wait_timeout(self.NOW) is None

    def test_free_slot_with_ready_cells_does_not_block(self, pool):
        sched, _sweep = pool
        assert sched._wait_timeout(self.NOW) == 0.0   # no worker yet
        self._busy_worker(sched).busy = None          # an idle one
        assert sched._wait_timeout(self.NOW) == 0.0

    def test_requeued_cell_wakes_when_it_matures(self, pool):
        sched, sweep = pool
        self._busy_worker(sched)
        while sweep.queue.pop(self.NOW) is not None:
            pass
        sweep.queue.push((0, 1, None), not_before=self.NOW + 0.4)
        assert sched._wait_timeout(self.NOW) == pytest.approx(0.4)

    def test_busy_worker_wakes_at_its_deadline(self, pool):
        sched, sweep = pool
        self._busy_worker(sched, deadline=self.NOW + 2.5)
        assert sched._wait_timeout(self.NOW) == pytest.approx(2.5)
        while sweep.queue.pop(self.NOW) is not None:
            pass
        assert sched._wait_timeout(self.NOW) == pytest.approx(2.5)


class TestSharedStore:
    def test_bench_and_serve_share_one_store(self, monkeypatch, tmp_path):
        """A ``repro bench`` and a sweep service on one store at the same
        time: identical tables, one row per cell, no lock failures."""
        from repro.exp.bench import run_suite
        from stub_bench import GRID, stub_bench

        store_dir = str(tmp_path / "store")
        modules = {"bench_grid": (GRID, ["stub_grid"])}
        store = open_store(store_dir)
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            with SweepScheduler(store=store, workers=1,
                                bench_dir=bench_dir) as sched:
                sid = sched.submit({"experiment": "stub_grid"})
                aggregate = run_suite(jobs=2, cache_dir=store_dir,
                                      bench_dir=bench_dir,
                                      err=io.StringIO())
                assert sched.wait(sid, timeout=WAIT)
                served = sched.table_text(sid)
        stats = store.stats()
        store.close()
        assert not aggregate["failures"]
        assert aggregate["meta"]["cache"]["root"] == store.path
        benched = (tmp_path / "benchmarks" / "results"
                   / "stub_grid.txt").read_text()
        assert served is not None and benched == served
        assert stats["entries"] == 6
        assert stats["experiments"]["stub_grid"]["entries"] == 6


class TestRemoteSuiteWalls:
    """``repro bench --remote`` times cold work only, like ``run_suite``:
    a store hit nulls the experiment's wall and the suite's."""

    def test_warm_remote_rerun_reports_null_walls(self, monkeypatch,
                                                  tmp_path):
        from repro.exp.bench import run_suite
        from stub_bench import GRID, slow_table, stub_bench

        modules = {"bench_tiny": (slow_table("tiny", 0.0),
                                  ["tiny"]),
                   "bench_grid": (GRID, ["stub_grid"])}
        store = str(tmp_path / "store.sqlite")
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            with ServerThread(store_path=store, workers=2,
                              bench_dir=bench_dir,
                              err=io.StringIO()) as handle:
                cold = run_suite(remote=handle.url, bench_dir=bench_dir,
                                 err=io.StringIO())
                err = io.StringIO()
                warm = run_suite(remote=handle.url, bench_dir=bench_dir,
                                 err=err)
        assert not cold["failures"] and not warm["failures"]
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
        assert "[ cached] stub_grid (6/6 store hits, remote)" in lines
        assert any(line.startswith("[ cached] total -> ") for line in lines)

    def test_no_cache_makes_the_server_simulate_every_cell(
            self, monkeypatch, tmp_path):
        """``repro bench --remote URL --no-cache`` asks the server to skip
        its store: on a warm server the run reports no store hit."""
        from repro.exp.bench import run_suite
        from stub_bench import GRID, stub_bench

        modules = {"bench_grid": (GRID, ["stub_grid"])}
        store = str(tmp_path / "store.sqlite")
        with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
            with ServerThread(store_path=store, workers=2,
                              bench_dir=bench_dir,
                              err=io.StringIO()) as handle:
                warm = run_suite(remote=handle.url, bench_dir=bench_dir,
                                 err=io.StringIO())
                code, _ = _cli("bench", "--remote", handle.url,
                               "--no-cache", "--bench-dir", bench_dir)
        assert warm["meta"]["cells"] == {"cold": 6, "cached": 0}
        aggregate = json.loads((tmp_path / "BENCH_results.json").read_text())
        assert code == 0
        assert aggregate["meta"]["remote"] == handle.url
        assert aggregate["meta"]["cells"] == {"cold": 6, "cached": 0}
        assert aggregate["experiments"][0]["cache_hits"] == 0


def _alive_children(pid):
    """Live (non-zombie) processes whose parent is ``pid``, from /proc."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


def _alive(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


@contextlib.contextmanager
def _serve_process(*args):
    """``repro serve ARGS`` in its own process on an ephemeral port;
    yields ``(proc, url)`` and stops the server on the way out."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        url = None
        while url is None and time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stderr], [], [], 1.0)
            if ready:
                line = proc.stderr.readline()
                if "http://" in line:
                    url = line.split()[2]
        assert url is not None, "server never printed its banner"
        yield proc, url
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stderr.close()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool's pids")
def test_sigterm_stops_the_server_and_its_pool():
    with _serve_process("--no-store", "--workers", "2") as (proc, url):
        grid = [{"x": i} for i in range(4)]
        status = ServeClient(url).run(_request(grid, no_store=True),
                                      timeout=WAIT)
        assert status["state"] == "done"
        workers = _alive_children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))


def test_remote_suite_assembles_under_the_fault_plan(monkeypatch,
                                                     tmp_path):
    """``repro bench --remote URL --faults PLAN`` passes the plan to the
    table it assembles locally, so the table describes the grid the
    server ran.  The server runs in its own process, so nothing but the
    request carries the plan to it."""
    from repro.exp.bench import run_suite
    from stub_bench import FAULT_AWARE, stub_bench

    faults = {"mem_slow_rate": 0.5, "levels": [0, 64]}
    modules = {"bench_faults": (FAULT_AWARE, ["stub_faults"])}
    with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
        with _serve_process("--no-store", "--workers", "1",
                            "--bench-dir", bench_dir) as (_proc, url):
            aggregate = run_suite(remote=url, bench_dir=bench_dir,
                                  faults=faults, err=io.StringIO())
    assert not aggregate["failures"]
    table = (tmp_path / "benchmarks" / "results"
             / "stub_faults.txt").read_text()
    assert "rate 0.5" in table.splitlines()[-1]   # the note: the grid
    assert [row["rate"] for row in aggregate["experiments"][0]["data"]] \
        == [0.5]                                  # the served value


POOL_OWNER = """
import sys
from repro.serve import SweepScheduler

sched = SweepScheduler(store=None, workers=2).start()
sid = sched.submit({"callable": "serve_jobs:square",
                    "grid": [{"x": 1}, {"x": 2}]})
assert sched.wait(sid, timeout=60)
print(*sorted(w.process.pid for w in sched._workers.values()), flush=True)
sys.stdin.read()  # until killed, or until the test's end of the pipe goes
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool's pids")
def test_pool_workers_exit_when_their_scheduler_is_killed():
    # SIGKILL skips every shutdown path: the workers must see EOF on
    # their pipes, so no process may still hold the scheduler's ends.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    proc = subprocess.Popen([sys.executable, "-c", POOL_OWNER], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    workers = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready, "pool owner never printed its worker pids"
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        assert all(map(_alive, workers))
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# the HTTP server + client (one server for the whole class)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("serve") / "store.sqlite")
    with ServerThread(store_path=store, workers=2,
                      err=io.StringIO()) as handle:
        yield handle


class TestHttp:
    def test_healthz(self, server):
        health = ServeClient(server.url).health()
        assert health["ok"] is True
        assert health["pool"]["size"] == 2

    def test_unknown_routes_and_sweeps_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.status("sw9999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/no/such/route")
        assert err.value.status == 404

    def test_bad_request_is_400(self, server):
        with pytest.raises(ServeError) as err:
            ServeClient(server.url).submit({"bogus": 1})
        assert err.value.status == 400
        assert "unknown" in str(err.value)

    def test_submit_wait_events_table(self, server):
        client = ServeClient(server.url)
        grid = [{"x": i} for i in range(4)]
        submitted = client.submit(_request(grid))
        assert submitted["id"].startswith("sw")
        seen = []
        status = client.wait(submitted["id"], timeout=WAIT,
                             on_event=seen.append)
        assert status["state"] == "done"
        assert status["ok"] == 4
        kinds = {event["kind"] for event in seen}
        assert "sweep_begin" in kinds
        assert "sweep_task" in kinds
        assert "sweep_end" in kinds
        # The event feed paginates: a fresh read from 0 returns
        # everything, a read from the end returns nothing new.
        chunk = client.events(submitted["id"], since=0, timeout=0.0)
        assert chunk["next"] == len(chunk["events"]) > 0
        done = client.events(submitted["id"], since=chunk["next"],
                             timeout=0.0)
        assert done["events"] == []
        assert done["state"] == "done"
        # No assembler on an inline callable sweep -> table is a 409.
        with pytest.raises(ServeError) as err:
            client.table(submitted["id"])
        assert err.value.status == 409

    def test_repeat_submit_all_store_hits(self, server):
        client = ServeClient(server.url)
        grid = [{"x": 100 + i} for i in range(3)]
        first = client.run(_request(grid), timeout=WAIT)
        again = client.run(_request(grid), timeout=WAIT)
        assert first["stats"]["executed"] == 3
        assert again["stats"]["executed"] == 0
        assert again["stats"]["store_hits"] == 3
        assert ([r["value"] for r in first["records"]]
                == [r["value"] for r in again["records"]])

    def test_predict_route_answers_and_refuses(self, server):
        from repro.obs.live import parse_prometheus

        client = ServeClient(server.url)
        before = parse_prometheus(client.metrics())
        described = client.predict_describe()
        assert "ttda" in described["machines"]
        answer = client.predict("ttda", {"workload": "matmul",
                                         "n_pes": 8,
                                         "network_latency": 20})
        assert answer["in_region"] is True
        assert answer["time"] > 0.0
        assert sum(answer["buckets"].values()) == pytest.approx(
            answer["time"])
        with pytest.raises(ServeError) as err:
            client.predict("ttda", {"workload": "matmul", "n_pes": 256})
        assert err.value.status == 409
        out = client.predict("ttda", {"workload": "matmul", "n_pes": 256},
                             extrapolate=True)
        assert out["in_region"] is False
        # Three queries reached the model and one of them was refused.
        after = parse_prometheus(client.metrics())
        for name, moved in (("predict_requests_total", 3),
                            ("predict_out_of_region_total", 1)):
            assert _metric(after, name) == _metric(before, name) + moved

    def test_store_stats_route(self, server):
        stats = ServeClient(server.url).store_stats()
        assert stats["backend"] == "sqlite"
        assert stats["entries"] >= 1

    def test_sweep_listing(self, server):
        sweeps = ServeClient(server.url).sweeps()
        assert len(sweeps) >= 1
        assert all("records" not in sweep for sweep in sweeps)


# ---------------------------------------------------------------------------
# the live telemetry plane: /healthz, /metrics, sweep traces, flight
# recorder, long-poll edge cases
# ---------------------------------------------------------------------------

def _metric(parsed, name, **labels):
    return parsed.get(
        (f"repro_{name}", tuple(sorted(labels.items()))), 0.0)


class TestTelemetry:
    def test_healthz_reports_pool_liveness(self, server):
        health = ServeClient(server.url).health()
        pool = health["pool"]
        assert pool["size"] == 2
        assert pool["alive"] == 2
        assert pool["spawned"] >= pool["alive"]
        assert pool["restarts"] >= 0
        assert health["queue_depth"] == pool["queue_depth"]

    def test_metrics_exposition_parses_and_counters_move(self, server):
        from repro.obs.live import parse_prometheus

        client = ServeClient(server.url)
        before = parse_prometheus(client.metrics())
        grid = [{"x": 200 + i} for i in range(3)]
        client.run(_request(grid, no_store=True), timeout=WAIT)
        after = parse_prometheus(client.metrics())
        assert (_metric(after, "sweeps_submitted_total")
                == _metric(before, "sweeps_submitted_total") + 1)
        assert (_metric(after, "cells_executed_total")
                >= _metric(before, "cells_executed_total") + 3)
        assert _metric(after, "sweeps_completed_total", status="done") >= 1
        assert _metric(after, "workers_alive") == 2
        assert _metric(after, "workers_spawned_total") >= 2
        # Per-worker gauge carries a label per pool slot.
        assert _metric(after, "worker_busy", worker="1") in (0.0, 1.0)
        # The HTTP layer meters itself, including this very route.
        assert _metric(after, "http_requests_total",
                       route="GET /metrics") >= 1
        assert _metric(after, "http_request_seconds_count",
                       route="POST /sweeps") >= 1

    def test_metrics_render_is_deterministic(self, server):
        client = ServeClient(server.url)
        # Strip the only moving self-measurement (this scrape's own
        # latency sample lands between the two reads).
        def stable(text):
            return [line for line in text.splitlines()
                    if "http_request" not in line]

        assert stable(client.metrics()) == stable(client.metrics())

    def test_trace_endpoint_is_valid_chrome_trace(self, server):
        from repro.obs.sinks import validate_chrome_trace

        client = ServeClient(server.url)
        grid = [{"x": 300 + i} for i in range(6)]
        status = client.run(_request(grid, no_store=True), timeout=WAIT)
        payload = client.trace(status["id"])
        validate_chrome_trace(payload)
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 6          # one duration slice per cell
        assert {e["tid"] for e in slices} >= {1, 2}  # both workers
        assert all(e["args"]["trace"] == f"tr-{status['id']}"
                   for e in slices)
        assert payload["otherData"]["state"] == "done"
        with pytest.raises(ServeError) as err:
            client.trace("sw9999")
        assert err.value.status == 404

    def test_trace_records_crash_recovery(self):
        from repro.obs.sinks import validate_chrome_trace
        from repro.serve import sweep_trace

        grid = [{"x": i} for i in range(8)]
        chaos = {"worker_crash_rate": 0.5, "seed": 7, "max_retries": 4}
        with SweepScheduler(store=None, workers=2) as sched:
            sid = sched.submit(_request(grid, faults=chaos))
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
            payload = sweep_trace(sched, sid)
        assert status["stats"]["worker_deaths"] >= 1
        validate_chrome_trace(payload)
        names = [e["name"] for e in payload["traceEvents"]]
        # A killed attempt closes as a requeue slice and the pool's
        # worker-exit instant lands on the same timeline.
        assert any("requeue:" in name for name in names)
        assert "serve_worker_exit" in names
        assert sweep_trace(sched, "sw9999") is None

    def test_failure_rows_carry_flight_tail(self):
        request = {"callable": "serve_jobs:fail_on_three",
                   "grid": [{"x": 1}, {"x": 3}], "retries": 0}
        with SweepScheduler(store=None, workers=1) as sched:
            sid = sched.submit(request)
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
        ok, bad = status["records"]
        assert ok["status"] == "ok"
        assert "flight" not in ok       # payload key is only-when-set
        kinds = [crumb["kind"] for crumb in bad["flight"]]
        assert kinds[0] == "flight_begin"
        assert kinds[-1] == "flight_error"
        assert all(crumb["sweep"] == sid for crumb in bad["flight"])
        assert all(crumb["trace"] == f"tr-{sid}"
                   for crumb in bad["flight"])
        assert all(crumb["index"] == 1 for crumb in bad["flight"])

    def test_longpoll_finished_sweep_returns_immediately(self, server):
        import time

        client = ServeClient(server.url)
        status = client.run(_request([{"x": 400}]), timeout=WAIT)
        t0 = time.monotonic()
        chunk = client.events(status["id"], since=0, timeout=20.0)
        assert time.monotonic() - t0 < 5.0
        assert chunk["state"] == "done"
        assert chunk["events"]

    def test_longpoll_no_new_events_honors_timeout(self, server):
        import time

        client = ServeClient(server.url)
        submitted = client.submit(
            {"callable": "serve_jobs:sleep_forever",
             "grid": [{"sleep": 2.5}], "timeout": 30.0})
        sid = submitted["id"]
        # Drain what exists, then poll at the cursor end while the cell
        # is still sleeping: the poll must ride out its window, not spin.
        chunk = client.events(sid, since=0, timeout=0.0)
        t0 = time.monotonic()
        again = client.events(sid, since=chunk["next"], timeout=1.0)
        elapsed = time.monotonic() - t0
        if again["state"] == "running" and not again["events"]:
            assert 0.8 <= elapsed < 5.0
        client.wait(sid, timeout=WAIT)  # leave the pool idle

    def test_longpoll_cursor_reuse_no_dup_no_drop(self, server):
        client = ServeClient(server.url)
        status = client.run(_request([{"x": 402}, {"x": 403}]),
                            timeout=WAIT)
        full = client.events(status["id"], since=0, timeout=0.0)["events"]
        assert [e["seq"] for e in full] == list(range(len(full)))
        stepped, since = [], 0
        while True:
            chunk = client.events(status["id"], since=since, timeout=0.0)
            if not chunk["events"]:
                break
            stepped.extend(chunk["events"])
            since = chunk["next"]
        assert stepped == full
        # Re-reading an old cursor replays the identical suffix.
        mid = len(full) // 2
        again = client.events(status["id"], since=mid,
                              timeout=0.0)["events"]
        assert again == full[mid:]


# ---------------------------------------------------------------------------
# the serve-plane CLI: repro submit, sweeps and top
# ---------------------------------------------------------------------------

E07_TABLE = (Path(__file__).resolve().parent.parent / "benchmarks"
             / "results" / "e07_trapezoid.txt")


def _cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestServeCli:
    """Runs after the other server tests: the first test needs an e07
    grid the store has not seen, and the last one kills workers."""

    def test_submit_and_sweeps_print_the_committed_table(self, server,
                                                          tmp_path):
        expected = E07_TABLE.read_text()
        code, text = _cli("submit", "e07_trapezoid", "--quiet",
                          "--url", server.url)
        assert code == 0 and text == expected
        client = ServeClient(server.url)
        (sweep,) = [s for s in client.sweeps()
                    if s["experiment"] == "e07_trapezoid"]
        # A fault-free sweep on identical workers runs each cell once:
        # one assignment per grid cell, and no other kind of copy.
        events = client.events(sweep["id"], since=0, timeout=0.0)["events"]
        assert {e["kind"] for e in events} == {
            "serve_request", "sweep_begin", "serve_assign", "sweep_task",
            "sweep_end", "serve_sweep_done"}
        assert sorted(e["index"] for e in events
                      if e["kind"] == "serve_assign") == list(range(6))

        code, text = _cli("submit", "e07_trapezoid", "--quiet", "--json",
                          "--url", server.url)
        status = json.loads(text)
        assert code == 0 and status["state"] == "done"
        assert status["stats"]["executed"] == 0
        assert status["stats"]["store_hits"] == status["cells"] == 6

        code, text = _cli("submit", "e07_trapezoid", "--detach",
                          "--url", server.url)
        detached = text.strip()
        assert code == 0 and client.wait(detached, timeout=WAIT)
        code, text = _cli("sweeps", detached, "--table", "--url", server.url)
        assert code == 0 and text == expected
        trace = tmp_path / "sweep.trace.json"
        code, _ = _cli("sweeps", sweep["id"], "--trace", str(trace),
                       "--url", server.url)
        payload = json.loads(trace.read_text())
        assert code == 0 and validate_chrome_trace(payload)
        assert [e for e in payload["traceEvents"] if e["ph"] == "X"]

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_top_polls_once(self, server, form):
        code, text = _cli("top", server.url, "--iterations", "1", *form)
        assert code == 0
        if form:
            assert "repro_workers_alive" in json.loads(text)
        else:
            assert text.startswith(f"-- repro top @ {server.url} [poll 1]")

    def test_crashed_sweep_prints_the_committed_table(self, server,
                                                      tmp_path):
        # Workers os._exit mid-cell on a deterministic substream, and
        # --no-store makes every cell run.
        plan = tmp_path / "crash.json"
        plan.write_text(json.dumps({"seed": 7, "worker_crash_rate": 0.5,
                                    "max_retries": 4}))
        code, text = _cli("submit", "e07_trapezoid", "--quiet",
                          "--no-store", "--faults", str(plan), "--json",
                          "--url", server.url)
        status = json.loads(text)
        assert code == 0 and status["state"] == "done"
        assert status["stats"]["worker_deaths"] >= 1
        assert status["stats"]["requeued"] >= 1
        code, text = _cli("sweeps", status["id"], "--table",
                          "--url", server.url)
        assert code == 0 and text == E07_TABLE.read_text()


# ---------------------------------------------------------------------------
# the cache CLI
# ---------------------------------------------------------------------------

class TestCacheCli:
    _main = staticmethod(_cli)

    def test_stats_prune_clear(self, tmp_path):
        store_path = str(tmp_path / "s.sqlite")
        store = SqliteStore(store_path)
        for i in range(3):
            store.put("e07_trapezoid", f"k{i}", {"x": i}, "v0", i)
        store.close()
        code, text = self._main("cache", "stats", "--store", store_path)
        assert code == 0
        assert "3 entries" in text and "e07_trapezoid" in text
        code, text = self._main("cache", "prune", "--older-than", "2w",
                                "--store", store_path)
        assert code == 0 and "pruned 0" in text
        code, text = self._main("cache", "clear", "--store", store_path)
        assert code == 0 and "cleared 3" in text

    def test_stats_json_shape(self, tmp_path):
        store_path = str(tmp_path / "s.sqlite")
        SqliteStore(store_path).close()
        code, text = self._main("cache", "stats", "--json",
                                "--store", store_path)
        assert code == 0
        stats = json.loads(text)
        assert stats["entries"] == 0 and stats["backend"] == "sqlite"

    def test_duration_parsing(self):
        from repro.cli import _parse_duration

        assert _parse_duration("90") == 90.0
        assert _parse_duration("30m") == 1800.0
        assert _parse_duration("12h") == 12 * 3600.0
        assert _parse_duration("7d") == 7 * 86400.0
        assert _parse_duration("2w") == 14 * 86400.0
        with pytest.raises(SystemExit):
            _parse_duration("fortnight")
