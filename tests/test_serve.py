"""The sweep service: store, scheduler, HTTP server, client, cache CLI."""

import io
import json

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
from repro.serve.protocol import key_config, machine_plan, scheduling_plan
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

    def test_callable_needs_grid(self):
        with pytest.raises(ProtocolError, match="grid"):
            SweepRequest.from_dict({"callable": "serve_jobs:square"})

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(ProtocolError, match="fault plan"):
            SweepRequest.from_dict({"experiment": "e07",
                                    "faults": {"no_such_knob": 1.0}})

    def test_predict_flag_parses_and_rejects_non_bool(self):
        request = SweepRequest.from_dict(
            {"experiment": "e07_trapezoid", "predict": True})
        assert request.predict is True
        assert SweepRequest.from_dict(
            {"experiment": "e07_trapezoid"}).predict is False
        with pytest.raises(ProtocolError, match="predict"):
            SweepRequest.from_dict(
                {"experiment": "e07_trapezoid", "predict": 1})

    def test_worker_crash_rate_is_scheduling_only(self):
        faults = {"worker_crash_rate": 0.5, "seed": 3,
                  "mem_slow_rate": 0.01}
        machine = machine_plan(faults)
        chaos = scheduling_plan(faults)
        assert "worker_crash_rate" not in machine
        assert machine["mem_slow_rate"] == 0.01
        assert chaos["worker_crash_rate"] == 0.5
        # Pure chaos (no machine-level fields) leaves the cache key
        # untouched: a chaos run shares store entries with a clean run.
        assert machine_plan({"worker_crash_rate": 0.5}) is None
        assert key_config({"x": 1}, None) == {"x": 1}
        assert key_config({"x": 1}, machine) == {
            "__faults__": machine, "config": {"x": 1}}


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

    def test_backup_first_wins_is_byte_identical(self, tmp_path):
        # One cell's original copy straggles (sentinel-file trick); the
        # backup copy returns instantly and must win without changing
        # a byte of the records.
        def run(backup, subdir):
            work = tmp_path / subdir
            work.mkdir()
            grid = [{"x": 0, "dir": str(work), "delay": 3.0},
                    {"x": 1, "dir": str(work), "delay": 0.0},
                    {"x": 2, "dir": str(work), "delay": 0.0},
                    {"x": 3, "dir": str(work), "delay": 0.0}]
            with SweepScheduler(store=None, workers=2,
                                backup_fraction=0.5) as sched:
                sid = sched.submit(
                    {"callable": "serve_jobs:slow_first_copy",
                     "grid": grid, "backup": backup})
                assert sched.wait(sid, timeout=WAIT)
                return sched.status(sid)

        backed = run(True, "a")
        assert backed["stats"]["backups"] >= 1
        # First completion won: the straggling copy (3s) never held up
        # the sweep, whichever copy drew the short straw.
        assert backed["wall_seconds"] < 3.0
        plain = run(False, "b")
        assert plain["stats"]["backups"] == 0
        assert plain["wall_seconds"] >= 3.0  # rode the straggler out

        def canonical(status):
            rows = []
            for row in status["records"]:
                row = dict(row)
                row["config"] = {k: v for k, v in row["config"].items()
                                 if k not in ("dir",)}
                rows.append(row)
            return json.dumps(rows, sort_keys=True)

        assert canonical(backed) == canonical(plain)

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

    def test_predict_mode_answers_sweep_without_workers(self, tmp_path):
        # Opt-in predict mode: every in-region e07 cell is answered by
        # the committed cell surrogate — zero worker executions — and
        # the predicted values never enter the store.
        store = open_store(str(tmp_path))
        with SweepScheduler(store=store, workers=2) as sched:
            sid = sched.submit({"experiment": "e07_trapezoid",
                                "predict": True})
            assert sched.wait(sid, timeout=WAIT)
            status = sched.status(sid)
            stats = store.stats()
        assert status["state"] == "done"
        assert status["stats"]["executed"] == 0
        assert status["stats"]["store_hits"] == 0
        assert status["stats"]["predict_hits"] == len(status["records"])
        assert status["stats"]["predict_hits"] == 6
        assert all(record["status"] == "ok"
                   and record.get("predicted") is True
                   for record in status["records"])
        assert stats["entries"] == 0

    def test_predict_mode_matches_simulation_at_table_precision(
            self, tmp_path):
        # The surrogate-answered sweep must assemble the same table a
        # real simulated sweep does (the artifacts are fitted to round
        # trip the committed grid exactly).
        with SweepScheduler(store=None, workers=2) as sched:
            predicted = sched.submit({"experiment": "e07_trapezoid",
                                      "predict": True})
            simulated = sched.submit({"experiment": "e07_trapezoid"})
            assert sched.wait(predicted, timeout=WAIT)
            assert sched.wait(simulated, timeout=WAIT)
            assert (sched.table_text(predicted)
                    == sched.table_text(simulated))


class TestSharedStore:
    def test_bench_and_serve_share_one_store(self, monkeypatch, tmp_path):
        """A ``repro bench`` and a sweep service on one store at the same
        time: identical tables, one row per cell, no lock failures."""
        from repro.exp.bench import run_suite
        from stub_bench import GRID, stub_bench

        store_dir = str(tmp_path / "store")
        modules = {"bench_grid": (GRID, [("table", "stub_grid")])}
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
        client = ServeClient(server.url)
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
# the cache CLI
# ---------------------------------------------------------------------------

class TestCacheCli:
    def _main(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

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
