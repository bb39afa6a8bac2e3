"""The live telemetry plane: Prometheus exposition + kernel stats.

Covers :mod:`repro.obs.live` (LiveMetrics families, deterministic
rendering, the text-format parser) and the ``kernel_stats()`` surface
that the event kernels expose through :class:`repro.machines.api.
SimResult` and the ``repro machine`` / ``repro profile`` CLI.
"""

import io
import json
import threading

import pytest

from repro.obs.live import DEFAULT_BUCKETS, LiveMetrics, parse_prometheus


def _cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# LiveMetrics: declaration, updates, rendering
# ---------------------------------------------------------------------------

class TestLiveMetrics:
    def test_counter_gauge_histogram_round_trip(self):
        metrics = LiveMetrics()
        metrics.counter("jobs_total", "Jobs processed.")
        metrics.inc("jobs_total", 3)
        metrics.gauge("depth", "Queue depth.")
        metrics.set("depth", 7)
        metrics.histogram("latency_seconds", "Request latency.")
        metrics.observe("latency_seconds", 0.003)
        metrics.observe("latency_seconds", 1.0)
        parsed = parse_prometheus(metrics.render())
        assert parsed[("repro_jobs_total", ())] == 3.0
        assert parsed[("repro_depth", ())] == 7.0
        assert parsed[("repro_latency_seconds_count", ())] == 2.0
        assert parsed[("repro_latency_seconds_sum", ())] == 1.003
        # Cumulative buckets: le=0.005 holds one sample, +Inf holds all.
        assert parsed[("repro_latency_seconds_bucket",
                       (("le", "0.005"),))] == 1.0
        assert parsed[("repro_latency_seconds_bucket",
                       (("le", "+Inf"),))] == 2.0
        assert len(DEFAULT_BUCKETS) >= 4

    def test_updates_auto_declare(self):
        metrics = LiveMetrics()
        metrics.inc("seen_total")
        metrics.set("level", 2.5)
        metrics.observe("wait_seconds", 0.1)
        text = metrics.render()
        assert "# TYPE repro_seen_total counter" in text
        assert "# TYPE repro_level gauge" in text
        assert "# TYPE repro_wait_seconds histogram" in text

    def test_labels_render_sorted_and_deterministic(self):
        metrics = LiveMetrics()
        metrics.counter("req_total", "Requests.")
        metrics.inc("req_total", route="b", method="GET")
        metrics.inc("req_total", method="GET", route="a")
        text = metrics.render()
        # Label keys are sorted inside each series; series are sorted
        # within the family — the exposition is byte-deterministic.
        a = text.index('repro_req_total{method="GET",route="a"}')
        b = text.index('repro_req_total{method="GET",route="b"}')
        assert 0 < a < b
        assert text == metrics.render()

    def test_value_and_snapshot(self):
        metrics = LiveMetrics()
        metrics.inc("hits_total", 2, kind="a")
        assert metrics.value("hits_total", kind="a") == 2.0
        snap = metrics.snapshot()
        assert snap['repro_hits_total{kind="a"}'] == 2.0
        assert list(snap) == sorted(snap)

    def test_gauge_fn_scalar_and_labelled(self):
        metrics = LiveMetrics()
        depth = [4]
        metrics.gauge_fn("depth", "Live depth.", lambda: depth[0])
        metrics.gauge_fn(
            "busy", "Per-worker busyness.",
            lambda: {(("worker", "1"),): 1, (("worker", "2"),): 0})
        parsed = parse_prometheus(metrics.render())
        assert parsed[("repro_depth", ())] == 4.0
        depth[0] = 9
        assert metrics.value("depth") == 9.0
        assert parsed[("repro_busy", (("worker", "1"),))] == 1.0
        assert parsed[("repro_busy", (("worker", "2"),))] == 0.0

    def test_gauge_fn_may_reenter_the_registry(self):
        # The scheduler's gauge callables take its own lock and may even
        # touch the metrics object; render() must evaluate them outside
        # the metrics lock or this deadlocks.
        metrics = LiveMetrics()
        metrics.counter("spawns_total", "Spawned.")

        def loopback():
            return metrics.value("spawns_total")

        metrics.gauge_fn("alive", "Loopback gauge.", loopback)
        metrics.inc("spawns_total", 5)
        parsed = parse_prometheus(metrics.render())
        assert parsed[("repro_alive", ())] == 5.0

    def test_thread_safety_under_contention(self):
        metrics = LiveMetrics()
        metrics.counter("n_total", "Contended counter.")

        def hammer():
            for _ in range(500):
                metrics.inc("n_total")
                metrics.observe("lat_seconds", 0.01)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.value("n_total") == 2000.0
        parsed = parse_prometheus(metrics.render())
        assert parsed[("repro_lat_seconds_count", ())] == 2000.0

    def test_parse_rejects_malformed_exposition(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{unclosed=\"1\n")
        # Comments and blank lines are fine.
        assert parse_prometheus("# HELP x y\n\n") == {}


# ---------------------------------------------------------------------------
# kernel_stats: simulators -> SimResult -> CLI
# ---------------------------------------------------------------------------

class TestKernelStats:
    def test_simulator_exposes_stats(self):
        from repro.common.simulator import Simulator

        sim = Simulator()
        fired = []
        sim.post(1, lambda: fired.append(1))
        sim.post(2, lambda: fired.append(2))
        sim.run()
        stats = sim.kernel_stats()
        assert stats["kernel"] == "calendar"
        assert stats["events_fired"] == 2
        assert stats["pending"] == 0

    def test_sim_result_payload_excludes_kernel_telemetry(self):
        # kernel_stats describes the engine run, not the result: it must
        # never reach the cacheable payload, or store-cached values
        # would claim the run that populated them.
        from repro.machines.api import SimResult

        stats = {"kernel": "calendar", "events_fired": 7}
        full = SimResult(machine="m", config={}, workload={}, metrics={},
                         kernel_stats=stats)
        assert full.kernel_stats == stats
        payload = full.as_dict()
        assert "kernel_stats" not in payload
        assert SimResult.from_dict(payload).kernel_stats is None

    def test_cli_machine_json_carries_kernel_stats(self):
        code, text = _cli("machine", "ttda", "--json")
        assert code == 0
        stats = json.loads(text)["kernel_stats"]
        assert stats["kernel"] == "calendar"
        assert stats["events_fired"] > 0

    def test_cli_machine_text_renders_kernel_stats(self):
        code, text = _cli("machine", "ttda")
        assert code == 0
        assert "kernel_stats:" in text
        assert "events_fired:" in text


# ---------------------------------------------------------------------------
# MetricsRegistry.snapshot ordering (the pull-side contract /metrics
# and BENCH telemetry both lean on)
# ---------------------------------------------------------------------------

def test_registry_snapshot_is_stable_ordered():
    from repro.common.stats import Counter, Histogram
    from repro.obs import MetricsRegistry

    def build(register_order):
        registry = MetricsRegistry()
        counter = Counter()
        counter.add("b", 2)
        counter.add("a", 1)
        hist = Histogram()
        hist.observe(3.0)
        instruments = {"zeta": counter, "alpha": hist, "mid": lambda: 42}
        for name in register_order:
            registry.register(name, instruments[name])
        return registry.snapshot(now=1.0)

    first = build(["zeta", "alpha", "mid"])
    second = build(["mid", "zeta", "alpha"])  # insertion order is noise
    assert first == second
    assert list(first) == list(second) == sorted(first)
