"""The causal profiler: cycle accounting, critical path, regression gate.

Covers the PR-3 acceptance criteria: the accounting invariant (buckets
sum to cycles x units for every registered machine on two workloads),
critical-path sanity (bounded by total cycles, at least the busiest
unit's span, byte-identical across runs), the flow-event export, the
``repro profile`` CLI, and the ``repro bench --check`` gate primitives.
"""

import io
import json
import math
import os

import pytest

from repro.cli import main
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.lang import compile_source
from repro.machines import registry
from repro.machines.api import SimResult
from repro.obs import RingSink, TraceBus, validate_chrome_trace
from repro.obs.analysis import (
    BUCKETS,
    CausalGraph,
    CycleAccounting,
    build_profile,
    chrome_flow_events,
    compare_entry,
    check_suite,
    compute_slack,
    extract_critical_path,
    make_baseline,
    ttda_accounting,
    unit_account,
    vn_accounting,
    write_baselines,
)
from repro.obs.events import TraceEvent

def _example(name):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(here, "examples", "programs", name)


def _machine_run(n_pes=4, provenance=True):
    bus = TraceBus(provenance=provenance)
    ring = bus.add_sink(RingSink(limit=None))
    with open(_example("trapezoid.id"), "r", encoding="utf-8") as fh:
        program = compile_source(fh.read(), entry="trapezoid")
    config = MachineConfig(n_pes=n_pes, network_latency=4.0, trace_bus=bus)
    machine = TaggedTokenMachine(program, config)
    result = machine.run(0.0, 1.0, 8, 0.125)
    return machine, result, ring


# ----------------------------------------------------------------------
# Accounting invariant across the registry
# ----------------------------------------------------------------------

# (name, config, workload) — every registered machine, two workloads.
REGISTRY_RUNS = [
    ("ttda", {}, {}),
    ("ttda", {"n_pes": 2}, {"workload": "matmul", "args": (3,)}),
    ("hep", {}, {}),
    ("hep", {"contexts": 4}, {"workload": "producer_consumer", "n": 8}),
    ("cmmp", {"n_procs": 4}, {"iterations": 10}),
    ("cmmp", {"n_procs": 4}, {"workload": "semaphore", "increments": 4}),
    ("cmstar", {}, {"n_refs": 10}),
    ("cmstar", {}, {"remote_fraction": 0.4, "n_refs": 10, "contexts": 2}),
    ("ultracomputer", {"stages": 3}, {}),
    ("ultracomputer", {"stages": 3, "combining": False}, {}),
    ("connection_machine", {"groups_log2": 5}, {"rounds": 4}),
    ("connection_machine", {}, {"workload": "illiac_shifts",
                                "transfers": [(1, 2), (-1, 0)]}),
    ("vliw", {}, {}),
    ("vliw", {"issue_width": 4}, {"actual_latency": 5.0}),
]


@pytest.mark.parametrize(
    "name,config,workload", REGISTRY_RUNS,
    ids=[f"{name}-{i % 2}" for i, (name, _, _) in enumerate(REGISTRY_RUNS)])
def test_accounting_invariant_across_registry(name, config, workload):
    """Buckets sum exactly to cycles x units for every model."""
    result = registry.create(name, **config).run(**workload)
    acct = result.profile()
    assert isinstance(acct, CycleAccounting)
    acct.check()  # raises on violation
    assert acct.exact(), f"{name}: accounting not bit-exact"
    assert acct.n_units >= 1
    totals = acct.totals()
    assert set(totals) == set(BUCKETS)
    assert math.isclose(sum(totals[b] for b in BUCKETS),
                        acct.total_unit_cycles, rel_tol=1e-12, abs_tol=1e-9)
    # The payload round-trips through JSON (sweep engine caching).
    rebuilt = SimResult.from_dict(json.loads(json.dumps(result.as_dict())))
    assert rebuilt.profile().as_dict() == acct.as_dict()


def test_registry_covers_all_seven_machines():
    assert set(registry.names()) == {name for name, _, _ in REGISTRY_RUNS}


def test_profile_hook_raises_without_accounting():
    result = registry.create("ttda", n_pes=0).run()  # interpreter: untimed
    with pytest.raises(ValueError, match="no cycle accounting"):
        result.profile()


def test_unit_account_idle_is_exact_residual():
    account = unit_account("u", 10.0, compute=3.3, memory_stall=1.1,
                           sync_wait=0.7, network_queue=2.2)
    assert account.total() == 10.0  # bit-for-bit, not approximately


def test_accounting_check_rejects_violations():
    bad = CycleAccounting("m", 10.0, [unit_account("u", 10.0, compute=3.0)])
    bad.units[0].buckets["idle"] = 0.0  # break the tiling
    with pytest.raises(ValueError, match="accounting violated"):
        bad.check()
    negative = CycleAccounting("m", 10.0,
                               [unit_account("u", 10.0, compute=-2.0)])
    with pytest.raises(ValueError, match="negative"):
        negative.check()


# ----------------------------------------------------------------------
# Causal graph + critical path
# ----------------------------------------------------------------------

def _event(eid, t, kind="exec", parent=None, joins=None, dur=None, src=0):
    fields = {"eid": eid}
    if parent is not None:
        fields["parent"] = parent
    if joins:
        fields["joins"] = joins
    if dur is not None:
        fields["dur"] = dur
    return TraceEvent(t, src, kind, fields=fields)


def test_causal_graph_structure():
    graph = CausalGraph.from_events([
        _event(1, 0.0),
        _event(2, 2.0, parent=1, dur=2.0),
        _event(3, 1.0, kind="park", parent=1),
        _event(4, 3.0, kind="match", parent=2, joins=[3]),
        TraceEvent(9.0, 0, "noise"),  # no eid -> skipped
    ])
    assert len(graph) == 4
    assert [n.eid for n in graph.roots()] == [1]
    assert sorted(graph.edges()) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert graph.node(2).start == 0.0 and graph.node(2).dur == 2.0


def test_terminal_prefers_result_then_caused_events():
    graph = CausalGraph.from_events([
        _event(1, 0.0),
        _event(2, 5.0, parent=1),
        _event(3, 9.0, kind="run_end"),  # later, but parentless
    ])
    assert graph.terminal().eid == 2
    with_result = CausalGraph.from_events([
        _event(1, 0.0),
        _event(2, 5.0, kind="result", parent=1),
        _event(3, 9.0, parent=1),
    ])
    assert with_result.terminal().eid == 2


def test_critical_path_sanity_on_machine_run():
    machine, result, ring = _machine_run()
    graph = CausalGraph.from_events(ring.events)
    path = extract_critical_path(graph)
    # Bounded above by the run, below by the busiest single unit.
    assert 0 < path.cycles <= result.time
    acct = ttda_accounting(machine)
    busiest = max(unit.window - unit.buckets["idle"] for unit in acct.units)
    assert path.cycles >= busiest
    # Times never decrease along the path; edges follow parent links.
    for earlier, later in zip(path.nodes, path.nodes[1:]):
        assert later.time >= earlier.time
        assert earlier.eid in later.parents
    breakdown = path.kind_breakdown()
    assert sum(breakdown.values()) == pytest.approx(path.cycles)


def test_critical_path_deterministic_across_runs():
    _, _, ring_a = _machine_run()
    _, _, ring_b = _machine_run()
    path_a = extract_critical_path(CausalGraph.from_events(ring_a.events))
    path_b = extract_critical_path(CausalGraph.from_events(ring_b.events))
    assert path_a.format() == path_b.format()  # byte-identical
    assert [n.eid for n in path_a.nodes] == [n.eid for n in path_b.nodes]


def test_critical_path_needs_provenance():
    _, _, ring = _machine_run(provenance=False)
    graph = CausalGraph.from_events(ring.events)
    assert len(graph) == 0
    with pytest.raises(ValueError, match="provenance"):
        extract_critical_path(graph)


def test_slack_zero_on_path_nonnegative_off_path():
    _, _, ring = _machine_run()
    graph = CausalGraph.from_events(ring.events)
    path = extract_critical_path(graph)
    slack = compute_slack(graph)
    assert all(value >= 0 for value in slack.values())
    assert slack[path.nodes[-1].eid] == 0


def test_chrome_flow_events_validate():
    _, _, ring = _machine_run()
    path = extract_critical_path(CausalGraph.from_events(ring.events))
    tids = {}
    records = chrome_flow_events(
        path, lambda src: tids.setdefault(src, len(tids) + 1))
    assert len(records) == len(path.nodes)
    assert records[0]["ph"] == "s" and records[-1]["ph"] == "f"
    assert all(r["ph"] == "t" for r in records[1:-1])
    assert len({r["id"] for r in records}) == 1
    assert records[-1]["bp"] == "e"
    payload = {"traceEvents": records}
    assert validate_chrome_trace(payload)


def test_build_profile_report_sections():
    machine, result, ring = _machine_run()
    report = build_profile(ring.events, ttda_accounting(machine),
                           meta={"source": "trapezoid", "engine": "machine",
                                 "result": result.value,
                                 "time_cycles": result.time})
    text = report.format()
    assert "cycle accounting" in text
    assert "[exact]" in text
    assert "Issue 1" in text and "Issue 2" in text
    assert "critical path:" in text
    payload = report.as_dict()
    assert payload["critical_path"]["cycles"] <= result.time
    assert payload["slack"]["events"] > 0


# ----------------------------------------------------------------------
# VN accounting details
# ----------------------------------------------------------------------

def test_vn_accounting_splits_issue1_from_issue2():
    # producer/consumer on full/empty memory busy-waits -> sync_wait;
    # the compute_loop never retries -> memory_stall only.
    retrying = registry.create("hep", contexts=2).run(
        workload="producer_consumer", n=8).profile()
    assert retrying.totals()["sync_wait"] > 0
    plain = registry.create("cmmp", n_procs=4).run(iterations=10).profile()
    assert plain.totals()["memory_stall"] > 0
    assert plain.totals()["sync_wait"] == 0


def test_run_sequential_return_machine():
    from repro.vonneumann import run_sequential

    source = "def f(n) = n * n + 1;"
    value, result, machine = run_sequential(source, (5,),
                                            return_machine=True)
    assert value == 26
    acct = vn_accounting(machine, result)
    acct.check()
    assert acct.exact()
    # Back-compat: the historical 2-tuple shape still stands.
    assert run_sequential(source, (5,))[0] == 26


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

def _entry(rows, columns=("n", "cycles", "wall_seconds")):
    return {"experiment": "exp", "columns": list(columns),
            "data": [dict(zip(columns, row)) for row in rows]}


def test_compare_entry_clean_and_tolerant():
    entry = _entry([(1, 100.0, 0.5), (2, 200.0, 0.9)])
    baseline = make_baseline(entry)
    assert baseline["rows"] == [[1, 100.0, 0.5], [2, 200.0, 0.9]]
    assert compare_entry(entry, baseline) == []
    # wall columns are host noise: ignored entirely.
    noisy = _entry([(1, 100.0, 9.9), (2, 200.0, 0.1)])
    assert compare_entry(noisy, baseline) == []
    # within tolerance passes, beyond fails.
    near = _entry([(1, 100.0 * (1 + 1e-12), 0.5), (2, 200.0, 0.9)])
    assert compare_entry(near, baseline) == []
    far = _entry([(1, 101.0, 0.5), (2, 200.0, 0.9)])
    diffs = compare_entry(far, baseline)
    assert len(diffs) == 1 and diffs[0]["kind"] == "cell"
    assert diffs[0]["column"] == "cycles" and diffs[0]["row"] == 0


def test_compare_entry_structural_diffs():
    entry = _entry([(1, 100.0, 0.5)])
    baseline = make_baseline(entry)
    fewer = _entry([])
    assert compare_entry(fewer, baseline)[0]["kind"] == "rows"
    renamed = _entry([(1, 100.0, 0.5)], columns=("n", "time", "wall_seconds"))
    assert compare_entry(renamed, baseline)[0]["kind"] == "columns"


def test_compare_entry_nan_and_strings():
    entry = _entry([(1, float("nan"), 0.5)])
    baseline = make_baseline(entry)
    assert compare_entry(entry, baseline) == []  # nan == nan for the gate
    strings = _entry([("a", "ok", 0.1)])
    assert compare_entry(strings, make_baseline(strings)) == []
    changed = _entry([("a", "bad", 0.1)])
    assert compare_entry(changed, make_baseline(strings))


def test_compare_entry_nan_vs_number_is_drift():
    baseline = make_baseline(_entry([(1, 100.0, 0.5)]))
    nan_now = _entry([(1, float("nan"), 0.5)])
    diffs = compare_entry(nan_now, baseline)
    assert len(diffs) == 1 and diffs[0]["kind"] == "cell"
    # ...and the mirror image: a number where the baseline recorded NaN.
    nan_base = make_baseline(_entry([(1, float("nan"), 0.5)]))
    diffs = compare_entry(_entry([(1, 100.0, 0.5)]), nan_base)
    assert len(diffs) == 1 and diffs[0]["kind"] == "cell"


def test_compare_entry_infinities():
    # Same-sign infinities agree (inf - inf is NaN; the tolerance
    # arithmetic must never see it)...
    inf = _entry([(1, float("inf"), 0.5)])
    assert compare_entry(inf, make_baseline(inf)) == []
    neg = _entry([(1, float("-inf"), 0.5)])
    assert compare_entry(neg, make_baseline(neg)) == []
    # ...opposite signs and inf-vs-finite are drift.
    assert compare_entry(neg, make_baseline(inf))
    assert compare_entry(_entry([(1, 100.0, 0.5)]), make_baseline(inf))
    assert compare_entry(inf, make_baseline(_entry([(1, 100.0, 0.5)])))


def test_check_suite_roundtrip(tmp_path):
    entry = _entry([(1, 100.0, 0.5)])
    write_baselines([entry], str(tmp_path))
    result = check_suite([entry], str(tmp_path))
    assert result["ok"] and result["checked"] == ["exp"]
    other = dict(entry, experiment="unseen")
    missing = check_suite([other], str(tmp_path))
    assert missing["ok"] and missing["missing"] == ["unseen"]
    bad = _entry([(1, 150.0, 0.5)])
    failed = check_suite([bad], str(tmp_path))
    assert not failed["ok"] and failed["diffs"]


def test_committed_e07_baseline_exists():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "benchmarks", "baselines",
                        "e07_trapezoid.json")
    payload = json.load(open(path))
    assert payload["experiment"] == "e07_trapezoid"
    assert payload["rows"] and payload["columns"]
    assert "tolerances" in payload


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("engine", ["machine", "vn"])
def test_cli_profile_machine_deterministic(engine, tmp_path):
    trapezoid = _example("trapezoid.id")
    out = str(tmp_path / "profile.json")
    runs = []
    for _ in range(2):
        code, text = _cli("profile", trapezoid, "--engine", engine,
                          "--out", out)
        with open(out, "rb") as fh:
            runs.append((code, text, fh.read()))
    assert runs[0] == runs[1]  # byte-identical reports and --out JSON
    code, text, _ = runs[0]
    assert code == 0
    assert "[exact]" in text
    assert "critical path:" in text


def test_cli_profile_json_invariant():
    code, text = _cli("profile", _example("trapezoid.id"), "--json")
    assert code == 0
    payload = json.loads(text)
    acct = CycleAccounting.from_dict(payload["accounting"])
    assert acct.exact()
    assert sum(payload["totals"].values()) == acct.total_unit_cycles
    assert payload["critical_path"]["cycles"] <= payload["meta"]["time_cycles"]


def test_cli_profile_vn_engine():
    code, text = _cli("profile", _example("trapezoid.id"), "--engine", "vn")
    assert code == 0
    assert "[exact]" in text
    assert "vn_exec" in text  # the path runs through the processor


def test_cli_profile_flow_export(tmp_path):
    flow = str(tmp_path / "flow.json")
    out_json = str(tmp_path / "profile.json")
    code, text = _cli("profile", _example("trapezoid.id"),
                      "--flow", flow, "--out", out_json)
    assert code == 0
    payload = json.load(open(flow))
    events = validate_chrome_trace(payload)
    flows = [e for e in events if e["ph"] in ("s", "t", "f")]
    assert flows and flows[0]["ph"] == "s" and flows[-1]["ph"] == "f"
    report = json.load(open(out_json))
    assert report["critical_path"]["events"] == len(flows)


def test_cli_machine_json_carries_accounting():
    code, text = _cli("machine", "hep", "--set", "contexts=4", "--json")
    assert code == 0
    payload = json.loads(text)
    assert "accounting" in payload
    acct = CycleAccounting.from_dict(payload["accounting"])
    acct.check()
    code, text = _cli("machine", "hep", "--set", "contexts=4")
    assert code == 0
    assert "accounting:" in text  # human rendering shows the buckets


#: A bench module with one small TTDA cell, for the host layer table.
HOST_CELL = '''\
from repro.analysis import Table
from repro.exp import Experiment
from repro.machines import registry


def run_cell(config):
    registry.create("ttda", n_pes=2).run(workload="matmul", args=(2,))
    return 1


def _assemble(experiment, values):
    t = Table("host cell", ["x"])
    t.add_row(*values)
    return t


SWEEPS = {"host_cell": Experiment(name="host_cell", run=run_cell,
                                  grid=[{}], assemble=_assemble)}
'''


def test_host_layer_table_repeats_its_calls(tmp_path, monkeypatch):
    """``repro profile --host``: the same cell profiled twice (after a
    first run that pays its imports and compile memos) folds into the
    same layers with the same call counts, and every profiled second
    lands in one row."""
    from repro.exp.hostprof import format_layers, host_profile
    from stub_bench import stub_bench

    modules = {"bench_host": (HOST_CELL, ["host_cell"])}
    with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
        runs = [host_profile(bench_dir=bench_dir) for _ in range(3)]
        code, text = _cli("profile", "--host", "--only", "host", "--json")
    calls = [{row["layer"]: row["calls"] for row in rows}
             for _tables, rows in runs[1:]]
    assert calls[0] == calls[1]
    assert {"builtins", "stdlib/other", "common.simulator", "dataflow.pe",
            "dataflow.mapping"} <= set(calls[0])
    tables, rows = runs[-1]
    assert tables == ["host_cell"]
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
    assert "| `dataflow.mapping` |" in format_layers(tables, rows)
    assert code == 0
    payload = json.loads(text)
    assert payload["tables"] == ["host_cell"]
    assert {row["layer"] for row in payload["layers"]} == set(calls[0])


def test_host_profile_leaves_the_environment_as_found(tmp_path,
                                                      monkeypatch):
    """Resolving the tables exports REPRO_BENCH_DIR and clears
    REPRO_FAULT_PLAN; ``host_profile`` puts both back."""
    from repro.exp.hostprof import host_profile
    from stub_bench import stub_bench

    modules = {"bench_host": (HOST_CELL, ["host_cell"])}
    with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
        monkeypatch.delenv("REPRO_BENCH_DIR")
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"mem_slow_rate": 0.5}')
        tables, _rows = host_profile(bench_dir=bench_dir)
        assert tables == ["host_cell"]
        assert "REPRO_BENCH_DIR" not in os.environ
        assert os.environ["REPRO_FAULT_PLAN"] == '{"mem_slow_rate": 0.5}'


def test_profile_takes_a_file_or_host():
    for argv in (["profile"], ["profile", "prog.id", "--host"]):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
