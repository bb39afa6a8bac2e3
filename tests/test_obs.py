"""The observability subsystem: bus, sinks, registry, determinism,
instrumentation coverage, and the disabled-tracing overhead bound."""

import io
import json
import time

import pytest

from repro.common.simulator import Simulator
from repro.common.stats import Counter, Histogram, TimeWeighted
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.dataflow.trace import TraceLog
from repro.lang import compile_source
from repro.network import (
    CombiningOmegaNetwork,
    CrossbarNetwork,
    FetchAddRequest,
    IdealNetwork,
)
from repro.obs import (
    ChromeTraceSink,
    JsonlSink,
    MetricsRegistry,
    RingSink,
    TraceBus,
    TraceEvent,
    validate_chrome_trace,
)
from repro.vonneumann import VNMachine

LOOP = """
def sumsq(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- s + i * i
   return s);
"""

FIB = """
def fib(n) =
  (if n < 2 then n
   else fib(n - 1) + fib(n - 2));
"""

SPMD_ASM = """
        MOVI r2, 100
        ADD  r3, r2, r1
        LOAD r4, r3, 0
        ADDI r4, r4, 1
        STORE r4, r3, 0
        HALT
"""


# ----------------------------------------------------------------------
# TraceBus and sinks
# ----------------------------------------------------------------------

def test_bus_disabled_emits_nothing():
    bus = TraceBus()
    assert not bus.enabled
    assert bus.emit(0.0, 0, "exec", "x") is None


def test_bus_fans_out_to_all_sinks():
    bus = TraceBus()
    a, b = bus.add_sink(RingSink()), bus.add_sink(RingSink())
    assert bus.enabled
    event = bus.emit(1.0, 2, "exec", "add", op="add")
    assert isinstance(event, TraceEvent)
    assert len(a) == len(b) == 1
    assert a.events[0].fields == {"op": "add"}
    bus.remove_sink(a)
    bus.emit(2.0, 2, "exec", "mul")
    assert len(a) == 1 and len(b) == 2


def test_event_legacy_tuple_and_json_shape():
    event = TraceEvent(3.0, 1, "match", "t<0,2>", fields={"waiting": 4})
    assert event.as_tuple() == (3.0, 1, "match", "t<0,2>")
    assert event.to_json_dict() == {
        "t": 3.0, "src": 1, "kind": "match", "detail": "t<0,2>", "waiting": 4,
    }


def test_ring_sink_bounded_drops_oldest():
    sink = RingSink(limit=3)
    for i in range(5):
        sink.handle(TraceEvent(float(i), 0, "exec", f"e{i}"))
    assert sink.recorded == 5
    assert sink.dropped == 2
    assert [e.detail for e in sink.events] == ["e2", "e3", "e4"]


def test_ring_sink_limit_zero_counts_exact_drops():
    sink = RingSink(limit=0)
    for i in range(7):
        sink.handle(TraceEvent(float(i), 0, "exec", f"e{i}"))
    assert sink.recorded == 7
    assert sink.dropped == 7  # exact, not saturated
    assert sink.events == []


def test_ring_sink_unbounded_never_drops():
    sink = RingSink(limit=None)
    for i in range(250):
        sink.handle(TraceEvent(float(i), 0, "exec", f"e{i}"))
    assert sink.recorded == 250 and sink.dropped == 0


def test_jsonl_sink_writes_sorted_keys():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.handle(TraceEvent(1.0, "net", "net_inject", "0->1",
                           fields={"size": 1}))
    sink.close()
    lines = buffer.getvalue().splitlines()
    assert sink.written == 1
    record = json.loads(lines[0])
    assert record == {"t": 1.0, "src": "net", "kind": "net_inject",
                      "detail": "0->1", "size": 1}
    assert list(record) == sorted(record)  # deterministic key order


# ----------------------------------------------------------------------
# TraceLog shim (back-compat)
# ----------------------------------------------------------------------

def test_tracelog_format_header_counts():
    log = TraceLog(limit=100)
    for i in range(5):
        log.record(float(i), i % 2, "exec", f"e{i}")
    text = log.format(last=3)
    assert "trace: 5 event(s) recorded, showing last 3" in text
    assert "pe0" in text and "pe1" in text


def test_tracelog_exact_dropped_when_disabled():
    log = TraceLog(limit=0)
    for i in range(9):
        log.record(float(i), 0, "exec", f"e{i}")
    assert log.recorded == 9 and log.dropped == 9
    assert log.events == []


def test_tracelog_attaches_to_bus():
    bus = TraceBus()
    log = TraceLog(bus=bus)
    bus.emit(1.0, 3, "park", "waiting")
    assert log.events == [(1.0, 3, "park", "waiting")]
    assert len(log.by_kind("park")) == 1


# ----------------------------------------------------------------------
# Chrome trace sink
# ----------------------------------------------------------------------

def _machine_with_chrome(source=LOOP, args=(6,), n_pes=4):
    bus = TraceBus()
    chrome = bus.add_sink(ChromeTraceSink())
    program = compile_source(source)
    machine = TaggedTokenMachine(
        program, MachineConfig(n_pes=n_pes, trace_bus=bus))
    result = machine.run(*args)
    return chrome, result


def test_chrome_trace_is_valid_and_has_pe_tracks():
    chrome, result = _machine_with_chrome()
    payload = chrome.to_json(meta={"source": "<test>"})
    data_events = validate_chrome_trace(payload)
    assert len(data_events) > 0
    track_names = {
        e["args"]["name"] for e in payload["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    assert {"pe0", "pe1", "pe2", "pe3"} <= track_names
    exec_slices = [e for e in data_events if e["ph"] == "X"]
    assert exec_slices, "ALU executions should become duration slices"
    assert all(e["dur"] > 0 for e in exec_slices)


def test_chrome_trace_validator_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"no": "traceEvents"})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "a", "pid": 1}]})


def test_chrome_trace_write_roundtrip(tmp_path):
    chrome, _ = _machine_with_chrome(args=(4,))
    out = tmp_path / "run.trace.json"
    chrome.write(str(out), meta={"engine": "machine"})
    payload = json.loads(out.read_text())
    assert payload["otherData"]["engine"] == "machine"
    assert validate_chrome_trace(payload)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

def test_registry_renders_each_instrument_type():
    registry = MetricsRegistry()
    counter = Counter()
    counter.add("ops", 3)
    registry.register("pe0", counter)
    hist = Histogram()
    hist.observe(2.0)
    hist.observe(4.0)
    registry.register("net.latency", hist)
    tw = TimeWeighted()
    tw.update(0.0, 1.0)
    tw.update(4.0, 3.0)
    registry.register("queue", tw)
    registry.register("time", lambda: 12.5)
    snap = registry.snapshot(now=4.0)
    assert snap["pe0.ops"] == 3
    assert snap["net.latency.count"] == 2
    assert snap["net.latency.mean"] == 3.0
    assert snap["queue.current"] == 3.0
    assert snap["time"] == 12.5
    assert list(snap) == sorted(snap)


def test_registry_rejects_duplicate_names():
    registry = MetricsRegistry()
    registry.register("x", lambda: 1)
    with pytest.raises(ValueError):
        registry.register("x", lambda: 2)


def test_machine_registry_has_hierarchical_names():
    program = compile_source(LOOP)
    machine = TaggedTokenMachine(program, MachineConfig(n_pes=2))
    machine.run(5)
    snap = machine.metrics_snapshot()
    executed = sum(value for key, value in snap.items()
                   if key.startswith("pe") and key.endswith(".instructions"))
    assert executed > 0
    assert "pe0.alu.busy" in snap
    assert "pe0.alu.utilization" in snap
    assert "pe1.wm.served" in snap
    assert "net.latency.mean" in snap
    assert snap["sim.events_fired"] > 0


def test_vn_registry_has_hierarchical_names():
    machine = VNMachine(n_procs=2, memory="dancehall", latency=4.0)
    machine.load_spmd(SPMD_ASM)
    machine.run()
    snap = machine.metrics_snapshot()
    assert snap["proc0.instructions"] == 6
    assert snap["proc1.instructions"] == 6
    assert 0.0 < snap["proc0.utilization"] <= 1.0
    assert "net.latency.mean" in snap


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def _jsonl_of_run(source, args, engine="machine"):
    buffer = io.StringIO()
    bus = TraceBus()
    bus.add_sink(JsonlSink(buffer))
    if engine == "machine":
        program = compile_source(source)
        machine = TaggedTokenMachine(
            program, MachineConfig(n_pes=4, trace_bus=bus))
        machine.run(*args)
    else:
        from repro.vonneumann import run_sequential
        run_sequential(source, args, trace_bus=bus)
    return buffer.getvalue()


def test_identical_runs_give_byte_identical_jsonl():
    first = _jsonl_of_run(FIB, (7,))
    second = _jsonl_of_run(FIB, (7,))
    assert first == second
    assert first.count("\n") > 100


def test_identical_vn_runs_give_byte_identical_jsonl():
    first = _jsonl_of_run(LOOP, (8,), engine="vn")
    second = _jsonl_of_run(LOOP, (8,), engine="vn")
    assert first == second
    assert '"kind": "vn_exec"' in first


def test_metrics_snapshot_stable_across_identical_runs():
    def snapshot():
        program = compile_source(FIB)
        machine = TaggedTokenMachine(program, MachineConfig(n_pes=4))
        machine.run(6)
        return machine.metrics_snapshot()

    assert snapshot() == snapshot()


def test_tracing_does_not_change_results():
    program = compile_source(FIB)
    plain = TaggedTokenMachine(program, MachineConfig(n_pes=4)).run(8)
    bus = TraceBus()
    bus.add_sink(RingSink())
    traced = TaggedTokenMachine(
        program, MachineConfig(n_pes=4, trace_bus=bus)).run(8)
    assert traced.value == plain.value
    assert traced.time == plain.time
    assert traced.instructions == plain.instructions


# ----------------------------------------------------------------------
# Instrumentation coverage: networks and VN processors
# ----------------------------------------------------------------------

def _drive_network(net):
    got = []
    net.attach(0, got.append)
    net.attach(1, got.append)
    net.send(0, 1, "hello")
    net.sim.run()
    return got


def test_base_network_emits_inject_and_deliver():
    for factory in (IdealNetwork, CrossbarNetwork):
        sim = Simulator()
        net = factory(sim, 2)
        bus = TraceBus()
        ring = bus.add_sink(RingSink())
        net.attach_bus(bus, source="net")
        _drive_network(net)
        kinds = [e.kind for e in ring.events]
        assert "net_inject" in kinds and "net_deliver" in kinds, factory
        deliver = next(e for e in ring.events if e.kind == "net_deliver")
        assert deliver.source == "net"
        assert deliver.fields["latency"] >= 0


def test_network_register_metrics():
    sim = Simulator()
    net = CrossbarNetwork(sim, 2)
    net.attach_bus(TraceBus())
    _drive_network(net)
    registry = MetricsRegistry()
    net.register_metrics(registry, prefix="net")
    snap = registry.snapshot(now=sim.now)
    assert snap["net.injected"] == 1
    assert snap["net.delivered"] == 1
    assert "net.latency.mean" in snap
    assert "net.out0.served" in snap


def test_omega_network_emits_combine_and_split():
    sim = Simulator()
    net = CombiningOmegaNetwork(sim, stages=2, combining=True)
    bus = TraceBus()
    ring = bus.add_sink(RingSink())
    net.attach_bus(bus, source="net")
    replies = []
    for port in range(net.n_ports):
        net.attach_memory(port, lambda record, payload: net.reply(record, 0))
        net.attach_processor(port, lambda payload, value: replies.append(value))
    # Identical concurrent fetch-and-adds to one address combine in the
    # switches (the paper's Ultracomputer argument, §1.2.3).
    for src in range(net.n_ports):
        net.request(src, FetchAddRequest(address=0, value=1))
    sim.run()
    assert len(replies) == net.n_ports
    kinds = {e.kind for e in ring.events}
    assert "net_combine" in kinds
    assert "net_split" in kinds
    registry = MetricsRegistry()
    net.register_metrics(registry, prefix="net")
    snap = registry.snapshot(now=sim.now)
    assert snap["net.combines"] >= 1
    assert snap["net.splits"] == snap["net.combines"]
    assert snap["net.round_trip.count"] == net.n_ports


def test_vn_processor_events():
    bus = TraceBus()
    ring = bus.add_sink(RingSink())
    machine = VNMachine(n_procs=1, memory="dancehall", latency=6.0,
                        trace_bus=bus)
    machine.load_spmd(SPMD_ASM)
    machine.run()
    kinds = [e.kind for e in ring.events]
    assert kinds.count("vn_exec") == 6
    assert "vn_stall" in kinds
    assert "vn_halt" in kinds
    stall = next(e for e in ring.events if e.kind == "vn_stall")
    assert stall.source == "proc0"
    assert stall.fields["dur"] > 0  # the §1.2.2 idle window


def test_multithreaded_processor_events():
    bus = TraceBus()
    ring = bus.add_sink(RingSink())
    machine = VNMachine(n_procs=1, memory="dancehall", latency=8.0,
                        contexts=2, trace_bus=bus)
    machine.add_multithreaded_processor(
        [(SPMD_ASM, {1: 0}), (SPMD_ASM, {1: 1})])
    machine.run()
    kinds = {e.kind for e in ring.events}
    assert "vn_exec" in kinds
    assert "vn_switch" in kinds
    assert "vn_halt" in kinds
    switch = next(e for e in ring.events if e.kind == "vn_switch")
    assert switch.source == "proc0"
    assert "ctx" in switch.fields


def test_istructure_events_present_in_machine_trace():
    bus = TraceBus()
    ring = bus.add_sink(RingSink())
    program = compile_source(FIB)
    machine = TaggedTokenMachine(
        program, MachineConfig(n_pes=2, trace_bus=bus))
    machine.run(6)
    kinds = {e.kind for e in ring.events}
    assert "exec" in kinds and "match" in kinds
    assert "route" in kinds
    assert "run_begin" in kinds and "run_end" in kinds


# ----------------------------------------------------------------------
# Overhead when disabled
# ----------------------------------------------------------------------

def test_disabled_tracing_overhead_is_small():
    """No sinks attached -> near-zero cost.  The bound is deliberately
    loose (CI machines are noisy); the claim being protected is "no
    per-event string formatting when disabled", whose violation costs
    tens of percent, not five."""
    program = compile_source(FIB)

    def run_once(config):
        machine = TaggedTokenMachine(program, config)
        machine.run(10)
        return machine.sim.wall_seconds

    run_once(MachineConfig(n_pes=4))  # warm up
    # Plain and traced repeats alternate, so a burst of load from
    # another process lands on both sides, not on one side's five.
    plain, with_bus = [], []
    for _ in range(5):
        plain.append(run_once(MachineConfig(n_pes=4)))
        with_bus.append(
            run_once(MachineConfig(n_pes=4, trace_bus=TraceBus())))
    assert min(with_bus) <= min(plain) * 1.4, (plain, with_bus)
