"""Command-line interface: compile, inspect, run and trace Id-like programs.

::

    python -m repro run program.id --args 0.0 1.0 32 0.03125
    python -m repro run program.id --engine machine --pes 8 --latency 10
    python -m repro run program.id --engine machine --metrics metrics.json
    python -m repro trace program.id --out run.trace.json   # open in Perfetto
    python -m repro graph program.id            # text listing (Fig 2-2 style)
    python -m repro graph program.id --dot      # Graphviz DOT on stdout
    python -m repro stats program.id            # structural statistics
    python -m repro profile program.id --engine machine   # causal profile
    python -m repro profile program.id --flow flow.json   # Perfetto overlay
    python -m repro bench --jobs 4 --only e07   # parallel experiment sweep
    python -m repro bench --only e07 --check    # regression gate vs baseline
    python -m repro machine                     # list registered machines
    python -m repro machine ultracomputer --set stages=5 --workload spacing=0.5
    python -m repro serve --workers 4           # simulation-as-a-service
    python -m repro submit e07_trapezoid        # run a sweep on the server
    python -m repro sweeps                      # list the server's sweeps
    python -m repro sweeps sw0001 --trace t.json  # sweep Chrome trace
    python -m repro top                         # live /metrics dashboard
    python -m repro cache stats                 # inspect the result store

The entry procedure defaults to the first ``def`` in the file; override
with ``--entry``.
"""

import argparse
import json
import sys

from .dataflow import Interpreter, MachineConfig, TaggedTokenMachine
from .graph import format_program, graph_statistics, optimize_program, to_dot
from .lang import compile_source
from .obs import ChromeTraceSink, JsonlSink, TraceBus
from .serve.protocol import DEFAULT_PORT as SERVE_DEFAULT_PORT

__all__ = ["main", "build_parser"]


def _parse_value(text):
    """Interpret a CLI argument as int, float, bool, or bare string."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tagged-token dataflow tools (Arvind & Iannucci, 1983)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile and execute a program")
    run.add_argument("file", help="Id-like source file")
    run.add_argument("--entry", default=None, help="entry procedure name")
    run.add_argument("--args", nargs="*", default=[],
                     help="arguments for the entry procedure")
    run.add_argument("--engine", choices=("interp", "machine", "vn"),
                     default="interp",
                     help="execution engine (vn = sequential von Neumann "
                          "backend, integer programs only)")
    run.add_argument("--pes", type=int, default=4,
                     help="PE count (machine engine)")
    run.add_argument("--latency", type=float, default=4.0,
                     help="network latency in cycles (machine engine)")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")
    run.add_argument("--optimize", action="store_true",
                     help="run the peephole optimizer before executing")
    run.add_argument("--profile", action="store_true",
                     help="print the parallelism profile "
                          "(interpreter engine only)")
    run.add_argument("--metrics", metavar="FILE", default=None,
                     help="dump a metrics snapshot as JSON (any engine)")
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="write a JSONL event trace (timed engines: "
                          "machine, vn)")

    trace = sub.add_parser(
        "trace",
        help="run on the timed machine and export an event timeline",
    )
    trace.add_argument("file", help="Id-like source file")
    trace.add_argument("--out", required=True,
                       help="output path for the trace file")
    trace.add_argument("--entry", default=None)
    trace.add_argument("--args", nargs="*", default=[])
    trace.add_argument("--engine", choices=("machine", "vn"),
                       default="machine")
    trace.add_argument("--pes", type=int, default=4)
    trace.add_argument("--latency", type=float, default=4.0)
    trace.add_argument("--optimize", action="store_true")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="chrome = trace_event JSON for Perfetto / "
                            "chrome://tracing; jsonl = one event per line")

    graph = sub.add_parser("graph", help="print the compiled dataflow graph")
    graph.add_argument("file")
    graph.add_argument("--entry", default=None)
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz DOT instead of a text listing")
    graph.add_argument("--optimize", action="store_true")

    stats = sub.add_parser("stats", help="structural statistics of the graph")
    stats.add_argument("file")
    stats.add_argument("--entry", default=None)
    stats.add_argument("--optimize", action="store_true")

    profile = sub.add_parser(
        "profile",
        help="causal profile: cycle accounting + simulated critical path",
    )
    profile.add_argument("file", help="Id-like source file")
    profile.add_argument("--entry", default=None,
                         help="entry procedure (default: last def)")
    profile.add_argument("--args", nargs="*", default=[],
                         help="arguments (default: 8 per parameter)")
    profile.add_argument("--engine", choices=("machine", "vn"),
                         default="machine",
                         help="timed engine to profile")
    profile.add_argument("--pes", type=int, default=4,
                         help="PE count (machine engine)")
    profile.add_argument("--latency", type=float, default=4.0,
                         help="network latency in cycles")
    profile.add_argument("--optimize", action="store_true")
    profile.add_argument("--path-nodes", type=int, default=12,
                         metavar="N",
                         help="critical-path events to print (default 12)")
    profile.add_argument("--json", action="store_true",
                         help="emit the full profile as JSON on stdout")
    profile.add_argument("--out", metavar="FILE", default=None,
                         help="also write the profile JSON to FILE")
    profile.add_argument("--flow", metavar="FILE", default=None,
                         help="write a Chrome trace with the critical path "
                              "overlaid as flow events (open in Perfetto)")

    bench = sub.add_parser(
        "bench",
        help="run the experiment suite through the parallel sweep engine",
    )
    bench.add_argument("--only", default=None, metavar="SUBSTRING",
                       help="run only experiments whose module or table "
                            "name contains SUBSTRING")
    bench.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: cpu count; "
                            "0 = inline)")
    bench.add_argument("--no-cache", action="store_true",
                       help="ignore and do not update the result cache")
    bench.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-run timeout before terminate + one retry")
    bench.add_argument("--bench-dir", default=None, metavar="DIR",
                       help="benchmarks directory (default: auto-detect)")
    bench.add_argument("--trace", metavar="FILE", default=None,
                       help="write sweep progress events as JSONL")
    bench.add_argument("--check", action="store_true",
                       help="compare the fresh sweep against committed "
                            "baselines; exit nonzero on regression")
    bench.add_argument("--update-baselines", action="store_true",
                       help="(re)write the baseline files from this sweep")
    bench.add_argument("--baseline-dir", default=None, metavar="DIR",
                       help="baseline directory "
                            "(default: <benchmarks>/baselines)")
    bench.add_argument("--check-out", metavar="FILE", default=None,
                       help="write the structured check result as JSON")
    bench.add_argument("--faults", metavar="PLAN", default=None,
                       help="fault-plan JSON file; fault-aware sweeps "
                            "(e20) read it (and its optional 'levels' "
                            "list) while building their grids")
    bench.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="result store, shared with repro serve and "
                            "repro cache (default: $REPRO_STORE or "
                            "~/.cache/repro/store.sqlite)")
    bench.add_argument("--remote", default=None, metavar="URL",
                       help="run the suite against a repro serve "
                            "instance instead of in-process; tables are "
                            "still assembled and written locally")

    serve = sub.add_parser(
        "serve",
        help="run the sweep service: HTTP server + persistent worker "
             "pool + durable result store",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help=f"TCP port (default {SERVE_DEFAULT_PORT}; "
                            "0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="pool size (default: cpu count)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="result store, shared with repro bench and "
                            "repro cache (default: $REPRO_STORE or "
                            "~/.cache/repro/store.sqlite)")
    serve.add_argument("--no-store", action="store_true",
                       help="serve without a durable store (every cell "
                            "is always simulated)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-attempt timeout (covers worker "
                            "startup and the run itself)")
    serve.add_argument("--retries", type=int, default=None, metavar="N",
                       help="default retry budget per cell")
    serve.add_argument("--bench-dir", default=None, metavar="DIR",
                       help="benchmarks directory (default: auto-detect)")
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="write scheduler events as JSONL")

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a repro serve instance and (by default) "
             "wait for the table",
    )
    submit.add_argument("experiment", nargs="?", default=None,
                        help="a run_all table name, e.g. e07_trapezoid")
    submit.add_argument("--url", default=None, metavar="URL",
                        help="server address (default: $REPRO_SERVE_URL "
                             f"or 127.0.0.1:{SERVE_DEFAULT_PORT})")
    submit.add_argument("--callable", dest="callable_", default=None,
                        metavar="MODULE:FUNCTION",
                        help="inline sweep run function (needs --grid)")
    submit.add_argument("--grid", metavar="FILE", default=None,
                        help="JSON file with a list of config objects "
                             "overriding the experiment's grid")
    submit.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-plan JSON file (machine-level "
                             "fields + worker_crash_rate chaos)")
    submit.add_argument("--no-store", action="store_true",
                        help="skip store lookups; every cell is freshly "
                             "simulated (results still stored)")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS", help="per-attempt timeout")
    submit.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget per cell")
    submit.add_argument("--label", default=None,
                        help="free-form label echoed in sweep listings")
    submit.add_argument("--detach", action="store_true",
                        help="print the sweep id and exit without "
                             "waiting")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress per-event progress lines")
    submit.add_argument("--json", action="store_true",
                        help="print the final status snapshot as JSON "
                             "instead of the table")

    sweeps = sub.add_parser(
        "sweeps",
        help="list or inspect sweeps on a repro serve instance",
    )
    sweeps.add_argument("id", nargs="?", default=None,
                        help="sweep id (omit to list all sweeps)")
    sweeps.add_argument("--url", default=None, metavar="URL",
                        help="server address (default: $REPRO_SERVE_URL "
                             f"or 127.0.0.1:{SERVE_DEFAULT_PORT})")
    sweeps.add_argument("--events", action="store_true",
                        help="dump the sweep's progress events")
    sweeps.add_argument("--table", action="store_true",
                        help="print the sweep's assembled table")
    sweeps.add_argument("--trace", metavar="FILE", default=None,
                        help="fetch the sweep's Chrome trace and write "
                             "it to FILE (open in Perfetto)")
    sweeps.add_argument("--json", action="store_true",
                        help="machine-readable output")

    top = sub.add_parser(
        "top",
        help="live worker/queue/sweep status of a repro serve "
             "instance, polled from its /metrics endpoint",
    )
    top.add_argument("url", nargs="?", default=None, metavar="URL",
                     help="server address (default: $REPRO_SERVE_URL "
                          f"or 127.0.0.1:{SERVE_DEFAULT_PORT})")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between polls (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N polls (default: until Ctrl-C)")
    top.add_argument("--json", action="store_true",
                     help="emit one parsed metrics snapshot per poll "
                          "as JSON lines instead of the dashboard")

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed result store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry/byte counts per experiment")
    cache_prune = cache_sub.add_parser(
        "prune", help="drop entries older than a cutoff")
    cache_prune.add_argument("--older-than", required=True,
                             metavar="DURATION",
                             help="age cutoff, e.g. 30m, 12h, 7d, 2w "
                                  "(bare numbers are seconds)")
    cache_clear = cache_sub.add_parser(
        "clear", help="drop every entry")
    for sub_parser in (cache_stats, cache_prune, cache_clear):
        sub_parser.add_argument(
            "--store", default=None, metavar="PATH",
            help="store path, shared with repro bench and repro serve "
                 "(default: $REPRO_STORE or ~/.cache/repro/store.sqlite)")
        sub_parser.add_argument("--json", action="store_true",
                                help="machine-readable output")

    machine = sub.add_parser(
        "machine",
        help="construct a registered machine model and run one workload",
    )
    machine.add_argument("name", nargs="?", default=None,
                         help="registry name (omit to list the registry)")
    machine.add_argument("--set", dest="config", nargs="*", default=[],
                         metavar="KEY=VALUE",
                         help="constructor config, e.g. stages=5")
    machine.add_argument("--workload", nargs="*", default=[],
                         metavar="KEY=VALUE",
                         help="run() arguments, e.g. workload=graph rounds=4")
    machine.add_argument("--faults", metavar="PLAN", default=None,
                         help="fault-plan JSON file passed to the model "
                              "as faults=...")
    machine.add_argument("--json", action="store_true",
                         help="emit the SimResult as JSON")

    predict = sub.add_parser(
        "predict",
        help="answer a machine-config query in microseconds from the "
             "fitted Amdahl/queueing surrogate (no simulation)",
    )
    predict.add_argument("machine_name", nargs="?", default=None,
                         metavar="MACHINE",
                         help="fitted machine (omit to list fits)")
    predict.add_argument("query", nargs="*", default=[],
                         metavar="KEY=VALUE",
                         help="workload=NAME plus knob overrides, e.g. "
                              "workload=matmul n_pes=8 network_latency=20")
    predict.add_argument("--fit", action="store_true",
                         help="(re)fit the machine surrogates from "
                              "simulation and write the artifacts, then "
                              "exit")
    predict.add_argument("--validate", action="store_true",
                         help="sweep fit-vs-simulation error over the "
                              "fitted grids; nonzero exit when the "
                              "documented bounds are exceeded")
    predict.add_argument("--extrapolate", action="store_true",
                         help="answer out-of-region queries anyway "
                              "(default: refuse with exit code 2)")
    predict.add_argument("--fits-dir", default=None, metavar="DIR",
                         help="fit-artifact directory (default: "
                              "<benchmarks>/fits)")
    predict.add_argument("--json", action="store_true",
                         help="machine-readable output")
    return parser


def _load(path, entry, optimize=False):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    program = compile_source(source, entry=entry)
    if optimize:
        program = optimize_program(program)
    return program


def _make_trace_bus(options):
    """(bus, sink) for ``run --trace FILE``; (None, None) when off."""
    trace_path = getattr(options, "trace", None)
    if trace_path is None:
        return None, None
    if options.engine == "interp":
        raise SystemExit(
            "--trace needs a timed engine (the interpreter has no clock); "
            "use --engine machine or --engine vn"
        )
    bus = TraceBus()
    sink = bus.add_sink(JsonlSink(trace_path))
    return bus, sink


def _write_metrics(options, snapshot, out):
    path = getattr(options, "metrics", None)
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    print(f"metrics: {len(snapshot)} value(s) -> {path}", file=out)


def _execute(options, args, bus):
    """Run ``options.file`` on the timed engine ``options.engine``
    (``vn`` or ``machine``); returns ``(value, result, machine)``."""
    if options.engine == "vn":
        from .vonneumann import run_sequential

        with open(options.file, "r", encoding="utf-8") as fh:
            source = fh.read()
        return run_sequential(source, tuple(args), entry=options.entry,
                              latency=options.latency, trace_bus=bus,
                              return_machine=True)
    program = _load(options.file, options.entry, options.optimize)
    config = MachineConfig(n_pes=options.pes,
                           network_latency=options.latency,
                           trace_bus=bus)
    machine = TaggedTokenMachine(program, config)
    result = machine.run(*args)
    return result.value, result, machine


def _cmd_run(options, out):
    args = [_parse_value(a) for a in options.args]
    bus, trace_sink = _make_trace_bus(options)
    if options.engine == "interp":
        program = _load(options.file, options.entry, options.optimize)
        interp = Interpreter(program)
        value = interp.run(*args)
        payload = {
            "result": value,
            "engine": "interpreter",
            "instructions": interp.instructions_executed,
            "critical_path": interp.critical_path,
            "average_parallelism": round(interp.average_parallelism(), 3),
        }
        snapshot = {
            "engine": "interp",
            "instructions": interp.instructions_executed,
            "critical_path": interp.critical_path,
            "average_parallelism": interp.average_parallelism(),
        }
    elif options.engine == "vn":
        value, result, _machine = _execute(options, args, bus)
        payload = {
            "result": value,
            "engine": f"von Neumann uniprocessor [latency "
                      f"{options.latency}]",
            "time_cycles": result.time,
            "instructions": result.instructions,
            "utilization": round(result.mean_utilization, 4),
        }
        snapshot = {
            "engine": "vn",
            "time_cycles": result.time,
            "instructions": result.instructions,
            "utilization": result.mean_utilization,
        }
        snapshot.update(
            {f"counters.{k}": v for k, v in sorted(result.counters.items())}
        )
    else:
        value, result, machine = _execute(options, args, bus)
        payload = {
            "result": value,
            "engine": f"machine[{options.pes} PEs, latency "
                      f"{options.latency}]",
            "time_cycles": result.time,
            "instructions": result.instructions,
            "mean_alu_utilization": round(result.mean_alu_utilization, 4),
            "network_tokens": result.counters.get("tokens_network", 0),
        }
        snapshot = machine.metrics_snapshot()
        snapshot["engine"] = "machine"
    if options.json:
        print(json.dumps(payload), file=out)
    else:
        print(f"result: {payload.pop('result')!r}", file=out)
        for key, value in payload.items():
            print(f"  {key}: {value}", file=out)
    if trace_sink is not None:
        trace_sink.close()
        print(f"trace: {trace_sink.written} event(s) -> {options.trace}",
              file=out)
    _write_metrics(options, snapshot, out)
    if options.engine == "interp" and getattr(options, "profile", False):
        print("parallelism profile (instructions ready per step):", file=out)
        profile = interp.parallelism_profile
        peak = max(profile.values())
        for step in sorted(profile):
            count = profile[step]
            bar = "#" * max(1, round(40 * count / peak))
            print(f"  t={step:<5} {bar} {count}", file=out)
    return 0


DEMO_ARGUMENT = 8  # stands in for omitted `trace` arguments


def _trace_defaults(options):
    """Fill in entry/args so a bare ``repro trace file --out t.json`` works.

    With no ``--entry``, trace the *last* procedure in the file — demo
    files define helpers first and the interesting program last (for
    ``run`` the historical first-def default stands).  With no ``--args``,
    every parameter gets :data:`DEMO_ARGUMENT`, a value small enough to
    finish fast and large enough to drive loops around a few times.
    """
    from .lang import parse

    with open(options.file, "r", encoding="utf-8") as fh:
        ast = parse(fh.read())
    entry = options.entry
    if entry is None:
        entry = ast.defs[-1].name
    args = [_parse_value(a) for a in options.args]
    if not args:
        definition = next(d for d in ast.defs if d.name == entry)
        args = [DEMO_ARGUMENT] * len(definition.params)
    return entry, args


def _cmd_trace(options, out):
    """Run on a timed engine with a trace sink and export the timeline."""
    entry, args = _trace_defaults(options)
    options.entry = entry
    bus = TraceBus()
    if options.format == "chrome":
        sink = bus.add_sink(ChromeTraceSink())
    else:
        sink = bus.add_sink(JsonlSink(options.out))
    value, result, _machine = _execute(options, args, bus)
    if options.format == "chrome":
        sink.write(options.out, meta={
            "source": options.file,
            "engine": options.engine,
            "args": [repr(a) for a in args],
        })
        events = len(sink)
    else:
        sink.close()
        events = sink.written
    print(f"result: {value!r}", file=out)
    print(f"  time_cycles: {result.time}", file=out)
    print(f"  instructions: {result.instructions}", file=out)
    print(f"  trace: {events} event(s) -> {options.out} "
          f"[{options.format}]", file=out)
    if options.format == "chrome":
        print("  view: load the file at https://ui.perfetto.dev or "
              "chrome://tracing", file=out)
    return 0


def _cmd_profile(options, out):
    """Run under provenance tracing; report accounting + critical path."""
    from .obs import RingSink
    from .obs.analysis import (build_profile, chrome_flow_events,
                               ttda_accounting, vn_accounting)

    entry, args = _trace_defaults(options)
    options.entry = entry
    bus = TraceBus(provenance=True)
    ring = bus.add_sink(RingSink(limit=None))
    chrome = bus.add_sink(ChromeTraceSink()) if options.flow else None

    value, result, machine = _execute(options, args, bus)
    accounting = (vn_accounting(machine, result, name="vn")
                  if options.engine == "vn" else ttda_accounting(machine))
    meta = {
        "source": options.file,
        "engine": options.engine,
        "entry": entry,
        "args": [repr(a) for a in args],
        "result": value,
        "time_cycles": result.time,
        "instructions": result.instructions,
        "kernel_stats": machine.sim.kernel_stats(),
    }
    report = build_profile(ring.events, accounting, meta=meta)
    if options.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True,
                         default=repr), file=out)
    else:
        print(report.format(max_path_nodes=options.path_nodes), file=out)
        print("event kernel:", file=out)
        for key, stat in sorted(meta["kernel_stats"].items()):
            print(f"  {key}: {stat}", file=out)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True,
                      default=repr)
            fh.write("\n")
        print(f"profile json -> {options.out}", file=out)
    if chrome is not None:
        if report.path is not None:
            chrome.extend(chrome_flow_events(report.path, chrome.tid_of,
                                             cycle_us=chrome.cycle_us))
        chrome.write(options.flow, meta={
            "source": options.file,
            "engine": options.engine,
            "args": [repr(a) for a in args],
        })
        print(f"flow trace: {len(chrome)} event(s) -> {options.flow}",
              file=out)
        print("  view: load the file at https://ui.perfetto.dev or "
              "chrome://tracing", file=out)
    return 0


def _cmd_graph(options, out):
    program = _load(options.file, options.entry, options.optimize)
    if options.dot:
        print(to_dot(program, title=options.file), file=out)
    else:
        print(format_program(program), file=out)
    return 0


def _cmd_stats(options, out):
    program = _load(options.file, options.entry, options.optimize)
    print(json.dumps(graph_statistics(program), indent=2, sort_keys=True),
          file=out)
    return 0


def _parse_kv(pairs, what):
    """``["a=1", "b=true"]`` -> {"a": 1, "b": True} with typed values."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"{what} arguments must be KEY=VALUE, "
                             f"got {pair!r}")
        key, _, value = pair.partition("=")
        out[key] = _parse_value(value)
    return out


def _cmd_bench(options, out):
    """Run the benchmark suite through the repro.exp sweep engine."""
    from .exp.bench import run_suite
    from .obs import JsonlSink, TraceBus

    bus = None
    sink = None
    if options.trace:
        bus = TraceBus()
        sink = bus.add_sink(JsonlSink(options.trace))
    if options.remote:
        from .serve.client import remote_suite

        aggregate = remote_suite(
            options.remote,
            only=options.only,
            bench_dir=options.bench_dir,
            faults=options.faults,
            timeout=options.timeout,
        )
    else:
        aggregate = run_suite(
            only=options.only,
            jobs=options.jobs,
            no_cache=options.no_cache,
            timeout=options.timeout,
            bench_dir=options.bench_dir,
            cache_dir=options.cache_dir,
            bus=bus,
            faults=options.faults,
        )
    if sink is not None:
        sink.close()
        print(f"sweep trace: {sink.written} event(s) -> {options.trace}",
              file=out)
    status = 1 if aggregate["failures"] else 0
    if options.update_baselines or options.check:
        import os

        from .exp.bench import find_bench_dir
        from .obs.analysis import check_suite, format_report, write_baselines

        baseline_dir = options.baseline_dir or os.path.join(
            find_bench_dir(options.bench_dir), "baselines")
        entries = aggregate["experiments"]
        if options.update_baselines:
            paths = write_baselines(entries, baseline_dir)
            print(f"baselines: {len(paths)} file(s) -> {baseline_dir}",
                  file=out)
        if options.check:
            result = check_suite(entries, baseline_dir)
            print(format_report(result), file=out)
            if options.check_out:
                with open(options.check_out, "w", encoding="utf-8") as fh:
                    json.dump(result, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"check result -> {options.check_out}", file=out)
            if not result["ok"]:
                status = 1
    return status


def _serve_url(options):
    import os

    return (options.url or os.environ.get("REPRO_SERVE_URL")
            or f"127.0.0.1:{SERVE_DEFAULT_PORT}")


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
                   "w": 7 * 86400.0}


def _parse_duration(text):
    """``"30m"`` / ``"12h"`` / ``"7d"`` / ``"3600"`` -> seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        return float(text) * unit
    except ValueError:
        raise SystemExit(
            f"bad duration {text!r}: use a number with an optional "
            "s/m/h/d/w suffix, e.g. 30m or 7d") from None


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_serve(options, out):
    """Run the sweep service until SIGINT, SIGTERM or POST /shutdown."""
    import signal

    from .serve.server import run_server

    bus = None
    trace = None
    if options.trace:
        # Line-buffered: the trace can be read while the server runs.
        trace = open(options.trace, "w", encoding="utf-8", buffering=1)
        bus = TraceBus()
        bus.add_sink(JsonlSink(trace))
    # SIGTERM takes the SIGINT path: the pool drains and no worker is
    # left behind as an orphan.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return run_server(
            host=options.host,
            port=(SERVE_DEFAULT_PORT if options.port is None
                  else options.port),
            workers=options.workers,
            store_path=options.store,
            no_store=options.no_store,
            timeout=options.timeout,
            retries=options.retries,
            bench_dir=options.bench_dir,
            bus=bus,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
        if trace is not None:
            trace.close()


def _submit_request(options):
    request = {}
    if options.experiment:
        request["experiment"] = options.experiment
    if options.callable_:
        request["callable"] = options.callable_
    if options.grid:
        with open(options.grid, "r", encoding="utf-8") as fh:
            request["grid"] = json.load(fh)
    if options.faults:
        with open(options.faults, "r", encoding="utf-8") as fh:
            request["faults"] = json.load(fh)
    if options.no_store:
        request["no_store"] = True
    if options.timeout is not None:
        request["timeout"] = options.timeout
    if options.retries is not None:
        request["retries"] = options.retries
    if options.label:
        request["label"] = options.label
    return request


def _cmd_submit(options, out):
    """Submit one sweep; print its table (stdout) when it finishes."""
    from .serve.client import ServeClient, ServeError

    client = ServeClient(_serve_url(options))
    request = _submit_request(options)
    if not request.get("experiment") and not request.get("callable"):
        raise SystemExit("submit needs an experiment name (e.g. "
                         "e07_trapezoid) or --callable")
    try:
        submitted = client.submit(request)
        sweep_id = submitted["id"]
        if options.detach:
            print(sweep_id, file=out)
            return 0

        def on_event(event):
            if options.quiet:
                return
            print(f"  [{sweep_id}] {event.get('kind')}: "
                  f"{event.get('detail', '')}", file=sys.stderr)

        status = client.wait(sweep_id, on_event=on_event)
        if options.json:
            print(json.dumps(status, indent=2, sort_keys=True,
                             default=repr), file=out)
            return 0 if (status["state"] == "done"
                         and not status["failed"]) else 1
        if status["state"] != "done" or status["failed"]:
            for row in status.get("records", []):
                if row["status"] != "ok":
                    print(f"[FAILED] {status['experiment']}"
                          f"[{row['index']}] {row['status']} after "
                          f"{row['attempts']} attempt(s):\n"
                          f"{row['error']}", file=sys.stderr)
            return 1
        # The table prints with a trailing newline — byte-identical to
        # the benchmarks/results/<name>.txt a local bench run writes.
        print(client.table(sweep_id), end="", file=out)
        stats = status["stats"]
        print(f"[{sweep_id}] {status['experiment']}: "
              f"{status['cells']} cell(s), "
              f"{stats['store_hits']} from store, "
              f"{stats['executed']} simulated, "
              f"{status['wall_seconds']:.2f}s", file=sys.stderr)
        return 0
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {_serve_url(options)}: {exc} "
              "(is `repro serve` running?)", file=sys.stderr)
        return 1


def _cmd_sweeps(options, out):
    """List or inspect sweeps on the server."""
    from .serve.client import ServeClient, ServeError

    client = ServeClient(_serve_url(options))
    try:
        if options.id is None:
            sweeps = client.sweeps()
            if options.json:
                print(json.dumps(sweeps, indent=2, sort_keys=True,
                                 default=repr), file=out)
                return 0
            if not sweeps:
                print("no sweeps", file=out)
                return 0
            for sweep in sweeps:
                label = f"  [{sweep['label']}]" if sweep.get("label") \
                    else ""
                print(f"  {sweep['id']}  {sweep['state']:<8} "
                      f"{sweep['experiment']:<24} "
                      f"{sweep['completed']}/{sweep['cells']} cells "
                      f"({sweep['cached']} cached) "
                      f"{sweep['wall_seconds']:.2f}s{label}", file=out)
            return 0
        if options.table:
            print(client.table(options.id), end="", file=out)
            return 0
        if options.trace:
            payload = client.trace(options.id)
            with open(options.trace, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, default=repr)
                fh.write("\n")
            print(f"trace: {len(payload['traceEvents'])} event(s) -> "
                  f"{options.trace}", file=out)
            print("  view: load the file at https://ui.perfetto.dev or "
                  "chrome://tracing", file=out)
            return 0
        if options.events:
            chunk = client.events(options.id, since=0, timeout=0.0)
            for event in chunk["events"]:
                print(json.dumps(event, sort_keys=True, default=repr),
                      file=out)
            return 0
        status = client.status(options.id)
        if options.json:
            print(json.dumps(status, indent=2, sort_keys=True,
                             default=repr), file=out)
            return 0
        for key in ("id", "experiment", "label", "state", "cells",
                    "completed", "ok", "failed", "cached",
                    "wall_seconds"):
            print(f"  {key}: {status[key]}", file=out)
        for key, value in sorted(status["stats"].items()):
            print(f"  stats.{key}: {value}", file=out)
        return 0
    except ServeError as exc:
        print(f"sweeps failed: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {_serve_url(options)}: {exc} "
              "(is `repro serve` running?)", file=sys.stderr)
        return 1


def _top_frame(client):
    """One poll: (parsed-metrics dict, active-sweeps list)."""
    from .obs.live import parse_prometheus

    parsed = parse_prometheus(client.metrics())
    sweeps = [s for s in client.sweeps()
              if s.get("state") in ("queued", "running")]
    return parsed, sweeps


def _metric(parsed, name, default=0.0, **labels):
    key = (f"repro_{name}",
           tuple(sorted(labels.items())) if labels else ())
    return parsed.get(key, default)


def _sum_metric(parsed, name):
    """Sum a family over all its label sets (e.g. a status label)."""
    return sum(v for (n, _labels), v in parsed.items()
               if n == f"repro_{name}")


def _cmd_top(options, out):
    """Poll ``/metrics`` and render a one-screen live dashboard."""
    import time as _time

    from .serve.client import ServeClient

    client = ServeClient(_serve_url(options))
    previous = None
    iteration = 0
    try:
        while True:
            try:
                parsed, active = _top_frame(client)
            except (ConnectionError, OSError) as exc:
                print(f"cannot reach {_serve_url(options)}: {exc} "
                      "(is `repro serve` running?)", file=sys.stderr)
                return 1
            iteration += 1
            if options.json:
                snapshot = {f"{name}{dict(labels) or ''}": value
                            for (name, labels), value
                            in sorted(parsed.items())}
                print(json.dumps(snapshot, sort_keys=True), file=out)
            else:
                executed = _metric(parsed, "cells_executed_total")
                hits = _metric(parsed, "cells_store_hit_total")
                rate = ""
                if previous is not None:
                    dt = max(1e-9, _time.monotonic() - previous[0])
                    per_s = ((executed + hits) - previous[1]) / dt
                    rate = f"  {per_s:.1f} cells/s"
                previous = (_time.monotonic(), executed + hits)
                alive = _metric(parsed, "workers_alive")
                busy = _metric(parsed, "workers_busy")
                print(f"-- repro top @ {_serve_url(options)} "
                      f"[poll {iteration}] --", file=out)
                print(f"  workers: {busy:g}/{alive:g} busy "
                      f"(spawned {_metric(parsed, 'workers_spawned_total'):g}, "
                      f"deaths {_metric(parsed, 'worker_deaths_total'):g})",
                      file=out)
                print(f"  queue:   {_metric(parsed, 'queue_depth'):g} "
                      f"cell(s) queued, "
                      f"{_metric(parsed, 'sweeps_active'):g} sweep(s) "
                      "active", file=out)
                print(f"  cells:   {executed:g} executed, {hits:g} from "
                      f"store, "
                      f"{_metric(parsed, 'cells_requeued_total'):g} "
                      f"requeued, "
                      f"{_metric(parsed, 'cell_timeouts_total'):g} "
                      f"timeouts{rate}", file=out)
                print(f"  predict: "
                      f"{_metric(parsed, 'predict_requests_total'):g} "
                      "queries "
                      f"({_metric(parsed, 'predict_out_of_region_total'):g} "
                      "out of region)", file=out)
                print(f"  sweeps:  "
                      f"{_metric(parsed, 'sweeps_submitted_total'):g} "
                      "submitted, "
                      f"{_sum_metric(parsed, 'sweeps_completed_total'):g} "
                      "finished", file=out)
                for sweep in active:
                    print(f"    {sweep['id']}  {sweep['state']:<8} "
                          f"{sweep['experiment']:<24} "
                          f"{sweep['completed']}/{sweep['cells']} cells",
                          file=out)
            if options.iterations is not None \
                    and iteration >= options.iterations:
                return 0
            _time.sleep(options.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_cache(options, out):
    """Inspect / prune / clear the durable result store."""
    from .serve.store import open_store

    store = open_store(options.store)
    try:
        if options.cache_command == "stats":
            stats = store.stats()
            if options.json:
                print(json.dumps(stats, indent=2, sort_keys=True,
                                 default=repr), file=out)
                return 0
            print(f"  store: {stats['root']} [{stats['backend']}]",
                  file=out)
            print(f"  entries: {stats['entries']} "
                  f"({stats['bytes']} bytes)", file=out)
            if stats.get("oldest_age_seconds") is not None:
                print(f"  oldest: {stats['oldest_age_seconds']:.0f}s ago",
                      file=out)
            for name, entry in sorted(stats["experiments"].items()):
                print(f"    {name:<28} {entry['entries']:>5} entries "
                      f"{entry['bytes']:>10} bytes", file=out)
            return 0
        if options.cache_command == "prune":
            try:
                dropped = store.prune(_parse_duration(options.older_than))
            except ValueError as exc:
                raise SystemExit(f"repro cache prune: {exc}")
            print(f"pruned {dropped} entr"
                  f"{'y' if dropped == 1 else 'ies'} older than "
                  f"{options.older_than}", file=out)
            return 0
        if options.cache_command == "clear":
            dropped = store.clear()
            print(f"cleared {dropped} entr"
                  f"{'y' if dropped == 1 else 'ies'}", file=out)
            return 0
        raise SystemExit(f"unknown cache command "
                         f"{options.cache_command!r}")
    finally:
        store.close()


def _cmd_machine(options, out):
    """Uniformly construct and run any registered machine model."""
    import inspect

    from .machines import registry

    if options.name is None:
        for name in registry.names():
            cls = registry.get(name)
            doc = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<20} {doc}", file=out)
        return 0
    config = _parse_kv(options.config, "--set")
    if options.faults is not None:
        from .faults import coerce_plan

        config["faults"] = coerce_plan(options.faults).as_dict()
    accepted = inspect.signature(registry.get(options.name)).parameters
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        print(f"repro machine {options.name}: unknown config key"
              f"{'s' if len(unknown) > 1 else ''} {', '.join(unknown)} "
              f"(accepted: {', '.join(accepted)})", file=sys.stderr)
        return 2
    model = registry.create(options.name, **config)
    result = model.run(**_parse_kv(options.workload, "--workload"))
    if options.json:
        payload = result.as_dict()
        # Kernel telemetry rides the CLI report, not the cacheable
        # payload.
        if result.kernel_stats is not None:
            payload["kernel_stats"] = result.kernel_stats
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=repr), file=out)
    else:
        print(f"machine: {result.machine}", file=out)
        for section in ("config", "workload", "metrics"):
            print(f"  {section}:", file=out)
            for key, value in sorted(getattr(result, section).items()):
                print(f"    {key}: {value}", file=out)
        if result.kernel_stats is not None:
            print("  kernel_stats:", file=out)
            for key, value in sorted(result.kernel_stats.items()):
                print(f"    {key}: {value}", file=out)
        if result.accounting is not None:
            from .obs.analysis import BUCKETS

            acct = result.profile()
            fractions = acct.fractions()
            print(f"  accounting: window {acct.window:g} cycles x "
                  f"{acct.n_units} unit(s)", file=out)
            for bucket in BUCKETS:
                print(f"    {bucket}: {acct.totals()[bucket]:g} "
                      f"({100.0 * fractions[bucket]:.2f}%)", file=out)
    return 0


def _cmd_predict(options, out):
    """Query / fit / validate the analytic surrogate (repro.predict)."""
    from .predict import (OutOfRegionError, PredictError, PredictPlane,
                          default_fits_dir, fit_machine, fitted_machines,
                          validate_all, write_fit)

    fits_dir = options.fits_dir or default_fits_dir()

    if options.fit:
        machines = ([options.machine_name] if options.machine_name
                    else list(fitted_machines()))
        paths = []
        for machine in machines:
            paths.append(write_fit(fit_machine(machine), fits_dir))
            print(f"  fit: {machine} -> {paths[-1]}", file=sys.stderr)
        if options.json:
            print(json.dumps({"written": paths}, indent=2, sort_keys=True),
                  file=out)
        return 0

    if options.validate:
        machines = ([options.machine_name] if options.machine_name
                    else list(fitted_machines()))
        try:
            report = validate_all(machines, fits_dir)
        except ValueError as exc:
            raise SystemExit(f"repro predict --validate: {exc}")
        if options.json:
            print(json.dumps(report, indent=2, sort_keys=True), file=out)
        else:
            for entry in report["machines"]:
                overall = entry["overall"]
                flag = "ok" if entry["ok"] else "EXCEEDS BOUNDS"
                print(f"  {entry['machine']:<8} median "
                      f"{100 * overall['median_rel']:.2f}%  p95 "
                      f"{100 * overall['p95_rel']:.2f}%  max "
                      f"{100 * overall['max_rel']:.2f}%  "
                      f"({overall['points']} points)  [{flag}]", file=out)
                for name, stats in sorted(entry["workloads"].items()):
                    print(f"    {name:<14} median "
                          f"{100 * stats['median_rel']:.2f}%  p95 "
                          f"{100 * stats['p95_rel']:.2f}%", file=out)
            bounds = report["machines"][0]["bounds"] if report["machines"] \
                else {}
            print(f"  bounds: median <= "
                  f"{100 * bounds.get('median_rel', 0):.0f}%, p95 <= "
                  f"{100 * bounds.get('p95_rel', 0):.0f}%", file=out)
        return 0 if report["ok"] else 1

    plane = PredictPlane(fits_dir=fits_dir)
    if options.machine_name is None:
        described = plane.describe()
        if options.json:
            print(json.dumps(described, indent=2, sort_keys=True), file=out)
            return 0
        if not described["machines"]:
            print(f"no fit artifacts in {fits_dir} "
                  "(run `repro predict --fit`)", file=out)
            return 1
        for machine, workloads in sorted(described["machines"].items()):
            print(f"  {machine}:", file=out)
            for workload, region in sorted(workloads.items()):
                box = ", ".join(f"{knob}∈[{low:g}, {high:g}]"
                                for knob, (low, high)
                                in sorted(region.items()))
                print(f"    {workload:<14} {box}", file=out)
        return 0

    query = _parse_kv(options.query, "predict")
    try:
        answer = plane.query(options.machine_name, query,
                             extrapolate=options.extrapolate)
    except OutOfRegionError as exc:
        print(f"predict refused: {exc}", file=sys.stderr)
        return 2
    except PredictError as exc:
        print(f"predict failed: {exc}", file=sys.stderr)
        return 1
    if options.json:
        print(json.dumps(answer, indent=2, sort_keys=True), file=out)
        return 0
    print(f"machine: {answer['machine']}  workload: {answer['workload']}"
          + ("" if answer["in_region"] else "  [EXTRAPOLATED]"), file=out)
    for knob, value in sorted(answer["config"].items()):
        print(f"  {knob}: {value}", file=out)
    print(f"  predicted time: {answer['time']:.6g} cycles", file=out)
    for bucket, mean in answer["buckets"].items():
        print(f"    {bucket}: {mean:.6g}", file=out)
    err = answer["train_error"]
    print(f"  fit error over its grid: median "
          f"{100 * err['median_rel']:.2f}%, p95 "
          f"{100 * err['p95_rel']:.2f}%", file=out)
    return 0


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    options = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "graph": _cmd_graph,
        "stats": _cmd_stats,
        "bench": _cmd_bench,
        "machine": _cmd_machine,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "sweeps": _cmd_sweeps,
        "top": _cmd_top,
        "cache": _cmd_cache,
        "predict": _cmd_predict,
    }[options.command]
    try:
        return handler(options, out)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
