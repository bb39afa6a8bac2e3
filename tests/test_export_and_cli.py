"""Tests for graph export (networkx/DOT), graph statistics, and the CLI."""

import io
import json
from pathlib import Path

import networkx as nx
import pytest

from repro.graph import graph_statistics, to_dot, to_networkx
from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.workloads import TRAPEZOID, compile_workload
from repro.workloads.handbuilt import build_factorial, build_sum_loop

TRAPEZOID_ID = (Path(__file__).resolve().parent.parent / "examples"
                / "programs" / "trapezoid.id")


class TestToNetworkx:
    def test_every_instruction_becomes_a_node(self):
        program, _, _ = compile_workload("trapezoid")
        graph = to_networkx(program)
        assert graph.number_of_nodes() == program.total_instructions

    def test_loop_linkage_edges_cross_blocks(self):
        program = build_sum_loop()
        graph = to_networkx(program)
        kinds = {attrs["kind"] for _, _, attrs in graph.edges(data=True)}
        assert "loop-entry" in kinds
        assert "loop-exit" in kinds

    def test_call_and_return_edges(self):
        program = build_factorial()
        graph = to_networkx(program)
        kinds = [attrs["kind"] for _, _, attrs in graph.edges(data=True)]
        assert "call" in kinds
        assert "return" in kinds

    def test_switch_false_edges_marked(self):
        program = build_sum_loop()
        graph = to_networkx(program)
        false_edges = [
            (u, v) for u, v, attrs in graph.edges(data=True)
            if attrs["kind"] == "switch-false"
        ]
        assert false_edges  # the loop exit path uses the false side

    def test_graph_is_connected_as_undirected(self):
        program, _, _ = compile_workload("pipeline")
        graph = to_networkx(program)
        assert nx.is_weakly_connected(nx.DiGraph(graph))


class TestToDot:
    def test_dot_contains_clusters_and_edges(self):
        program = build_sum_loop()
        dot = to_dot(program, title="sum")
        assert dot.startswith("digraph dataflow")
        assert "subgraph cluster_sum" in dot
        assert "subgraph cluster_sum_loop" in dot
        assert "->" in dot
        assert 'label="sum"' in dot

    def test_dot_is_parsable_bracket_balanced(self):
        program, _, _ = compile_workload("matmul")
        dot = to_dot(program)
        assert dot.count("{") == dot.count("}")


class TestGraphStatistics:
    def test_statistics_fields(self):
        program, _, _ = compile_workload("trapezoid")
        stats = graph_statistics(program)
        assert stats["instructions"] == program.total_instructions
        assert stats["arcs"] > stats["instructions"]  # fan-out exists
        assert stats["blocks"] == len(program.blocks)
        assert stats["by_class"]["tag"] > 0
        assert stats["static_depth"] >= 3
        assert stats["max_fan_out"] >= 2

    def test_class_counts_sum_to_total(self):
        program = build_factorial()
        stats = graph_statistics(program)
        assert sum(stats["by_class"].values()) == stats["instructions"]


class TestCli:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "trap.id"
        path.write_text(TRAPEZOID)
        return str(path)

    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_run_interpreter(self, source_file):
        code, output = self._run(
            ["run", source_file, "--entry", "trapezoid",
             "--args", "0.0", "1.0", "16", "0.0625"]
        )
        assert code == 0
        assert "result: 0.785" in output
        assert "critical_path" in output

    def test_run_machine_json(self, source_file):
        code, output = self._run(
            ["run", source_file, "--entry", "trapezoid", "--engine",
             "machine", "--pes", "2", "--args", "0.0", "1.0", "8", "0.125",
             "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["result"] == pytest.approx(0.7847, abs=1e-3)
        assert payload["time_cycles"] > 0
        assert "2 PEs" in payload["engine"]

    def test_trace_exports_one_track_per_pe(self, tmp_path):
        out = tmp_path / "trapezoid.trace.json"
        code, output = self._run(["trace", str(TRAPEZOID_ID),
                                  "--out", str(out)])
        assert code == 0 and "[chrome]" in output
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload)
        tracks = [e["args"]["name"] for e in payload["traceEvents"]
                  if e.get("ph") == "M" and e.get("name") == "thread_name"]
        assert any(track.startswith("pe") for track in tracks), tracks

    def test_graph_listing(self, source_file):
        code, output = self._run(["graph", source_file, "--entry",
                                  "trapezoid"])
        assert code == 0
        assert "procedure trapezoid" in output
        assert "L⁻¹" in output

    def test_graph_dot(self, source_file):
        code, output = self._run(["graph", source_file, "--dot"])
        assert code == 0
        assert output.startswith("digraph")

    def test_stats(self, source_file):
        code, output = self._run(["stats", source_file])
        assert code == 0
        payload = json.loads(output)
        assert payload["instructions"] > 20
        assert "by_class" in payload

    def test_machine_unknown_config_key_is_one_line_exit_2(self, capsys):
        code, output = self._run(["machine", "ttda", "--set", "bogus=1"])
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bogus" in err
        assert "n_pes" in err  # the accepted keys are listed

    def test_argument_parsing_types(self):
        from repro.cli import _parse_value

        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("hello") == "hello"


class TestWmCapacity:
    def test_finite_store_slows_the_machine(self):
        from repro.dataflow import MachineConfig, TaggedTokenMachine

        program, reference, _ = compile_workload("matmul")
        unbounded = TaggedTokenMachine(program, MachineConfig(n_pes=2))
        r1 = unbounded.run(4)
        tiny = TaggedTokenMachine(
            program,
            MachineConfig(n_pes=2, wm_capacity=8, wm_overflow_penalty=16.0),
        )
        r2 = tiny.run(4)
        assert r1.value == r2.value == reference(4)
        assert r2.time > r1.time
        assert r2.counters.get("wm_overflows", 0) > 0
        assert r1.counters.get("wm_overflows", 0) == 0
