"""The paper's claims (``CLAIMS`` in each bench module) against the
committed baseline tables, and their path through ``repro bench
--check``."""

import importlib
import io
import json
import os

import pytest

from repro.analysis import Table
from repro.cli import main
from repro.exp.bench import suite_tables, table_entry
from repro.exp.claims import evaluate_claims
from repro.obs.analysis import check_suite

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")
BASELINES = os.path.join(BENCH_DIR, "baselines")
TABLES = {table: module for module, table in suite_tables(BENCH_DIR)}
E01 = "e01_latency_tolerance"


def _baseline(table):
    """``(columns, rows)`` of a committed baseline, rows as dicts."""
    with open(os.path.join(BASELINES, f"{table}.json"),
              encoding="utf-8") as fh:
        baseline = json.load(fh)
    columns = baseline["columns"]
    return columns, [dict(zip(columns, row)) for row in baseline["rows"]]


def _verdicts(table, rows):
    return evaluate_claims(importlib.import_module(TABLES[table]), table,
                           rows)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_every_claim_holds_on_its_baseline(table):
    rows = _baseline(table)[1]
    verdicts = _verdicts(table, rows)
    assert verdicts, f"{table} declares no claim"
    assert all(verdict is True for verdict in verdicts.values()), verdicts
    # No claim is vacuous or reads a row that is not the one it names:
    # with no rows, or every row doubled, each one fails.
    for broken in ([], rows * 2):
        assert all(verdict.startswith("LookupError: ")
                   for verdict in _verdicts(table, broken).values())


def test_swapped_slowdowns_fail_a_named_claim():
    columns, rows = _baseline(E01)
    swap = {"vN slowdown": "dataflow slowdown",
            "dataflow slowdown": "vN slowdown"}
    table = Table("E1", columns)
    for row in rows:
        table.add_row(*(row[swap.get(column, column)] for column in columns))
    err = io.StringIO()
    entry = table_entry(TABLES[E01], E01, table, None, {}, err)
    assert entry["claims"]["vn_slows_down"] is not True
    assert entry["claims"]["vn_util_collapses"] is True
    assert f"[CLAIM FAILED] {E01}.vn_slows_down" in err.getvalue()
    result = check_suite([entry], BASELINES)
    assert not result["ok"]
    assert result["claims"][f"{E01}.vn_slows_down"] is False
    assert f"{E01}.vn_slows_down" in [
        diff["claim"] for diff in result["diffs"] if diff["kind"] == "claim"]


CLAIMS = ('CLAIMS = {"claimed": {"x_is_one": lambda rows: rows[0]["x"] == 1,'
          ' "x_is_two": lambda rows: rows[0]["x"] == 2}}\n')
FALSE = "the predicate is false on the table"


# Claims describe the fault-free tables: a run under a machine-level
# fault plan (e20's --faults with its own levels) records none.
@pytest.mark.parametrize("faults,code,claims", [
    (None, 1, {"x_is_one": True, "x_is_two": FALSE}),
    ({"seed": 11, "mem_slow_rate": 0.9, "mem_slow_cycles": 64.0,
      "levels": [0, 64]}, 0, {})], ids=["fault-free", "faulted"])
def test_cli_check_exits_1_on_a_failed_claim(tmp_path, monkeypatch, faults,
                                             code, claims):
    from stub_bench import slow_table, stub_bench

    modules = {"bench_claimed": (slow_table("claimed", 0) + CLAIMS,
                                 ["claimed"])}
    check_out = tmp_path / "check.json"
    argv = ["bench", "--jobs", "0", "--no-cache", "--check",
            "--baseline-dir", str(tmp_path / "baselines"),
            "--check-out", str(check_out)]
    if faults:
        (tmp_path / "plan.json").write_text(json.dumps(faults))
        argv += ["--faults", str(tmp_path / "plan.json")]
    with stub_bench(tmp_path, monkeypatch, modules) as bench_dir:
        assert main(argv + ["--bench-dir", bench_dir],
                    out=io.StringIO()) == code
    result = json.loads(check_out.read_text())
    assert result["claims"] == {f"claimed.{name}": verdict is True
                                for name, verdict in claims.items()}
    assert [diff["kind"] for diff in result["diffs"]] == ["claim"] * code
    entry, = json.loads(
        (tmp_path / "BENCH_results.json").read_text())["experiments"]
    assert entry["claims"] == claims
