"""The benchmark regression gate behind ``repro bench --check``.

A *baseline* is a committed JSON snapshot of one experiment's sweep
table (``benchmarks/baselines/<experiment>.json``).  The gate re-runs
the sweep and compares every cell against the baseline with per-metric
tolerances: simulated metrics are deterministic, so the default
tolerance is essentially exact; wall-clock columns are ignored
entirely (they measure the host, not the machines).

``check_suite`` returns a structured result the CLI renders and turns
into an exit code, so CI fails loudly on any drift — a changed cycle
count, a lost row, a renamed column — and on any paper claim
(:mod:`repro.exp.claims`) the fresh table no longer supports.
"""

import json
import math
import os

__all__ = [
    "DEFAULT_ABS_TOL",
    "DEFAULT_REL_TOL",
    "baseline_path",
    "check_suite",
    "compare_entry",
    "format_report",
    "make_baseline",
    "write_baselines",
]

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12

#: Column-name substrings that mark host-dependent metrics.
_IGNORED_MARKERS = ("wall",)


def _ignored(column):
    lowered = column.lower()
    return any(marker in lowered for marker in _IGNORED_MARKERS)


def baseline_path(baseline_dir, experiment):
    return os.path.join(baseline_dir, f"{experiment}.json")


def _entry_rows(entry):
    """The entry's data as lists in column order.

    The bench runner ships rows as ``{column: value}`` dicts
    (:func:`repro.exp.tables.table_rows`); plain sequences pass through.
    """
    columns = list(entry["columns"])
    rows = []
    for row in entry["data"]:
        if isinstance(row, dict):
            rows.append([row.get(column) for column in columns])
        else:
            rows.append(list(row))
    return rows


def make_baseline(entry, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL):
    """Baseline payload for one telemetry entry from the bench runner."""
    return {
        "experiment": entry["experiment"],
        "columns": list(entry["columns"]),
        "rows": _entry_rows(entry),
        "tolerances": {"rel": rel_tol, "abs": abs_tol},
    }


def write_baselines(aggregate, baseline_dir, rel_tol=DEFAULT_REL_TOL,
                    abs_tol=DEFAULT_ABS_TOL):
    """Write one baseline file per entry; returns the paths written."""
    os.makedirs(baseline_dir, exist_ok=True)
    paths = []
    for entry in aggregate:
        path = baseline_path(baseline_dir, entry["experiment"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(make_baseline(entry, rel_tol, abs_tol), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def _values_match(fresh, base, rel_tol, abs_tol):
    if isinstance(fresh, (int, float)) and not isinstance(fresh, bool) \
            and isinstance(base, (int, float)) and not isinstance(base, bool):
        # Non-finite cells get exact semantics, never tolerance
        # arithmetic: a table "-" parses to NaN (tables.parse_cell), so
        # NaN vs NaN compares clean and NaN vs a number is a drift; inf
        # vs inf of the same sign is equal (the naive |a-b| <= tol path
        # computes inf-inf = NaN and would flag two identical "infx"
        # cells as drift), inf vs anything else is a drift.
        if math.isnan(fresh) or math.isnan(base):
            return math.isnan(fresh) and math.isnan(base)
        if math.isinf(fresh) or math.isinf(base):
            return fresh == base
        return abs(fresh - base) <= abs_tol + rel_tol * max(abs(fresh),
                                                            abs(base))
    return fresh == base


def compare_entry(entry, baseline, rel_tol=None, abs_tol=None):
    """Compare one fresh telemetry entry against its baseline.

    Returns a list of diff dicts (empty means clean).  Tolerances
    default to the ones recorded in the baseline file.
    """
    tolerances = baseline.get("tolerances", {})
    rel = tolerances.get("rel", DEFAULT_REL_TOL) if rel_tol is None else rel_tol
    abs_ = tolerances.get("abs", DEFAULT_ABS_TOL) if abs_tol is None else abs_tol

    diffs = []
    columns = list(entry["columns"])
    base_columns = list(baseline["columns"])
    if columns != base_columns:
        diffs.append({
            "experiment": entry["experiment"], "kind": "columns",
            "fresh": columns, "baseline": base_columns,
        })
        return diffs

    rows = _entry_rows(entry)
    base_rows = baseline["rows"]
    if len(rows) != len(base_rows):
        diffs.append({
            "experiment": entry["experiment"], "kind": "rows",
            "fresh": len(rows), "baseline": len(base_rows),
        })
        return diffs

    for index, (row, base_row) in enumerate(zip(rows, base_rows)):
        for column, fresh, base in zip(columns, row, base_row):
            if _ignored(column):
                continue
            if not _values_match(fresh, base, rel, abs_):
                diffs.append({
                    "experiment": entry["experiment"], "kind": "cell",
                    "row": index, "column": column,
                    "fresh": fresh, "baseline": base,
                })
    return diffs


def check_suite(aggregate, baseline_dir, rel_tol=None, abs_tol=None):
    """Check every entry's claims, and its table against its committed
    baseline.

    Returns ``{"checked", "missing", "diffs", "claims", "ok"}`` —
    ``missing`` lists experiments that ran but have no baseline file
    (not a failure: new experiments land before their baselines do);
    ``claims`` maps ``experiment.claim`` to whether it holds, and each
    failed one is also a diff of kind ``"claim"`` carrying the reason.
    """
    checked = []
    missing = []
    diffs = []
    claims = {}
    for entry in aggregate:
        for name, verdict in entry.get("claims", {}).items():
            claim = f"{entry['experiment']}.{name}"
            claims[claim] = verdict is True
            if verdict is not True:
                diffs.append({"experiment": entry["experiment"],
                              "kind": "claim", "claim": claim,
                              "error": verdict})
        path = baseline_path(baseline_dir, entry["experiment"])
        if not os.path.exists(path):
            missing.append(entry["experiment"])
            continue
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        checked.append(entry["experiment"])
        diffs.extend(compare_entry(entry, baseline, rel_tol, abs_tol))
    return {"checked": checked, "missing": missing, "diffs": diffs,
            "claims": claims, "ok": not diffs}


def format_report(result):
    """Human-readable rendering of a :func:`check_suite` result."""
    lines = []
    status = "OK" if result["ok"] else "REGRESSION"
    lines.append(
        f"bench check: {status} — {len(result['checked'])} experiment(s) "
        f"checked, {len(result['missing'])} without baselines, "
        f"{len(result['diffs'])} diff(s), "
        f"{sum(result['claims'].values())}/{len(result['claims'])} "
        "claim(s) hold"
    )
    for name in result["missing"]:
        lines.append(f"  [no baseline] {name}")
    for diff in result["diffs"]:
        if diff["kind"] == "cell":
            lines.append(
                f"  [diff] {diff['experiment']} row {diff['row']} "
                f"{diff['column']!r}: fresh {diff['fresh']!r} != "
                f"baseline {diff['baseline']!r}"
            )
        elif diff["kind"] == "claim":
            lines.append(f"  [claim] {diff['claim']} failed: "
                         f"{diff['error']}")
        elif diff["kind"] == "rows":
            lines.append(
                f"  [diff] {diff['experiment']}: {diff['fresh']} row(s), "
                f"baseline has {diff['baseline']}"
            )
        else:
            lines.append(
                f"  [diff] {diff['experiment']}: columns changed — fresh "
                f"{diff['fresh']!r} vs baseline {diff['baseline']!r}"
            )
    return "\n".join(lines)
