"""Shared plumbing for the experiment benchmarks.

Every experiment module exposes ``run_experiment() -> Table`` (or a
small set of named runners), and the parallel-sweep ones additionally
declare ``SWEEPS = {table_name: repro.exp.Experiment}`` so ``repro
bench`` / ``run_all.py`` can fan their grids out across workers.  Every
module declares ``CLAIMS = {table_name: {claim_name: predicate}}``: the
*shape* of the result the paper states — who wins, by roughly what
factor, where the crossover falls — as predicates over the table's rows
(:mod:`repro.exp.claims`), mirroring the claim-by-claim records in
EXPERIMENTS.md.  Every ``repro bench`` run records their verdicts, and
``repro bench --check`` fails on a false one.

``repro bench --only eNN`` regenerates one module's tables under
``benchmarks/results/`` — a ``.txt`` rendering for humans and a
``.json`` telemetry file for tooling — through :func:`write_table`.

Cells are parsed by :func:`repro.exp.tables.parse_cell`: numeric-looking
cells — including ``"inf"``, ``"nan"``, the ``"-"`` NaN rendering, and
``"1e3x"``-style speedups — round-trip to floats instead of leaking into
the JSON telemetry as strings.
"""

import json
import os

from repro.exp.tables import table_rows

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

__all__ = ["RESULTS_DIR", "write_table"]


def write_table(table, name, meta=None):
    """Print a table and persist it under benchmarks/results/ as both
    <name>.txt (the rendering, whose path is returned) and <name>.json
    (its rows, with title, notes and ``meta`` beside them, never in
    them)."""
    text = str(table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    payload = {"name": name, "rows": table_rows(table),
               "meta": {"title": table.title, "notes": list(table.notes),
                        **(meta or {})}}
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    print(text)
    return path
