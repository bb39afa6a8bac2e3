"""The host layer table: where the simulator's own host seconds go.

``repro profile --host [--only SUBSTRING]`` runs every cell of the
selected bench tables inline in this process under :mod:`cProfile`, and
folds each profiled function's self time and call count into its layer
(:func:`layer_of`): the module path under :mod:`repro`, cut to package
and module (``dataflow.mapping``, ``common.queueing``,
``network.base``), ``builtins`` for functions written in C, and
``stdlib/other`` for everything else (the standard library, the bench
modules).  Every profiled second lands in exactly one row, so the
shares sum to 100%.

The call counts are a property of the code path, so they repeat
exactly between two runs of the same cells once imports and
compile-time memos are warm; the seconds, and so the shares and the row
order, are host timings.
"""

import cProfile
import os
import pstats

from .bench import find_bench_dir, suite_tables

__all__ = ["format_layers", "host_profile", "layer_of"]

_REPRO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(filename):
    """The layer of a function defined in ``filename`` (cProfile gives
    C functions the file name ``~``)."""
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR + os.sep):
        return "stdlib/other"
    parts = os.path.splitext(os.path.relpath(path, _REPRO_DIR))[0]
    parts = parts.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts[:2]) or "repro"


def _run_cells(experiments):
    for experiment in experiments:
        for config in experiment.grid:
            experiment.run(config)


def host_profile(only=None, bench_dir=None):
    """Profile every cell of the bench tables whose module or table name
    contains ``only``; returns ``(tables, rows)``: the table names, and
    one ``{"layer", "seconds", "share", "calls"}`` per layer, largest
    share first."""
    from ..serve.protocol import resolve_experiment

    bench_dir = find_bench_dir(bench_dir)
    tables = [table for _module, table in suite_tables(bench_dir, only)]
    experiments = [resolve_experiment({"experiment": table,
                                       "bench_dir": bench_dir})
                   for table in tables]
    profiler = cProfile.Profile()
    profiler.runcall(_run_cells, experiments)
    layers = {}
    for (filename, _line, _name), (_primitive, calls, seconds, _cumulative,
                                   _callers) in \
            pstats.Stats(profiler).stats.items():
        row = layers.setdefault(layer_of(filename), [0.0, 0])
        row[0] += seconds
        row[1] += calls
    total = sum(seconds for seconds, _calls in layers.values()) or 1.0
    rows = [{"layer": layer, "seconds": seconds, "share": seconds / total,
             "calls": calls}
            for layer, (seconds, calls) in layers.items()]
    rows.sort(key=lambda row: (-row["seconds"], row["layer"]))
    return tables, rows


def format_layers(tables, rows):
    """The layer table as Markdown, under a line naming what ran."""
    cells = sum(row["seconds"] for row in rows)
    lines = [f"host layer table: {', '.join(tables)} "
             f"({cells:.2f} s profiled self time)",
             "",
             "| layer | share | calls |",
             "|---|---:|---:|"]
    lines += [f"| `{row['layer']}` | {row['share']:.1%} | "
              f"{row['calls']:,} |" for row in rows]
    return "\n".join(lines)
