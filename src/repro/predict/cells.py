"""Experiment-cell surrogates: predicting whole sweep rows.

The machine surrogate answers "how long would this run take"; serve's
predict-mode sweeps need more — the full *row value* a grid cell would
produce (e07's ``[n, value, reference, error, instructions,
critical_path, avg_parallelism]``).  For experiments whose grid sweeps
one numeric axis, each output column is fitted independently over the
committed grid:

* constant columns are stored verbatim (exact);
* columns that are exactly the ratio of two other columns (e07's
  ``avg parallelism = instructions / critical path``) are stored as the
  column-index pair and recomputed from the fitted numerator and
  denominator;
* integer columns get a polynomial fit plus rounding (exact as long as
  the fit lands within 0.5 — the fitter refuses otherwise);
* float columns get the polynomial fit directly.

The basis ``[1, x, x^2, 1/x, 1/x^2, 1/x^4]`` matches both growth
(instruction counts, linear-ish in the axis) and quadrature convergence
(e07's error column shrinks as ``1/n^2`` with an ``1/n^4``
Euler–Maclaurin tail); with e07's six grid points it is a square system
— exact interpolation, so the predicted table matches simulation to
:data:`CELL_TOLERANCE_REL`, the documented tolerance the CI serve leg
asserts.  The fitter *enforces* that bound on the training grid and
refuses to write an artifact that violates it.
"""

import importlib
import json
import os

from .model import least_squares, round_sig

__all__ = ["CELL_EXPERIMENTS", "CELL_TOLERANCE_ABS", "CELL_TOLERANCE_REL",
           "CellSurrogate", "cells_path", "fit_cells", "load_cells",
           "write_cells"]

FORMAT = 1

#: Experiments with committed cell surrogates.
CELL_EXPERIMENTS = ("e07_trapezoid",)

#: The documented accuracy of a predicted row against simulation; the
#: fitter refuses to write an artifact whose training error exceeds it,
#: and the CI serve leg compares a predict-mode table against the
#: simulated baseline with exactly these tolerances.
CELL_TOLERANCE_REL = 1e-6
CELL_TOLERANCE_ABS = 1e-9

#: Basis feature names over the single numeric axis value ``x``.
CELL_BASIS = ("1", "x", "x^2", "1/x", "1/x^2", "1/x^4")


def _cell_features(x):
    x = float(x)
    return [1.0, x, x * x, 1.0 / x, 1.0 / (x * x), 1.0 / (x ** 4)]


def cells_path(fits_dir, experiment):
    return os.path.join(fits_dir, f"exp_{experiment}.json")


def resolve_benchmark(name, bench_dir=None):
    """The registered sweep :class:`~repro.exp.Experiment` for a
    ``run_all.EXPERIMENTS`` table name (the path ``repro bench`` uses)."""
    from ..exp.bench import build_experiment, find_bench_dir, suite_tables

    for module_name, fn_name, out_name in suite_tables(
            find_bench_dir(bench_dir)):
        if out_name == name:
            module = importlib.import_module(module_name)
            experiment, is_sweep = build_experiment(module, fn_name, out_name)
            if not is_sweep:
                raise ValueError(
                    f"experiment {name!r} is not a sweep — no grid "
                    "axis to fit a cell surrogate over")
            return experiment
    raise ValueError(f"no benchmark table named {name!r} in run_all")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rel_err(predicted, actual):
    scale = max(abs(actual), CELL_TOLERANCE_ABS / CELL_TOLERANCE_REL)
    return abs(predicted - actual) / scale


def fit_cells(experiment):
    """Fit the cell surrogate payload for a single-axis sweep experiment.

    Runs the grid inline (the engine-free path) and fits every output
    column; raises ``ValueError`` when the experiment's shape is not
    coverable (multi-axis grid, non-list values, a non-constant
    non-numeric column) or when any training-point error exceeds the
    documented tolerance.
    """
    keys = {tuple(sorted(config)) for config in experiment.grid}
    if len(keys) != 1:
        raise ValueError(f"{experiment.name!r}: grid configs disagree on "
                         "their key sets")
    varying = [key for key in keys.pop()
               if len({json.dumps(cfg[key]) for cfg in experiment.grid}) > 1]
    if len(varying) != 1:
        raise ValueError(
            f"{experiment.name!r}: cell surrogates cover exactly one "
            f"numeric grid axis, found {varying!r}")
    axis = varying[0]
    xs = [config[axis] for config in experiment.grid]
    if not all(_is_num(x) for x in xs):
        raise ValueError(f"{experiment.name!r}: axis {axis!r} is not numeric")
    constants = {key: experiment.grid[0][key] for key in experiment.grid[0]
                 if key != axis}

    values = experiment.run_inline()
    if not all(isinstance(v, (list, tuple)) for v in values):
        raise ValueError(
            f"{experiment.name!r}: cell values are not rows (lists)")
    width = {len(v) for v in values}
    if len(width) != 1:
        raise ValueError(f"{experiment.name!r}: ragged cell rows")
    n_cols = width.pop()
    table = [list(v) for v in values]

    all_features = [_cell_features(x) for x in xs]
    if len(xs) < len(CELL_BASIS):
        all_features = [f[:len(xs)] for f in all_features]

    columns = []
    worst = 0.0
    pending = []  # columns whose direct poly fit missed tolerance
    for j in range(n_cols):
        col = [row[j] for row in table]
        if all(v == col[0] for v in col):
            columns.append({"kind": "const", "value": col[0]})
            continue
        if not all(_is_num(v) for v in col):
            raise ValueError(
                f"{experiment.name!r}: column {j} is neither constant "
                "nor numeric — not coverable by a surrogate")
        coef = least_squares(all_features, [float(v) for v in col])
        kind = "int" if all(_is_int(v) for v in col) else "float"
        error = None
        if coef is not None:
            coef = [round_sig(c) for c in coef]
            error = 0.0
            for feats, actual in zip(all_features, col):
                predicted = sum(c * f for c, f in zip(coef, feats))
                if kind == "int":
                    predicted = round(predicted)
                error = max(error, _rel_err(predicted, actual))
        if coef is None or error > CELL_TOLERANCE_REL:
            columns.append(None)
            pending.append((j, kind, error))
            continue
        worst = max(worst, error)
        columns.append({"kind": kind, "coef": coef})

    # Fallback pass: a column the polynomial basis cannot reach (e07's
    # avg parallelism — a ratio of two fitted quantities) may be the
    # exact ratio of two *directly fitted* columns; it is then served by
    # recomputing that ratio from the fitted numerator and denominator.
    for j, kind, poly_error in pending:
        ratio = _find_ratio(table, j, n_cols,
                            usable=[i for i, c in enumerate(columns)
                                    if c is not None
                                    and c["kind"] != "ratio"])
        if ratio is None:
            detail = ("singular" if poly_error is None
                      else f"relative error {poly_error:.3g}")
            raise ValueError(
                f"{experiment.name!r}: column {j} ({kind}) trains to "
                f"{detail}, beyond the documented tolerance "
                f"{CELL_TOLERANCE_REL:g}, and is no ratio of fitted "
                "columns — surrogate refused")
        columns[j] = {"kind": "ratio", "num": ratio[0], "den": ratio[1]}
        for row_idx, feats in enumerate(all_features):
            row = _eval_row(columns, feats)
            error = _rel_err(row[j], table[row_idx][j])
            worst = max(worst, error)
            if error > CELL_TOLERANCE_REL:
                raise ValueError(
                    f"{experiment.name!r}: ratio column {j} reproduces to "
                    f"relative error {error:.3g}, beyond "
                    f"{CELL_TOLERANCE_REL:g} — surrogate refused")

    return {
        "format": FORMAT,
        "experiment": experiment.name,
        "axis": axis,
        "constants": constants,
        "region": [min(xs), max(xs)],
        "basis": list(CELL_BASIS),
        "columns": columns,
        "tolerance": {"rel": CELL_TOLERANCE_REL, "abs": CELL_TOLERANCE_ABS},
        "train_error": {"max_rel": round_sig(worst),
                        "points": len(xs)},
    }


def _find_ratio(table, j, n_cols, usable=None):
    """A column pair (num, den) whose exact ratio reproduces column j."""
    candidates = range(n_cols) if usable is None else usable
    for num in candidates:
        for den in candidates:
            if num == j or den == j or num == den:
                continue
            if not all(_is_num(row[num]) and _is_num(row[den])
                       and row[den] != 0 for row in table):
                continue
            if all(_rel_err(row[num] / row[den], row[j]) <= 1e-12
                   for row in table):
                return (num, den)
    return None


def _eval_row(columns, features):
    row = [None] * len(columns)
    for j, column in enumerate(columns):
        kind = column["kind"]
        if kind == "const":
            row[j] = column["value"]
        elif kind in ("int", "float"):
            value = sum(c * f for c, f in zip(column["coef"], features))
            row[j] = round(value) if kind == "int" else value
    for j, column in enumerate(columns):
        if column["kind"] == "ratio":
            row[j] = row[column["num"]] / row[column["den"]]
    return row


class CellSurrogate:
    """Serve one experiment's fitted rows."""

    def __init__(self, payload):
        self.experiment = payload["experiment"]
        self.axis = payload["axis"]
        self.constants = payload.get("constants", {})
        self.region = payload["region"]
        self.columns = payload["columns"]

    def value(self, config):
        """The predicted row for a grid config, or None when the config
        is outside the fitted region (or sets unexpected keys)."""
        config = dict(config)
        if self.axis not in config:
            return None
        x = config.pop(self.axis)
        if not _is_num(x):
            return None
        for key, expected in self.constants.items():
            if config.pop(key, expected) != expected:
                return None
        if config:
            return None
        low, high = self.region
        if not low <= x <= high:
            return None
        return _eval_row(self.columns, _cell_features(x))


def write_cells(payload, fits_dir):
    from .artifacts import render

    os.makedirs(fits_dir, exist_ok=True)
    path = cells_path(fits_dir, payload["experiment"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render(payload))
    return path


def load_cells(fits_dir, experiment):
    """Parsed surrogate for an experiment, or None when not fitted."""
    path = cells_path(fits_dir, experiment)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"cell surrogate {path} has format {payload.get('format')!r}, "
            f"this build reads format {FORMAT}")
    return CellSurrogate(payload)
