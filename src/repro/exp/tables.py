"""Table <-> JSON payload conversion shared by the sweep engine and the
benchmark harness.

A :class:`~repro.analysis.report.Table` renders cells as formatted
strings; the telemetry JSON wants the numbers back.  :func:`parse_cell`
is the single inverse of ``Table._format``, and it round-trips every
numeric rendering the formatter can produce:

* plain ints and floats, including scientific notation (``"1e+03"``);
* non-finite values: ``"inf"``, ``"-inf"``, ``"nan"``, and the ``"-"``
  the formatter prints for NaN, all become floats;
* speedup cells with an ``x`` suffix (``"3.2x"``, ``"1e3x"``, ``"infx"``);
* ``"yes"``/``"no"`` boolean renderings stay strings (they are labels).

Underscored digit groups (``"1_0"``) are *rejected* as numbers: Python's
``int()`` would silently read them as ``10``, mangling identifiers that
merely look numeric.
"""

import math

__all__ = ["parse_cell", "payload_to_table", "table_to_payload"]


def _cast_number(text):
    """int or float for a numeric rendering; None if it isn't one."""
    if "_" in text:  # "1_0" is a label, not the number 10
        return None
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return None


def parse_cell(cell):
    """Invert ``Table._format``: formatted cell string -> value."""
    if not isinstance(cell, str):
        return cell
    text = cell.strip()
    if text == "-":  # the formatter's rendering of NaN
        return math.nan
    number = _cast_number(text)
    if number is not None:
        return number
    if text.endswith("x"):  # speedup columns like "3.2x", "1e3x", "infx"
        number = _cast_number(text[:-1])
        if number is not None:
            return float(number)
    return text


def table_rows(table):
    """A Table's rows as a list of {column: parsed cell} dicts."""
    rows = []
    for row in table.rows:
        entry = {}
        for column, cell in zip(table.columns, row):
            entry[column] = parse_cell(cell)
        rows.append(entry)
    return rows


def table_to_payload(table):
    """A JSON-able description of a rendered table.

    ``cells`` keeps the exact formatted strings (so the table can be
    rebuilt byte-identically); ``data`` carries the parsed values for
    plotting without re-parsing.
    """
    return {
        "title": table.title,
        "columns": list(table.columns),
        "notes": list(table.notes),
        "cells": [list(row) for row in table.rows],
        "data": table_rows(table),
    }


def payload_to_table(payload):
    """Rebuild a Table from :func:`table_to_payload` output."""
    from ..analysis.report import Table

    table = Table(payload["title"], payload["columns"],
                  notes=payload.get("notes"))
    for row in payload.get("cells", []):
        # The cells are already formatted; bypass add_row's re-formatting.
        if len(row) != len(table.columns):
            raise ValueError("payload row width does not match columns")
        table.rows.append([str(cell) for cell in row])
    return table
