"""A rendered table's cells back as values, for the telemetry JSON and
the paper's claims.

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

__all__ = ["parse_cell", "table_rows"]


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
