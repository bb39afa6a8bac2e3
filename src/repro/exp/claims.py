"""Paper claims as predicates over a bench table's rows.

A bench module declares ``CLAIMS = {table_name: {claim_name:
predicate}}`` beside ``SWEEPS``.  A predicate takes the table's rows —
the ``{column: parsed cell}`` dicts of
:func:`repro.exp.tables.table_rows`, the ``data`` of a
``BENCH_results.json`` entry — and returns whether the claim holds.  It
reads each row through :func:`one_row`, so a claim about latency 50
never silently reads another row.  ``repro bench`` evaluates a table's
claims once it is assembled, and ``repro bench --check`` fails on a
false one.
"""

__all__ = ["evaluate_claims", "one_row", "row_at"]


def one_row(rows, where):
    """The single row whose cells equal every ``{column: value}`` in
    ``where``; raises LookupError unless exactly one row matches."""
    matches = [row for row in rows
               if all(row.get(column) == value
                      for column, value in where.items())]
    if len(matches) != 1:
        raise LookupError(f"{len(matches)} rows match {where!r}, "
                          "expected exactly 1")
    return matches[0]


def row_at(*columns):
    """``at(rows, *values)``: :func:`one_row` keyed on ``columns``."""
    return lambda rows, *values: one_row(rows, dict(zip(columns, values)))


def evaluate_claims(module, table_name, rows):
    """``{claim_name: verdict}`` for each claim a bench module declares
    for one of its tables: ``True`` when it holds on ``rows``, otherwise
    why not.  A predicate that raises (its row is gone, a column was
    renamed) is a failed claim, never a skipped one."""
    verdicts = {}
    for name, predicate in getattr(module, "CLAIMS", {}).get(
            table_name, {}).items():
        try:
            verdicts[name] = (bool(predicate(rows))
                              or "the predicate is false on the table")
        except Exception as exc:
            verdicts[name] = f"{type(exc).__name__}: {exc}"
    return verdicts
