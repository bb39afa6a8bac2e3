"""The analytic surrogate: an Amdahl/queueing feature basis per bucket.

The paper's argument is that two physical quantities — memory latency
(Issue 1) and waits for synchronization (Issue 2) — bound how well a
von Neumann multiprocessor scales.  The profiler (PR 3) measures exactly
those quantities per run as cycle-accounting buckets with an exact-sum
invariant: every unit-cycle of a run is attributed to one of
``compute / memory_stall / sync_wait / network_queue / idle`` and the
per-unit bucket means sum to the run's time.  That invariant is what
makes the surrogate well-posed: fit each bucket's per-unit mean
separately, sum the five fits, and the predicted run time decomposes the
same way the measured one does.

Model form, per (machine, workload).  A config is reduced to three
physical scales — work ``W`` (operations the workload must execute),
processors ``N``, and latency ``L`` (the machine's dominant latency
knob) — and each bucket mean is a non-negative linear combination of::

    1                      fixed per-run overhead
    W                      serial work (the Amdahl ``(1-P)`` share)
    W/N                    perfectly parallel work (the ``P/N`` share)
    L                      per-run latency cost
    L*W/N                  latency paid per unit of parallel work
    W*(N-1)/N              shared-resource crossings: the fraction of
                           references that leave the local unit grows as
                           ``(N-1)/N`` — the M/M/1-flavored contention
                           load of the UMA formulation (SNIPPETS.md
                           snippet 1)
    L*W*(N-1)/N            those crossings, each paying the latency
    W*max(0, L-N)/N        unhidden latency: N-way interleaving (HEP
                           contexts, TTDA PEs) hides up to N cycles of
                           a reference's round trip; the excess stalls
                           the pipe — the paper's Issue 1 kink

Every feature is non-negative for ``W, L >= 0`` and ``N >= 1``, and the
coefficients are constrained non-negative (NNLS), so predictions are
non-negative and monotone non-decreasing in ``L`` — the property test in
``tests/test_predict.py`` checks exactly that.

The solver is deliberately hand-rolled (scaled normal equations + a
tiny ridge + Gaussian elimination, with an active-set loop dropping
negative coefficients): pure-Python float arithmetic with a fixed
operation order is bit-reproducible across hosts, which is what lets CI
refit from scratch and ``diff`` the artifacts against the committed
ones.  ``numpy.linalg.lstsq`` would hand that determinism to whatever
LAPACK build is installed.
"""

__all__ = ["FEATURES", "feature_vector", "nnls", "round_sig",
           "solve_linear", "least_squares", "predict_buckets"]

#: Feature names, in the order :func:`feature_vector` emits them.
FEATURES = (
    "const",
    "work",
    "work_per_pe",
    "latency",
    "latency_work_per_pe",
    "contention",
    "latency_contention",
    "latency_excess",
)

#: Significant digits coefficients (and recorded errors) are rounded to
#: before an artifact is written.  Round-tripping through ``repr`` keeps
#: the JSON byte-identical across refits.
ARTIFACT_DIGITS = 12


def feature_vector(work, procs, latency):
    """The 7 basis values for one config's (W, N, L) scales."""
    n = max(1.0, float(procs))
    w = float(work)
    lat = float(latency)
    crossing = w * (n - 1.0) / n
    return [1.0, w, w / n, lat, lat * w / n, crossing, lat * crossing,
            w * max(0.0, lat - n) / n]


def round_sig(value, digits=ARTIFACT_DIGITS):
    """Round to ``digits`` significant digits (artifact stability)."""
    if value == 0:
        return 0.0
    return float(f"{value:.{digits}g}")


def solve_linear(matrix, rhs):
    """Solve a square system by Gaussian elimination, partial pivoting.

    Returns None when the system is (numerically) singular — callers
    drop a column and retry rather than accepting garbage.
    """
    k = len(rhs)
    # Work on copies; the augmented form keeps the operation order fixed.
    rows = [list(matrix[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot_row][col]) < 1e-300:
            return None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, k):
            factor = rows[r][col] / pivot
            if factor == 0.0:
                continue
            for c in range(col, k + 1):
                rows[r][c] -= factor * rows[col][c]
    out = [0.0] * k
    for col in range(k - 1, -1, -1):
        acc = rows[col][k]
        for c in range(col + 1, k):
            acc -= rows[col][c] * out[c]
        out[col] = acc / rows[col][col]
    return out


def least_squares(design, targets, ridge=1e-9):
    """min ||A x - y|| via scaled normal equations with a tiny ridge.

    Columns are scaled to unit max-abs before forming ``A^T A`` so the
    mixed-magnitude Amdahl features (1 vs ``L*W``) don't wreck the
    conditioning; the ridge keeps collinear columns (small fit grids)
    solvable and deterministic.  When the system is square the raw
    equations are solved directly (exact interpolation, no squared
    condition number).  Returns a coefficient list, or None if singular.
    """
    n_rows = len(design)
    n_cols = len(design[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return None
    scales = []
    for c in range(n_cols):
        largest = max(abs(design[r][c]) for r in range(n_rows))
        scales.append(largest if largest > 0 else 1.0)
    scaled = [[design[r][c] / scales[c] for c in range(n_cols)]
              for r in range(n_rows)]
    if n_rows == n_cols:
        solution = solve_linear(scaled, list(targets))
        if solution is None:
            return None
        return [solution[c] / scales[c] for c in range(n_cols)]
    normal = [[0.0] * n_cols for _ in range(n_cols)]
    moment = [0.0] * n_cols
    for r in range(n_rows):
        row = scaled[r]
        y = targets[r]
        for i in range(n_cols):
            moment[i] += row[i] * y
            for j in range(n_cols):
                normal[i][j] += row[i] * row[j]
    trace = sum(normal[i][i] for i in range(n_cols))
    damp = ridge * (trace / n_cols if trace > 0 else 1.0)
    for i in range(n_cols):
        normal[i][i] += damp
    solution = solve_linear(normal, moment)
    if solution is None:
        return None
    return [solution[c] / scales[c] for c in range(n_cols)]


def nnls(design, targets):
    """Non-negative least squares by a deterministic active-set loop.

    Solve unconstrained; while any coefficient is negative, zero the
    most negative one out of the active set and re-solve.  At most one
    column leaves per iteration, so the loop terminates in ``n_cols``
    steps and, unlike projected-gradient NNLS, is exactly reproducible.
    Returns a full-length coefficient list (inactive columns are 0.0).
    """
    n_cols = len(design[0]) if design else 0
    active = list(range(n_cols))
    while active:
        sub = [[row[c] for c in active] for row in design]
        solution = least_squares(sub, targets)
        if solution is None:
            # Numerically singular even with the ridge: drop the last
            # (most composite) active column and retry.
            active.pop()
            continue
        worst = min(range(len(active)), key=lambda i: solution[i])
        if solution[worst] >= -1e-12:
            out = [0.0] * n_cols
            for pos, col in enumerate(active):
                out[col] = max(0.0, solution[pos])
            return out
        active.pop(worst)
    return [0.0] * n_cols


def predict_buckets(theta_by_bucket, features):
    """Predicted per-unit mean cycles for each bucket of a fit's
    ``theta``, in ``theta``'s key order."""
    return {bucket: sum(t * f for t, f in zip(theta, features))
            for bucket, theta in theta_by_bucket.items()}
