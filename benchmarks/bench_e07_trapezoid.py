"""E7 — Figure 2-2: the trapezoidal-rule loop, compiled and executed.

The paper compiles its ID program "which integrates a function f from a to
b over n intervals of size h by the trapezoidal rule" into the loop schema
of Figure 2-2 (D, D⁻¹, L, L⁻¹, switches, a reentrant graph).  This
experiment compiles the same program with our front end, checks the
numeric answer against scipy's, and reports the graph's dynamic behaviour:
instructions, critical path, and average parallelism as the interval
count grows — the loop unfolding in tag space that justifies "given that
the program being executed is sufficiently parallel" (§2.3).

Ported to the sweep engine: each interval count is one pure run (compile,
interpret, scipy cross-check) so ``repro bench`` fans the grid out across
workers and caches converged points.  The "scipy" column is
``scipy.integrate.trapezoid`` over ``numpy.linspace`` points, computed bit
for bit by :func:`repro.workloads.linspace_trapezoid`, so the experiment
needs neither package.
"""

import math

from repro.analysis import Table
from repro.dataflow import Interpreter
from repro.exp import Experiment
from repro.lang import compile_source
from repro.machines import registry
from repro.workloads import TRAPEZOID, linspace_trapezoid

INTERVALS = [4, 8, 16, 32, 64, 128]


def integrate(n, a=0.0, b=1.0):
    program = compile_source(TRAPEZOID, entry="trapezoid")
    h = (b - a) / n
    interp = Interpreter(program)
    value = interp.run(a, b, n, h)
    return value, interp


def run_point(config):
    """One interval count: integrate, cross-check, report graph dynamics."""
    n = config["intervals"]
    value, interp = integrate(n)
    reference = linspace_trapezoid(0.0, 1.0, n)
    assert abs(value - reference) < 1e-12, "engine disagrees with scipy"
    return [
        n, value, reference, abs(value - math.pi / 4),
        interp.instructions_executed, interp.critical_path,
        interp.average_parallelism(),
    ]


def _assemble(experiment, values):
    table = Table(
        "E7  Fig 2-2: trapezoidal rule on the dataflow machine "
        "(paper §2.2.1)",
        ["intervals", "result", "scipy", "error vs pi/4", "instructions",
         "critical path", "avg parallelism"],
        notes=[
            "f(x) = 1/(1+x^2) on [0,1]; exact integral is pi/4",
            "avg parallelism = instructions / critical path (unbounded PEs)",
        ],
    )
    for row in values:
        table.add_row(*row)
    return table


def build_sweep(interval_counts=INTERVALS):
    return Experiment(
        name="e07_trapezoid",
        run=run_point,
        grid=[{"intervals": n} for n in interval_counts],
        assemble=_assemble,
    )


SWEEPS = {"e07_trapezoid": build_sweep()}


def run_experiment(interval_counts=INTERVALS):
    experiment = build_sweep(interval_counts)
    return experiment.table(experiment.run_inline())


def run_on_machine(n=32, n_pes=4):
    """The same program on the timed multi-PE machine (via the registry)."""
    h = 1.0 / n
    model = registry.create("ttda", n_pes=n_pes)
    return model.run(workload="trapezoid", args=(0.0, 1.0, n, h))


def test_e07_shape(benchmark):
    table = benchmark.pedantic(run_experiment, args=([4, 16, 64],),
                               rounds=1, iterations=1)
    errors = [float(x) for x in table.column("error vs pi/4")]
    par = [float(x) for x in table.column("avg parallelism")]
    # Quadrature converges as n grows; parallelism grows with the loop.
    assert errors[0] > errors[-1]
    assert errors[-1] < 1e-4
    assert par[-1] > par[0]
    assert par[-1] > 2.0


def test_e07_timed_machine(benchmark):
    result = benchmark.pedantic(run_on_machine, rounds=1, iterations=1)
    reference = linspace_trapezoid(0.0, 1.0, 32)
    assert abs(result.metric("value") - reference) < 1e-12
    assert result.metric("time") > 0


if __name__ == "__main__":
    from harness import write_table

    write_table(run_experiment(), "e07_trapezoid")
