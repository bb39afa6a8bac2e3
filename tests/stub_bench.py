"""A throwaway benchmarks directory for the ``run_suite`` tests.

:func:`stub_bench` writes a ``run_all.py`` naming the given bench
modules, a ``harness.py`` whose ``write_table`` saves each table's text
under ``results/``, and the modules themselves, then puts them first on
the import path.  ``run_suite`` and the sweep scheduler import
``run_all``/``harness`` by name, so the real benchmark modules are
swapped out of ``sys.modules`` for the stubs and back in afterwards.
"""

import contextlib
import sys

HARNESS = '''\
import os


def write_table(table, name, meta=None):
    results = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, name + ".txt"), "w") as fh:
        fh.write(str(table))
'''

#: A bench module declaring a one-cell sweep whose cell sleeps first.
SLOW_TABLE = '''\
import time

from repro.analysis import Table
from repro.exp import Experiment


def run_cell(config):
    time.sleep(config["sleep"])
    return 1


def _assemble(experiment, values):
    t = Table({name!r}, ["x"])
    t.add_row(*values)
    return t


SWEEPS = {{{name!r}: Experiment(name={name!r}, run=run_cell,
                                grid=[{{"sleep": {sleep}}}],
                                assemble=_assemble)}}
'''

#: A bench module declaring a six-cell sweep, ``stub_grid``.
GRID = '''\
import time

from repro.analysis import Table
from repro.exp import Experiment


def run_cell(config):
    time.sleep(0.05)
    return config["x"] * config["x"]


def _assemble(experiment, values):
    t = Table("stub grid", ["x", "x^2"])
    for config, value in zip(experiment.grid, values):
        t.add_row(config["x"], value)
    return t


SWEEPS = {"stub_grid": Experiment(name="stub_grid", run=run_cell,
                                  grid=[{"x": x} for x in range(6)],
                                  assemble=_assemble)}
'''

#: A bench module whose ``SWEEPS`` entry, like e20's, is a function of
#: the machine-level fault plan: one cell, ``stub_faults``, at the plan's
#: ``mem_slow_rate``.  Its note names the rate of the grid it assembles.
FAULT_AWARE = '''\
from repro.analysis import Table
from repro.exp import Experiment


def run_cell(config):
    return config["rate"]


def _assemble(experiment, values):
    t = Table("stub faults", ["rate"],
              notes=[f"rate {experiment.grid[0]['rate']:g}"])
    t.add_row(*values)
    return t


def build_sweep(plan):
    return Experiment(
        name="stub_faults", run=run_cell,
        grid=[{"rate": (plan or {}).get("mem_slow_rate", 0.9)}],
        assemble=_assemble)


SWEEPS = {"stub_faults": build_sweep}
'''


def slow_table(name, sleep):
    """Source of a one-cell bench module for table ``name``."""
    return SLOW_TABLE.format(name=name, sleep=sleep)


@contextlib.contextmanager
def stub_bench(tmp_path, monkeypatch, modules):
    """A stub ``<tmp_path>/benchmarks``; yields its path.

    ``modules`` maps a module name to ``(source, [table, ...])``, the
    module's entry in ``run_all.EXPERIMENTS``.
    """
    root = tmp_path / "benchmarks"
    root.mkdir()
    experiments = [(name, tables) for name, (_, tables) in modules.items()]
    (root / "run_all.py").write_text(f"EXPERIMENTS = {experiments!r}\n")
    (root / "harness.py").write_text(HARNESS)
    for name, (source, _) in modules.items():
        (root / f"{name}.py").write_text(source)
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.setenv("REPRO_BENCH_DIR", str(root))
    names = ("run_all", "harness", *modules)
    saved = {n: sys.modules.pop(n) for n in names if n in sys.modules}
    try:
        yield str(root)
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
