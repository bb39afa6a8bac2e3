"""Start-up guard: the simulator imports nothing outside the standard library.

Every process the reproduction starts (the CLI, each ``repro bench`` run,
the ``repro serve`` pool) loads the same modules, so one third-party import
at module top is paid everywhere.  networkx is needed only for graph
export, which imports it on first use; the Id compiler is needed by the
machines only for the sequential von Neumann backend, which
``repro.vonneumann`` loads on first access.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TRAPEZOID = os.path.join(os.path.dirname(SRC), "examples", "programs",
                         "trapezoid.id")

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.cli, repro.exp.bench, repro.serve
from repro.machines import registry
registry.names()
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(
    name for name in loaded
    if name != "repro" and name not in sys.stdlib_module_names
)
heavy = sorted(n for n in ("networkx", "numpy", "scipy") if n in sys.modules)
print(json.dumps({"foreign": foreign, "heavy": heavy}))
"""


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_startup_loads_only_stdlib_modules():
    report = _run(_PROBE)
    assert report["foreign"] == []
    assert report["heavy"] == []


def test_machines_load_without_the_id_compiler():
    code = """
import json, sys
from repro.machines import registry
registry.names()
before = sorted(m for m in ("repro.lang", "repro.vonneumann.idl_compiler")
                if m in sys.modules)
import repro.vonneumann
exported = sorted(repro.vonneumann.__all__)
from repro.vonneumann import RESULT_ADDR, compile_to_assembly, run_sequential
from repro.vonneumann.idl_compiler import run_sequential as direct
print(json.dumps({"before": before, "same": run_sequential is direct,
                  "exported": exported,
                  "loaded": "repro.lang" in sys.modules}))
"""
    report = _run(code)
    assert report["before"] == []
    assert report["same"] and report["loaded"]
    assert {"RESULT_ADDR", "compile_to_assembly",
            "run_sequential"} <= set(report["exported"])


def test_graph_statistics_imports_networkx_on_demand():
    code = f"""
import json, sys
from repro.graph import graph_statistics
from repro.lang import compile_source
assert "networkx" not in sys.modules
with open({TRAPEZOID!r}) as fh:
    program = compile_source(fh.read())
stats = graph_statistics(program)
print(json.dumps({{"stats": stats, "loaded": "networkx" in sys.modules}}))
"""
    report = _run(code)
    assert report["loaded"]
    assert report["stats"] == {
        "instructions": 45,
        "arcs": 63,
        "by_class": {"pure": 22, "linkage": 5, "control": 6, "tag": 12},
        "max_fan_out": 5,
        "mean_fan_out": 1.4,
        "static_depth": 15,
        "blocks": 3,
    }
