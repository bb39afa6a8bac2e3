"""Models of the surveyed machines (S10 in DESIGN.md, §1.2 of the paper).

Every machine is constructible through one door::

    from repro.machines import registry
    model = registry.create("ultracomputer", stages=5)
    result = model.run()            # -> repro.machines.api.SimResult

Registered names: ``ttda``, ``hep``, ``cmstar``, ``cmmp``,
``ultracomputer``, ``connection_machine``, ``vliw`` — the paper's own
machine plus the six survey subjects.  Each module still documents the
measurement the paper's critique of its machine rests on:

* :mod:`cmmp` — crossbar cost scaling and semaphore overhead;
* :mod:`cmstar` — utilization vs. remote-reference fraction;
* :mod:`ultracomputer` — FETCH-AND-ADD hot spots, with/without combining;
* :mod:`vliw` — oracle static schedules, width sweeps, latency surprises;
* :mod:`connection_machine` — SIMD communication dominance; Illiac IV
  shift serialization;
* :mod:`hep` — barrel-pipeline saturation and full/empty busy-waiting
  (footnote 2);
* :mod:`ttda` — the tagged-token dataflow machine of §2, adapted to the
  same API.

The pre-registry free functions (``build_cmmp``, ``run_hotspot``,
``locality_sweep``, ...) went through one release of
``DeprecationWarning`` shims and are now gone; importing one raises
``AttributeError`` with the registry replacement spelled out.
"""

from . import registry
from .api import MachineModel, SimResult
from .cmmp import CmmpModel
from .cmstar import CmstarModel, locality_kernel
from .hep import HepModel
from .connection_machine import (
    CMConfig,
    CMResult,
    ConnectionMachine,
    IlliacIV,
)
from .ttda import TtdaModel
from .ultracomputer import UltracomputerModel, UltraResult
from .vliw import StaticSchedule, VliwModel, schedule_length

__all__ = [
    "CMConfig",
    "CMResult",
    "CmmpModel",
    "CmstarModel",
    "ConnectionMachine",
    "HepModel",
    "IlliacIV",
    "MachineModel",
    "SimResult",
    "StaticSchedule",
    "TtdaModel",
    "UltraResult",
    "UltracomputerModel",
    "VliwModel",
    "locality_kernel",
    "registry",
    "schedule_length",
]

#: Removed PR 2 deprecation shims -> the registry idiom that replaces
#: them.  One release of ``__getattr__`` guidance before the names
#: disappear entirely.
_REMOVED = {
    "build_cmmp": 'registry.create("cmmp", ...).build()',
    "crossbar_scaling_table":
        'registry.create("cmmp", n_procs=n).run("array_sum")',
    "semaphore_cost": 'registry.create("cmmp", ...).run("semaphore")',
    "build_cmstar": 'registry.create("cmstar", ...).build()',
    "locality_sweep":
        'registry.create("cmstar", ...).run(remote_fraction=f)',
    "build_hep": 'registry.create("hep", ...).build()',
    "saturation_table": 'registry.create("hep", contexts=c).run()',
    "producer_consumer_traffic":
        'registry.create("hep").run("producer_consumer")',
    "run_hotspot": 'registry.create("ultracomputer", ...).hotspot(...)',
    "hotspot_sweep": "repro.exp sweeps over registry models",
    "ConnectionMachineModel":
        'registry.create("connection_machine", ...)',
    "IlliacIVModel":
        'registry.create("connection_machine", ...)'
        '.run(workload="illiac_shifts", ...)',
    "VLIWModel": 'registry.create("vliw", ...)',
}


def __getattr__(name):
    hint = _REMOVED.get(name)
    if hint is not None:
        raise AttributeError(
            f"repro.machines.{name} was removed after its deprecation "
            f"cycle; migrate to {hint}"
        )
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
