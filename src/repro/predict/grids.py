"""Which machines the surrogate covers, and the grids it is fitted on.

Each :class:`WorkloadSpec` names the tunable knobs of one
(machine, workload) pair, how a knob config becomes a simulator run
(through the machine registry — the same path ``repro machine`` and the
benchmarks use), and how the config reduces to the three physical
scales of the Amdahl/queueing basis in :mod:`.model`:

* **work** ``W`` — operations the workload must execute (``n^3`` for
  matmul, ``n^2`` for wavefront, the interval / iteration count for the
  loop workloads);
* **procs** ``N`` — the machine's processor-count knob (PEs, HEP
  contexts, C.mmp processors);
* **latency** ``L`` — the machine's dominant latency knob (network
  latency, HEP memory latency, C.mmp memory time).

The fit grids echo the committed experiment grids so the surrogate is
validated exactly where the paper's claims were reproduced: the
latency axes are e01's ``LATENCIES``, the PE axes are e10's
``PE_COUNTS``, and the trapezoid size axis is e07's ``INTERVALS`` —
each axis swept around the defaults of the corresponding experiment.
"""

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..obs.analysis.accounting import BUCKETS

__all__ = ["WorkloadSpec", "fit_grid", "fitted_machines", "machine_specs",
           "simulate_point"]

#: e01 LATENCIES / e10 PE_COUNTS / e07 INTERVALS, reused as fit axes.
E01_LATENCIES = (1, 2, 5, 10, 20, 50, 100)
E10_PE_COUNTS = (1, 2, 4, 8, 16)
E07_INTERVALS = (4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class WorkloadSpec:
    """One (machine, workload) surface the surrogate is fitted over."""

    machine: str
    name: str
    #: knob -> default value; the knob set is closed (unknown keys in a
    #: query are an error, missing ones take these defaults).
    defaults: Dict[str, Any]
    #: knob -> which committed experiment the axis echoes (provenance).
    axes: Dict[str, str]
    #: full knob configs the fit runs (deduplicated, deterministic order).
    grid: Tuple[Dict[str, Any], ...]
    simulate: Callable[[Dict[str, Any]], Any]
    #: config -> (work, procs, latency) for :func:`.model.feature_vector`.
    scales: Callable[[Dict[str, Any]], Tuple[float, float, float]]

    def fill(self, config):
        """Defaults + ``config``; rejects knobs outside the closed set."""
        unknown = sorted(set(config) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"{self.machine}/{self.name} has no knob(s) "
                f"{', '.join(unknown)} (knobs: "
                f"{', '.join(sorted(self.defaults))})")
        full = dict(self.defaults)
        full.update(config)
        for knob, value in full.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{self.machine}/{self.name} knob {knob!r} must be "
                    f"numeric, got {value!r}")
        return full

    def region(self):
        """Per-knob [min, max] box spanned by the fit grid."""
        return {
            knob: [min(cfg[knob] for cfg in self.grid),
                   max(cfg[knob] for cfg in self.grid)]
            for knob in self.defaults
        }


def _axes(defaults, **sweeps):
    """Grid = each axis swept one at a time around the defaults
    (deduplicated — the default point appears on every axis)."""
    seen = set()
    out = []
    for knob, values in sweeps.items():
        for value in values:
            config = dict(defaults)
            config[knob] = value
            key = json.dumps(config, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append(config)
    return tuple(out)


def _ttda_spec(workload, defaults, axes, grid, work):
    from ..machines import registry

    def simulate(config):
        model = registry.create("ttda", n_pes=config["n_pes"],
                                network_latency=config["network_latency"],
                                mapping="hash")
        if workload == "trapezoid":
            n = config["intervals"]
            args = (0.0, 1.0, n, 1.0 / n)
        else:
            args = (config["n"],)
        return model.run(workload=workload, args=args)

    def scales(config):
        return (work(config), config["n_pes"], config["network_latency"])

    return WorkloadSpec(machine="ttda", name=workload, defaults=defaults,
                        axes=axes, grid=grid, simulate=simulate,
                        scales=scales)


def _build_ttda():
    matmul_defaults = {"n": 5, "n_pes": 4, "network_latency": 4.0}
    wavefront_defaults = {"n": 7, "n_pes": 4, "network_latency": 4.0}
    trapezoid_defaults = {"intervals": 32, "n_pes": 4,
                          "network_latency": 4.0}
    return {
        "matmul": _ttda_spec(
            "matmul", matmul_defaults,
            axes={"n_pes": "e10_ttda_scaling",
                  "network_latency": "e01_latency_tolerance",
                  "n": "e10_ttda_scaling (workload size)"},
            grid=_axes(matmul_defaults,
                       n_pes=E10_PE_COUNTS,
                       network_latency=E01_LATENCIES,
                       n=(3, 4, 6)),
            work=lambda cfg: float(cfg["n"]) ** 3),
        "wavefront": _ttda_spec(
            "wavefront", wavefront_defaults,
            axes={"n_pes": "e10_ttda_scaling",
                  "network_latency": "e01_latency_tolerance",
                  "n": "e10_ttda_scaling (workload size)"},
            grid=_axes(wavefront_defaults,
                       n_pes=E10_PE_COUNTS,
                       network_latency=(1, 5, 20, 100),
                       n=(5, 9)),
            work=lambda cfg: float(cfg["n"]) ** 2),
        "trapezoid": _ttda_spec(
            "trapezoid", trapezoid_defaults,
            axes={"intervals": "e07_trapezoid",
                  "n_pes": "e10_ttda_scaling",
                  "network_latency": "e01_latency_tolerance"},
            grid=_axes(trapezoid_defaults,
                       intervals=E07_INTERVALS,
                       n_pes=(1, 2, 8, 16),
                       network_latency=(1, 10, 50)),
            work=lambda cfg: float(cfg["intervals"])),
    }


def _build_hep():
    from ..machines import registry

    defaults = {"contexts": 8, "latency": 8.0, "iterations": 16}

    def simulate(config):
        model = registry.create("hep", contexts=config["contexts"],
                                latency=config["latency"])
        return model.run(workload="compute_loop",
                         iterations=config["iterations"])

    def scales(config):
        # HEP runs the loop once per context, so total work scales with
        # the context count; the latency scale is the *round trip* a
        # reference pays (request + response + rendezvous — the same
        # 2L+const form e01's von Neumann utilization model uses), which
        # puts the latency_excess kink where the machine saturates:
        # interleaving hides a round trip iff it fits in one context
        # rotation.
        return (float(config["iterations"]) * config["contexts"],
                config["contexts"],
                2.0 * config["latency"] + 2.0)

    return {
        "compute_loop": WorkloadSpec(
            machine="hep", name="compute_loop", defaults=defaults,
            axes={"contexts": "e09_context_depth",
                  "latency": "e01_latency_tolerance",
                  "iterations": "e09_context_depth (workload size)"},
            grid=_axes(defaults,
                       contexts=E10_PE_COUNTS,
                       latency=E01_LATENCIES,
                       iterations=(8, 32, 64)),
            simulate=simulate, scales=scales),
    }


def _build_cmmp():
    from ..machines import registry

    defaults = {"n_procs": 16, "memory_time": 3.0, "iterations": 40}

    def simulate(config):
        model = registry.create("cmmp", n_procs=config["n_procs"],
                                memory_time=config["memory_time"])
        return model.run(workload="array_sum",
                         iterations=config["iterations"])

    def scales(config):
        return (float(config["iterations"]), config["n_procs"],
                config["memory_time"])

    return {
        "array_sum": WorkloadSpec(
            machine="cmmp", name="array_sum", defaults=defaults,
            axes={"n_procs": "e13_cmmp_crossbar",
                  "memory_time": "e01_latency_tolerance",
                  "iterations": "e13_cmmp_crossbar (workload size)"},
            grid=_axes(defaults,
                       n_procs=E10_PE_COUNTS,
                       memory_time=(1, 2, 5, 8),
                       iterations=(10, 20, 80)),
            simulate=simulate, scales=scales),
    }


_BUILDERS = {"ttda": _build_ttda, "hep": _build_hep, "cmmp": _build_cmmp}


def fitted_machines():
    """Machines the surrogate covers, in deterministic order."""
    return tuple(sorted(_BUILDERS))


def machine_specs(machine):
    """``{workload_name: WorkloadSpec}`` for one machine."""
    try:
        builder = _BUILDERS[machine]
    except KeyError:
        raise ValueError(
            f"no surrogate is defined for machine {machine!r} "
            f"(fitted machines: {', '.join(fitted_machines())})"
        ) from None
    return builder()


def fit_grid(machines=None):
    """e21's grid: one ``{"machine", "workload", **point}`` cell per fit
    point of ``machines`` (default: all fitted), workloads sorted, points
    in grid order.  Raises ``ValueError`` for a machine with no
    surrogate."""
    return [{"machine": machine, "workload": name, **point}
            for machine in (machines or fitted_machines())
            for name, spec in sorted(machine_specs(machine).items())
            for point in spec.grid]


def simulate_point(config):
    """One fit-point cell: simulate the point once and return its
    per-unit bucket means as a list in ``BUCKETS`` order.  A list, so
    the buckets still sum in that order after the result store's JSON
    round trip."""
    point = dict(config)
    spec = machine_specs(point.pop("machine"))[point.pop("workload")]
    means = spec.simulate(spec.fill(point)).bucket_means()
    return [means[bucket] for bucket in BUCKETS]
