"""The unified machine-model API every survey machine implements.

Before this module existed each machine exposed its own idiom —
``ultracomputer.run_hotspot`` was a free function, the Connection
Machine returned a bespoke ``CMResult``, the VLIW model handed back
ad-hoc tuples — so every caller (benchmarks, CLI, sweep engine) needed
per-machine glue.  Now there is one contract:

* :class:`MachineModel` — constructed with keyword *machine* parameters
  (``registry.create(name, **config)``), run with keyword *workload*
  parameters (``model.run(**workload)``);
* :class:`SimResult` — the shared result record: which machine, which
  config, which workload, and a flat ``metrics`` dict of measurements.

``SimResult`` is JSON-serializable (``as_dict``/``from_dict``) so the
sweep engine in :mod:`repro.exp` can cache and ship results across
process boundaries without machine-specific code.

Every model runs on the one event kernel,
:class:`repro.common.simulator.Simulator`.

(The PR 2 ``DeprecationWarning`` shims that used to live here —
``deprecated_call`` / ``suppress_deprecation`` — are gone along with
the shimmed entry points; ``repro.machines.__getattr__`` now raises
with a migration hint instead.)
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, runtime_checkable

__all__ = [
    "MachineModel",
    "SimResult",
]


@dataclass
class SimResult:
    """What one machine run measured, in machine-independent shape.

    ``metrics`` maps measurement name -> value (numbers for everything
    the paper plots; the odd string/bool for labels).  ``config`` echoes
    the constructor parameters and ``workload`` the ``run()`` arguments,
    so a ``SimResult`` is self-describing — the sweep engine stores it
    verbatim and any row of any experiment table can be rebuilt from it.
    """

    machine: str
    config: Dict[str, Any] = field(default_factory=dict)
    workload: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Optional cycle-accounting payload (the ``as_dict`` form of a
    #: :class:`repro.obs.analysis.CycleAccounting`): every unit-cycle of
    #: the run decomposed into compute / memory_stall / sync_wait /
    #: network_queue / idle.  Populated by models that can attribute
    #: their cycles; read it through :meth:`profile`.
    accounting: Optional[Dict[str, Any]] = None
    #: Optional event-kernel counters (``Simulator.kernel_stats()``):
    #: events fired and still pending.
    #: Telemetry about *this* run's engine, not part of the result:
    #: excluded from ``as_dict`` so a store-cached value never claims
    #: the engine run that happened to populate it.
    kernel_stats: Optional[Dict[str, Any]] = None

    def metric(self, name):
        """One measurement; raises KeyError naming the known metrics."""
        try:
            return self.metrics[name]
        except KeyError:
            known = ", ".join(sorted(self.metrics))
            raise KeyError(
                f"{self.machine!r} run has no metric {name!r} "
                f"(has: {known})"
            ) from None

    def profile(self):
        """The run's :class:`~repro.obs.analysis.CycleAccounting`.

        Raises ``ValueError`` when the model did not attach one (the
        error names the machine, so sweep code can give a useful
        message).
        """
        if self.accounting is None:
            raise ValueError(
                f"{self.machine!r} run carries no cycle accounting"
            )
        from ..obs.analysis import CycleAccounting

        return CycleAccounting.from_dict(self.accounting)

    def bucket_means(self):
        """Mean cycles per unit for each accounting bucket.

        The exact-sum invariant (every unit's buckets sum to the
        accounting window) means the five per-unit means sum to the
        window, i.e. to the run's time — which is what makes these the
        natural regression targets for the analytic surrogate in
        :mod:`repro.predict`: fit each bucket mean, sum the fits, and
        the prediction decomposes the predicted run time the same way
        the profiler decomposes the measured one.  Raises ``ValueError``
        when the model attached no accounting.
        """
        profile = self.profile()
        n_units = len(profile.units) or 1
        return {bucket: total / n_units
                for bucket, total in profile.totals().items()}

    def as_dict(self):
        """A plain-dict form, safe to JSON-serialize and cache."""
        payload = {
            "machine": self.machine,
            "config": dict(self.config),
            "workload": dict(self.workload),
            "metrics": dict(self.metrics),
        }
        if self.accounting is not None:
            payload["accounting"] = self.accounting
        return payload

    @classmethod
    def from_dict(cls, payload):
        return cls(
            machine=payload["machine"],
            config=dict(payload.get("config", {})),
            workload=dict(payload.get("workload", {})),
            metrics=dict(payload.get("metrics", {})),
            accounting=payload.get("accounting"),
        )


@runtime_checkable
class MachineModel(Protocol):
    """The contract a registered machine model satisfies.

    ``name`` is the registry key; ``config`` the constructor parameters
    actually in effect (defaults filled in); ``run(**workload)`` executes
    one workload and returns a :class:`SimResult`.
    """

    name: str
    config: Dict[str, Any]

    def run(self, **workload) -> SimResult:
        ...
