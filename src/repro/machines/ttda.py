"""The paper's own machine as a registry model: the tagged-token dataflow
multiprocessor of §2 (TTDA), wrapped in the :class:`MachineModel` API.

The real machine lives in :mod:`repro.dataflow`; this adapter gives the
sweep engine and CLI the same uniform construction/run surface the
critiqued von Neumann machines have, so an experiment grid can put
``ttda`` next to ``cmmp`` or ``hep`` and compare like with like.
"""

from .api import SimResult
from .registry import register

__all__ = ["TtdaModel"]


@register("ttda")
class TtdaModel:
    """Registry model: an N-PE tagged-token machine running a named
    workload from :mod:`repro.workloads` (or an interpreter run when
    ``n_pes`` is 0 — the unbounded-parallelism idealization)."""

    def __init__(self, n_pes=4, network_latency=4.0, mapping="hash",
                 wm_capacity=None, faults=None):
        from ..faults import coerce_plan

        self._fault_plan = coerce_plan(faults)
        self.config = {
            "n_pes": n_pes,
            "network_latency": network_latency,
            "mapping": mapping,
            "wm_capacity": wm_capacity,
        }
        # Only echo the plan when one was given, so default configs (and
        # hence every existing baseline row) stay byte-identical.
        if self._fault_plan is not None:
            self.config["faults"] = self._fault_plan.as_dict()

    def _machine_config(self):
        from ..dataflow import ByContextMapping, MachineConfig

        config = MachineConfig(
            n_pes=self.config["n_pes"],
            network_latency=self.config["network_latency"],
            wm_capacity=self.config["wm_capacity"],
            fault_plan=self._fault_plan,
        )
        if self.config["mapping"] == "context":
            config.mapping_factory = lambda n: ByContextMapping(n)
        elif self.config["mapping"] != "hash":
            raise ValueError(
                f"unknown mapping {self.config['mapping']!r} (hash, context)"
            )
        return config

    def run(self, workload="trapezoid", args=None, check=True):
        """Compile and execute ``workload``; verify against its reference.

        With ``n_pes == 0`` the workload runs on the *reference
        interpreter* (unbounded PEs, unit-time instructions) and the
        metrics are the idealized ones: critical path and average
        parallelism instead of cycles and utilization.
        """
        from ..dataflow import Interpreter, TaggedTokenMachine
        from ..workloads import compile_workload

        program, reference, default_args = compile_workload(workload)
        run_args = tuple(args) if args is not None else tuple(default_args)
        spec = {"workload": workload, "args": list(run_args)}

        accounting = None
        kernel_stats = None
        if self.config["n_pes"] == 0:
            interp = Interpreter(program)
            value = interp.run(*run_args)
            if check and reference is not None:
                assert value == reference(*run_args), (
                    f"{workload} interpreter disagrees with reference")
            metrics = {
                "value": value,
                "instructions": interp.instructions_executed,
                "critical_path": interp.critical_path,
                "average_parallelism": interp.average_parallelism(),
            }
        else:
            from ..obs.analysis import ttda_accounting

            machine = TaggedTokenMachine(program, self._machine_config())
            result = machine.run(*run_args)
            if check and reference is not None:
                assert result.value == reference(*run_args), (
                    f"{workload} machine disagrees with reference")
            metrics = {
                "value": result.value,
                "time": result.time,
                "instructions": result.instructions,
                "mean_alu_utilization": result.mean_alu_utilization,
                "tokens_network": result.counters.get("tokens_network", 0),
                "tokens_local": result.counters.get("tokens_local", 0),
            }
            if self._fault_plan is not None:
                metrics["faults_injected"] = sum(
                    value for key, value in result.counters.items()
                    if key.startswith("faults_")
                )
            accounting = ttda_accounting(machine).as_dict()
            kernel_stats = machine.sim.kernel_stats()
        return SimResult(machine=self.name, config=dict(self.config),
                         workload=spec, metrics=metrics,
                         accounting=accounting, kernel_stats=kernel_stats)
