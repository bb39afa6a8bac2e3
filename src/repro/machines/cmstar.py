"""Cm* (§1.2.2): clusters of processor/memory modules under Kmaps.

The paper's claim: "any processor making a nonlocal memory reference would
idle until the reference was completed.  Because of the hierarchical
structure, this meant that greater interprocessor distances translated
into longer memory reference times and decreased processor utilization"
— and empirically, "the effect of processor idle time put an upper limit
on the number of processors that could cooperate on even highly parallel
programs".

:class:`CmstarModel` is the registry entry point; its ``run`` reproduces
the Deminet-style measurement — processor utilization at one
remote-reference fraction — and ``contexts > 1`` builds the machine the
paper only speculates about ("It would be interesting to speculate on the
behavior of Cm* if micro-tasking processors had been used", §1.2.2).
"""

from ..analysis.metrics import von_neumann_utilization
from ..network.hierarchy import HierarchicalNetwork
from ..vonneumann.machine import VNMachine
from .api import SimResult
from .registry import register

__all__ = ["CmstarModel", "locality_kernel"]

#: Local memory block per computer module (words).
LOCAL_BLOCK = 1024


def _build_cmstar(n_clusters=4, cluster_size=4, kmap_time=3.0,
                  intercluster_time=9.0, local_time=1.0, memory_time=2.0,
                  faults=None):
    """A Cm*-shaped machine: one memory module co-located with each
    processor, clusters joined by Kmaps and an intercluster bus."""
    n = n_clusters * cluster_size
    # Ports 0..n-1 are processors, n..2n-1 their co-located memories.
    node_map = [(p // cluster_size, p % cluster_size) for p in range(n)] * 2

    def network_factory(sim, n_ports):
        assert n_ports == 2 * n
        return HierarchicalNetwork(
            sim, n_clusters, cluster_size, kmap_time=kmap_time,
            intercluster_time=intercluster_time, local_time=local_time,
            node_map=node_map, name="cmstar",
        )

    return VNMachine(
        n, memory="dancehall", n_modules=n, memory_time=memory_time,
        network_factory=network_factory, placement="blocked",
        block_size=LOCAL_BLOCK, faults=faults,
    )


def locality_kernel(pid, n_procs, cluster_size, n_refs, remote_fraction,
                    remote_kind="intercluster", think_ops=2):
    """Unrolled load kernel: ``remote_fraction`` of ``n_refs`` references
    target another computer module; the rest are local.

    ``remote_kind`` picks the victim: a neighbour in the same cluster
    (one Kmap hop) or the corresponding module of the next cluster (full
    hierarchy traversal).
    """
    local_base = pid * LOCAL_BLOCK
    if remote_kind == "intracluster":
        cluster_start = (pid // cluster_size) * cluster_size
        victim = cluster_start + (pid + 1 - cluster_start) % cluster_size
    elif remote_kind == "intercluster":
        victim = (pid + cluster_size) % n_procs
    else:
        raise ValueError(f"unknown remote_kind {remote_kind!r}")
    remote_base = victim * LOCAL_BLOCK

    lines = ["    movi r7, 0"]
    acc = 0.0
    for i in range(n_refs):
        acc += remote_fraction
        if acc >= 1.0:
            acc -= 1.0
            base = remote_base
        else:
            base = local_base
        lines.append(f"    movi r2, {base + (i % 64)}")
        lines.append("    load r3, r2, 0")
        for _ in range(think_ops):
            lines.append("    addi r7, r7, 1")
    lines.append("    halt")
    return "\n".join(lines)


@register("cmstar")
class CmstarModel:
    """Registry model: the hierarchical-cluster machine."""

    def __init__(self, n_clusters=4, cluster_size=4, kmap_time=3.0,
                 intercluster_time=9.0, local_time=1.0, memory_time=2.0,
                 faults=None):
        from ..faults import coerce_plan

        plan = coerce_plan(faults)
        self.config = {
            "n_clusters": n_clusters,
            "cluster_size": cluster_size,
            "kmap_time": kmap_time,
            "intercluster_time": intercluster_time,
            "local_time": local_time,
            "memory_time": memory_time,
        }
        # Only echoed (and only passed down) when set, so default configs
        # and every existing baseline row stay byte-identical.
        if plan is not None:
            self.config["faults"] = plan.as_dict()

    def build(self):
        """The underlying (empty) :class:`VNMachine`."""
        return _build_cmstar(**self.config)

    def _point(self, remote_fraction, n_refs, think_ops, remote_kind,
               contexts):
        """(measured utilization, closed-form prediction) at one mix."""
        config = self.config
        n = config["n_clusters"] * config["cluster_size"]
        local_rt = 2 * config["local_time"] + config["memory_time"]
        if remote_kind == "intracluster":
            remote_rt = 2 * config["kmap_time"] + config["memory_time"]
        else:
            remote_rt = (2 * (config["kmap_time"]
                              + config["intercluster_time"]
                              + config["kmap_time"])
                         + config["memory_time"])
        # cycles of useful work per reference: movi + load issue + think
        work = 2 + think_ops
        machine = self.build()
        for pid in range(n):
            source = locality_kernel(
                pid, n, config["cluster_size"], n_refs, remote_fraction,
                remote_kind=remote_kind, think_ops=think_ops,
            )
            if contexts <= 1:
                machine.add_processor(source, regs={1: pid})
            else:
                machine.add_multithreaded_processor(
                    [(source, {1: pid}) for _ in range(contexts)]
                )
        result = machine.run()
        mixed_latency = ((1 - remote_fraction) * local_rt
                         + remote_fraction * remote_rt)
        predicted = von_neumann_utilization(work, mixed_latency)
        return result.mean_utilization, predicted, machine, result

    def run(self, remote_fraction=0.0, n_refs=50, think_ops=2,
            remote_kind="intercluster", contexts=1):
        from ..obs.analysis import vn_accounting

        utilization, predicted, machine, result = self._point(
            remote_fraction, n_refs, think_ops, remote_kind, contexts)
        accounting = vn_accounting(machine, result, name=self.name)
        return SimResult(
            machine=self.name,
            config=dict(self.config),
            kernel_stats=machine.sim.kernel_stats(),
            workload={
                "remote_fraction": remote_fraction,
                "n_refs": n_refs,
                "think_ops": think_ops,
                "remote_kind": remote_kind,
                "contexts": contexts,
            },
            metrics={
                "utilization": utilization,
                "predicted_utilization": predicted,
                "n_procs": (self.config["n_clusters"]
                            * self.config["cluster_size"]),
            },
            accounting=accounting.as_dict(),
        )
