"""E18 (extension) — the experiment the paper asks for (§1.2.2).

"Kmap, the communications controller, was actually a context-switching
processor which could tolerate the long-latency remote memory references.
Unfortunately, the processors (LSI-11s) could not perform similar
low-level context switches during a remote reference.  *It would be
interesting to speculate on the behavior of Cm\\* if micro-tasking
processors had been used.*"

We run that speculation: the Cm* locality sweep with HEP-style
multithreaded computer modules (K contexts per processor).  Micro-tasking
recovers most of the utilization lost to remote references — but only by
multiplying contexts, which is exactly the unbounded-context treadmill of
Issue 1 (see E9); and the recovered throughput then saturates the shared
Kmaps/intercluster bus instead.
"""

from repro.analysis import Table
from repro.exp import Experiment, row_at
from repro.machines import registry

FRACTIONS = [0.0, 0.1, 0.2, 0.35, 0.5]
CONTEXTS = [1, 2, 4, 8]


#: Machine shape and references per computer module of every run.
N_CLUSTERS = 2
CLUSTER_SIZE = 2
N_REFS = 40


def run_point(config):
    """Utilization at one remote fraction, one value per K in
    ``CONTEXTS``."""
    model = registry.create("cmstar", n_clusters=N_CLUSTERS,
                            cluster_size=CLUSTER_SIZE)
    return [model.run(remote_fraction=config["remote_fraction"],
                      n_refs=N_REFS, remote_kind="intercluster",
                      contexts=k).metric("utilization")
            for k in CONTEXTS]


def _assemble(experiment, values):
    table = Table(
        "E18  Cm* with micro-tasking processors (the §1.2.2 speculation)",
        ["remote fraction"] + [f"util K={k}" for k in CONTEXTS],
        notes=[
            f"{N_CLUSTERS} clusters x {CLUSTER_SIZE} modules, "
            "inter-cluster victims",
            "K = hardware contexts per computer module (K=1 is the real Cm*)",
        ],
    )
    for config, utils in zip(experiment.grid, values):
        table.add_row(config["remote_fraction"], *utils)
    return table


SWEEPS = {"e18_cmstar_microtasking": Experiment(
    name="e18_cmstar_microtasking",
    run=run_point,
    grid=[{"remote_fraction": fraction} for fraction in FRACTIONS],
    assemble=_assemble,
)}


_at = row_at("remote fraction")

#: The paper's claims, read off the table (fractions 0, 0.1, 0.5; K=1, 4).
CLAIMS = {"e18_cmstar_microtasking": {
    # Micro-tasking recovers utilization while latency is the problem ...
    "contexts_recover_latency": lambda rows: all(
        _at(rows, f)["util K=4"] > 1.5 * _at(rows, f)["util K=1"]
        for f in (0.0, 0.1)),
    # ... but once remote traffic saturates the shared Kmaps/intercluster
    # bus, extra contexts buy nothing: the bottleneck has moved.
    "bottleneck_moves_to_bus": lambda rows: (
        _at(rows, 0.5)["util K=4"] < 1.2 * _at(rows, 0.5)["util K=1"]
        and _at(rows, 0.5)["util K=4"] < _at(rows, 0.0)["util K=4"]),
}}
