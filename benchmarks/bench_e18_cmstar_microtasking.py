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
from repro.exp import row_at
from repro.machines import registry

FRACTIONS = [0.0, 0.1, 0.2, 0.35, 0.5]
CONTEXTS = [1, 2, 4, 8]


def run_experiment(n_clusters=2, cluster_size=2, n_refs=40):
    table = Table(
        "E18  Cm* with micro-tasking processors (the §1.2.2 speculation)",
        ["remote fraction"] + [f"util K={k}" for k in CONTEXTS],
        notes=[
            f"{n_clusters} clusters x {cluster_size} modules, "
            "inter-cluster victims",
            "K = hardware contexts per computer module (K=1 is the real Cm*)",
        ],
    )
    model = registry.create("cmstar", n_clusters=n_clusters,
                            cluster_size=cluster_size)
    columns = []
    for k in CONTEXTS:
        columns.append([
            model.run(remote_fraction=fraction, n_refs=n_refs,
                      remote_kind="intercluster",
                      contexts=k).metric("utilization")
            for fraction in FRACTIONS
        ])
    for i, fraction in enumerate(FRACTIONS):
        table.add_row(fraction, *[col[i] for col in columns])
    return table


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
