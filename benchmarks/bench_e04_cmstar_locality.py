"""E4 — Cm*: locality determines the utilization ceiling (§1.2.2).

"Greater interprocessor distances translated into longer memory reference
times and decreased processor utilization ... the effect of processor idle
time put an upper limit on the number of processors that could cooperate
on even highly parallel programs."

Sweep the remote-reference fraction for intra-cluster and inter-cluster
victims and compare against the closed-form prediction.

Ported to the sweep engine: each fraction is one pure run that measures
both victim distances on a freshly built Cm* via the machine registry.
"""

from repro.analysis import Table
from repro.exp import Experiment, row_at
from repro.machines import registry

FRACTIONS = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5]


def run_point(config):
    """Intra- and inter-cluster utilization at one remote fraction."""
    model = registry.create("cmstar", n_clusters=config["n_clusters"],
                            cluster_size=config["cluster_size"])
    intra = model.run(remote_fraction=config["fraction"],
                      remote_kind="intracluster")
    inter = model.run(remote_fraction=config["fraction"],
                      remote_kind="intercluster")
    return [
        config["fraction"],
        intra.metric("utilization"),
        inter.metric("utilization"),
        inter.metric("predicted_utilization"),
    ]


def _assemble(experiment, values):
    first = experiment.grid[0]
    table = Table(
        "E4  Cm* processor utilization vs remote-reference fraction "
        "(paper §1.2.2)",
        ["remote fraction", "util (intra-cluster)", "util (inter-cluster)",
         "model (inter)"],
        notes=[
            f"{first['n_clusters']} clusters x {first['cluster_size']} "
            "processors; every processor idles during its remote references",
        ],
    )
    for row in values:
        table.add_row(*row)
    return table


SWEEPS = {"e04_cmstar_locality": Experiment(
    name="e04_cmstar_locality",
    run=run_point,
    grid=[{"fraction": fraction, "n_clusters": 4, "cluster_size": 4}
          for fraction in FRACTIONS],
    assemble=_assemble,
)}

_at = row_at("remote fraction")

#: The paper's claims, read off the table (remote fractions 0, 0.1, 0.35).
CLAIMS = {"e04_cmstar_locality": {
    # Utilization falls with the remote fraction ...
    "utilization_falls": lambda rows: all(
        _at(rows, 0.0)[column] > _at(rows, 0.35)[column]
        for column in ("util (intra-cluster)", "util (inter-cluster)")),
    # ... and distance makes it worse: inter-cluster below intra.
    "distance_hurts": lambda rows: all(
        _at(rows, f)["util (inter-cluster)"]
        <= _at(rows, f)["util (intra-cluster)"] + 1e-9 for f in (0.1, 0.35)),
    # Even a 35% inter-cluster mix cripples the processor.
    "remote_mix_cripples": lambda rows: _at(
        rows, 0.35)["util (inter-cluster)"] < 0.45,
}}


def run_experiment():
    experiment = SWEEPS["e04_cmstar_locality"]
    return experiment.table(experiment.run_inline())
