"""The inline-sweep callable the ``serve`` workload submits.

Pool workers import it by name (``servecells:run_cell``); the benchmark
calls the same function in-process to check what the service returned.
"""


def run_cell(config):
    """One registry machine run: ``config`` is ``{"machine", "config",
    "workload"}``.  Returns the run's ``as_dict()`` plus the kernel
    events it fired."""
    from repro.machines import registry

    result = registry.create(config["machine"], **config["config"]).run(
        **config["workload"])
    value = result.as_dict()
    value["events"] = int(result.kernel_stats["events_fired"])
    return value
