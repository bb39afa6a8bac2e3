"""Simulation-as-a-service: a sweep scheduler with a durable store.

``repro serve`` turns the experiment engine into a long-running
service — the paper's latency-tolerance argument applied to our own
pipeline.  A persistent worker pool (:mod:`~repro.serve.scheduler`)
executes sweep cells, one copy each, with timeout and worker-failure
recovery; a content-addressed SQLite store (:mod:`~repro.serve.store`)
answers repeat sweeps without simulating; a stdlib asyncio HTTP front
end (:mod:`~repro.serve.server`) and client (:mod:`~repro.serve.client`)
carry the JSON protocol (:mod:`~repro.serve.protocol`).  ``repro bench``
runs on the same pool and store.

The public names resolve on first access (PEP 562), so importing one
submodule — ``repro bench`` needs only the scheduler and the store —
does not pull in the HTTP client and server.

See ``docs/SERVICE.md`` for the API reference and deployment notes.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_PORT": "protocol",
    "FlightRecorder": "protocol",
    "ProtocolError": "protocol",
    "ServeClient": "client",
    "ServeError": "client",
    "ServerThread": "server",
    "SqliteStore": "store",
    "SweepRequest": "protocol",
    "SweepScheduler": "scheduler",
    "default_store_path": "store",
    "open_store": "store",
    "remote_suite": "client",
    "run_server": "server",
    "sweep_trace": "trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
