"""Registry of the surveyed machine models, keyed by name.

``registry.create(name, **config)`` is the one way every caller — the
sweep engine, the CLI, the benchmarks — constructs a machine model.  The
seven survey machines register themselves at import time:

=================  =====================================================
``ttda``           the paper's tagged-token dataflow machine (§2)
``hep``            Denelcor HEP barrel processor (footnote 2)
``cmstar``         Cm* hierarchical clusters (§1.2.2)
``cmmp``           C.mmp crossbar multiprocessor (§1.2.1)
``ultracomputer``  NYU Ultracomputer, combining FETCH-AND-ADD (§1.2.3)
``connection_machine``  Connection Machine / Illiac IV SIMD (§1.2.5)
``vliw``           ELI-512-style VLIW with an oracle compiler (§1.2.4)
=================  =====================================================

A *model spec* — ``{"machine": name, "config": {...}, "workload":
{...}}`` — is the JSON-friendly form the sweep engine fans out to worker
processes; :func:`run_spec` turns one into a finished ``SimResult``.
"""

from .api import SimResult

__all__ = ["register", "create", "get", "names", "run_spec"]

_MODELS = {}


def register(name):
    """Class decorator: file the model class under ``name``."""

    def apply(cls):
        if name in _MODELS:
            raise ValueError(f"machine model {name!r} already registered")
        cls.name = name
        _MODELS[name] = cls
        return cls

    return apply


def get(name):
    """The model class registered under ``name``."""
    try:
        return _MODELS[name]
    except KeyError:
        known = ", ".join(sorted(_MODELS))
        raise KeyError(
            f"no machine model named {name!r} (registered: {known})"
        ) from None


def create(name, **config):
    """Construct the model registered under ``name`` with ``config``."""
    return get(name)(**config)


def names():
    """Registered model names, sorted."""
    return sorted(_MODELS)


def run_spec(spec):
    """Run one JSON-friendly model spec; returns a :class:`SimResult`.

    ``spec`` is ``{"machine": name, "config": {...}, "workload": {...}}``
    — the shape the sweep engine stores in its grids and caches.
    """
    model = create(spec["machine"], **spec.get("config", {}))
    return model.run(**spec.get("workload", {}))


def _ensure_registered():
    """Import every machine module so its ``@register`` runs.

    Called lazily from ``repro.machines.__init__``; harmless if the
    modules are already imported.
    """
    from . import (  # noqa: F401
        cmmp,
        cmstar,
        connection_machine,
        hep,
        ttda,
        ultracomputer,
        vliw,
    )
