"""A hierarchical registry over the existing measurement primitives.

Every machine model already records measurements: ``Counter`` bundles,
``UtilizationTracker``/``TimeWeighted`` instances from
:mod:`repro.common.stats`, latency ``Histogram``s inside networks, and
the served count, busy time and queue depth each ``FifoServer`` keeps
in its own slots.  Hot paths keep their counts and time-weighted levels
in their owners' slots too, behind a ``SlotCounter`` or a
``TimeWeightedView``/``UtilizationView`` that reads them when asked.  What was missing is one place that knows where they
all live.  ``MetricsRegistry`` holds *references* to live instruments
under hierarchical dotted names (``pe0.alu``, ``net.latency``,
``proc3``) and renders them all with a single
:meth:`snapshot` call into a flat, JSON-ready, deterministically ordered
dict — no instrument is copied or wrapped, so registering costs nothing
during the simulation itself.

Machines expose a ``metrics_registry()`` method that builds one of these
on demand; see docs/OBSERVABILITY.md for the full name catalogue.
"""

from ..common.queueing import FifoServer
from ..common.stats import (Counter, Histogram, TimeWeighted,
                            TimeWeightedView, UtilizationTracker,
                            UtilizationView)

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Dotted-name catalogue of live instruments with one ``snapshot()``."""

    def __init__(self):
        self._entries = {}

    # ------------------------------------------------------------------
    def register(self, name, instrument):
        """Attach ``instrument`` under ``name``.  Duplicate names are an
        error — a registry describes one machine, and one unit cannot be
        two things."""
        if name in self._entries:
            raise ValueError(f"metric name {name!r} already registered")
        self._entries[name] = instrument
        return instrument

    def register_counters(self, prefix, counter):
        """Sugar for the ubiquitous ``Counter`` bundles."""
        return self.register(prefix, counter)

    def names(self):
        return sorted(self._entries)

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    # ------------------------------------------------------------------
    def snapshot(self, now=None):
        """Flatten every registered instrument into ``{name: value}``.

        ``now`` supplies the observation instant that utilization and
        time-weighted means need; instruments that do not use it ignore
        it.  Keys are emitted sorted, so two identical runs produce
        identical snapshots (dict equality *and* iteration order).
        """
        flat = {}
        for name in sorted(self._entries):
            self._render(flat, name, self._entries[name], now)
        # Sub-keys (.count/.mean/...) are appended in render order; sort
        # the whole mapping so iteration order is reproducible too.
        return dict(sorted(flat.items()))

    def _render(self, flat, name, instrument, now):
        if isinstance(instrument, Counter):
            for key, value in sorted(instrument.as_dict().items()):
                flat[f"{name}.{key}"] = value
        elif isinstance(instrument, Histogram):
            flat[f"{name}.count"] = instrument.count
            flat[f"{name}.mean"] = instrument.mean
            flat[f"{name}.min"] = instrument.min
            flat[f"{name}.max"] = instrument.max
        elif isinstance(instrument, (TimeWeighted, TimeWeightedView)):
            flat[f"{name}.mean"] = instrument.mean(end_time=now)
            flat[f"{name}.max"] = instrument.max
            flat[f"{name}.current"] = instrument.current
        elif isinstance(instrument, (UtilizationTracker, UtilizationView)):
            flat[f"{name}.operations"] = instrument.operations
            flat[f"{name}.busy"] = instrument.busy_time(now)
            if now is not None:
                flat[f"{name}.utilization"] = instrument.utilization(now)
        elif isinstance(instrument, FifoServer):
            flat[f"{name}.served"] = instrument.items_served
            flat[f"{name}.queue_mean"] = instrument.queue_mean(end_time=now)
            flat[f"{name}.queue_max"] = instrument.queue_max
            flat[f"{name}.busy"] = instrument.busy_time(now)
            if now is not None:
                flat[f"{name}.utilization"] = instrument.utilization(now)
        elif callable(instrument):
            flat[name] = instrument()
        else:
            flat[name] = instrument

    def __repr__(self):
        return f"<MetricsRegistry entries={len(self._entries)}>"
