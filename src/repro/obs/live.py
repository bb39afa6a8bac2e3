"""Runtime telemetry for long-lived processes: the ``LiveMetrics`` layer.

The :class:`~repro.obs.registry.MetricsRegistry` describes one *machine*
— references to simulation-time instruments, snapshotted after a run.
``repro serve`` needs the complementary thing: process-lifetime counters
and gauges that several threads update concurrently (the HTTP transport,
the scheduler loop, worker-watching code) and that one endpoint renders
in the Prometheus text exposition format.  ``LiveMetrics`` is that
layer:

* **counters** — monotonically increasing totals (``inc``);
* **gauges** — set-to-current values (``set``), or *callable* gauges
  evaluated at render time (``gauge_fn``) for values that already live
  somewhere else, e.g. the content store's entry count or a
  ``MetricsRegistry.snapshot()``;
* **histograms** — fixed-bucket distributions (``observe``), rendered
  with the cumulative ``_bucket``/``_sum``/``_count`` series Prometheus
  expects.

Every instrument supports label sets (passed as a dict; stored sorted),
every update takes one lock, and :meth:`render` emits families and
label sets in sorted order so two renders of the same state are
byte-identical.  :func:`parse_prometheus` is the matching reader used by
``repro top`` and the tests — stdlib-only, like everything here.
"""

import threading

__all__ = ["LiveMetrics", "parse_prometheus", "DEFAULT_BUCKETS"]

#: Default latency buckets (seconds) — tuned for a local service where
#: requests are either instant or waiting on a long-poll/sweep.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


def _labels_key(labels):
    """Canonical, hashable form of a label dict (sorted tuple)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_text(key):
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value):
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Family:
    __slots__ = ("name", "kind", "help", "series", "buckets", "fn")

    def __init__(self, name, kind, help_text, buckets=None, fn=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series = {}  # labels_key -> value | _HistogramSeries
        self.buckets = buckets
        self.fn = fn


class _HistogramSeries:
    __slots__ = ("counts", "total", "count")

    def __init__(self, nbuckets):
        self.counts = [0] * nbuckets  # non-cumulative per-bucket counts
        self.total = 0.0
        self.count = 0


class LiveMetrics:
    """Thread-safe labeled counters/gauges/histograms with one
    deterministic Prometheus-text :meth:`render`."""

    def __init__(self, namespace="repro"):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families = {}  # full name -> _Family

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _declare(self, name, kind, help_text, buckets=None, fn=None):
        full = f"{self.namespace}_{name}" if self.namespace else name
        with self._lock:
            family = self._families.get(full)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {full!r} already declared as {family.kind}"
                    )
                return family
            family = _Family(full, kind, help_text, buckets=buckets, fn=fn)
            self._families[full] = family
            return family

    def counter(self, name, help_text=""):
        """Declare a counter family (idempotent); returns ``self``."""
        self._declare(name, "counter", help_text)
        return self

    def gauge(self, name, help_text=""):
        """Declare a gauge family (idempotent); returns ``self``."""
        self._declare(name, "gauge", help_text)
        return self

    def gauge_fn(self, name, help_text, fn):
        """Declare a callable gauge: ``fn()`` is evaluated at render time
        and must return a number or a ``{labels_dict_as_tuple: value}``
        mapping (plain number covers the common case)."""
        self._declare(name, "gauge", help_text, fn=fn)
        return self

    def histogram(self, name, help_text="", buckets=DEFAULT_BUCKETS):
        """Declare a histogram family with fixed ``buckets`` (upper
        bounds, seconds by convention); returns ``self``."""
        self._declare(name, "histogram", help_text,
                      buckets=tuple(sorted(buckets)))
        return self

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def inc(self, name, amount=1, **labels):
        """Add ``amount`` to a counter (declares it on first use)."""
        family = self._declare(name, "counter", "")
        key = _labels_key(labels)
        with self._lock:
            family.series[key] = family.series.get(key, 0) + amount

    def set(self, name, value, **labels):
        """Set a gauge to ``value`` (declares it on first use)."""
        family = self._declare(name, "gauge", "")
        key = _labels_key(labels)
        with self._lock:
            family.series[key] = value

    def observe(self, name, value, **labels):
        """Record one observation in a histogram."""
        family = self._declare(name, "histogram", "")
        if family.buckets is None:
            family.buckets = DEFAULT_BUCKETS
        key = _labels_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = _HistogramSeries(
                    len(family.buckets)
                )
            for i, bound in enumerate(family.buckets):
                if value <= bound:
                    series.counts[i] += 1
                    break
            series.total += value
            series.count += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name, **labels):
        """Current value of a counter/gauge series (0 when unset)."""
        full = f"{self.namespace}_{name}" if self.namespace else name
        key = _labels_key(labels)
        with self._lock:
            family = self._families.get(full)
            fn = family.fn if family is not None else None
            if family is None:
                return 0
            if fn is None:
                return family.series.get(key, 0)
        return fn()  # outside the lock — see render()

    def snapshot(self):
        """Flat ``{name{labels}: value}`` dict of every counter/gauge
        series (histograms appear as ``name_count``/``name_sum``),
        sorted — the test-friendly view of :meth:`render`."""
        flat = {}
        for line in self.render().splitlines():
            if not line or line.startswith("#"):
                continue
            text, _, value = line.rpartition(" ")
            flat[text] = float(value)
        return dict(sorted(flat.items()))

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self):
        """The Prometheus text exposition (version 0.0.4) of every
        family, families and label sets sorted.

        Series state is copied under the lock but callable gauges run
        *outside* it — a gauge that reads a scheduler under that
        component's own lock must never nest inside ours, or a
        concurrent updater (component lock held, waiting on ours) would
        deadlock."""
        with self._lock:
            plan = []
            for name, family in sorted(self._families.items()):
                if family.kind == "histogram":
                    series = {
                        k: (list(s.counts), s.total, s.count)
                        for k, s in family.series.items()
                    }
                else:
                    series = dict(family.series)
                plan.append((name, family.kind, family.help,
                             family.buckets, family.fn, series))
        lines = []
        for name, kind, help_text, buckets, fn, series in plan:
            lines.append(f"# HELP {name} {help_text}".rstrip())
            lines.append(f"# TYPE {name} {kind}")
            if fn is not None:
                try:
                    value = fn()
                except Exception:
                    value = float("nan")
                if isinstance(value, dict):
                    resolved = {
                        (_labels_key(k) if isinstance(k, dict) else
                         tuple(k)): v
                        for k, v in value.items()
                    }
                    for lkey in sorted(resolved):
                        lines.append(
                            f"{name}{_labels_text(lkey)} "
                            f"{_format_value(resolved[lkey])}"
                        )
                else:
                    lines.append(f"{name} {_format_value(value)}")
                continue
            if kind == "histogram":
                for lkey in sorted(series):
                    counts, total, count = series[lkey]
                    cumulative = 0
                    for bound, bucket_count in zip(buckets, counts):
                        cumulative += bucket_count
                        lines.append(
                            f"{name}_bucket{_bucket_labels(lkey, bound)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket{_bucket_labels(lkey, None)} "
                        f"{count}"
                    )
                    lines.append(
                        f"{name}_sum{_labels_text(lkey)} "
                        f"{_format_value(total)}"
                    )
                    lines.append(
                        f"{name}_count{_labels_text(lkey)} {count}"
                    )
                continue
            for lkey in sorted(series):
                lines.append(
                    f"{name}{_labels_text(lkey)} "
                    f"{_format_value(series[lkey])}"
                )
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"<LiveMetrics families={len(self._families)}>"


def _bucket_labels(lkey, bound):
    le = "+Inf" if bound is None else _format_value(float(bound))
    return _labels_text(tuple(lkey) + (("le", le),))


def parse_prometheus(text):
    """Parse a Prometheus text exposition into
    ``{(name, labels_tuple): value}``.

    ``labels_tuple`` is the sorted ``((key, value), ...)`` form used by
    :class:`LiveMetrics` internally; samples without labels use ``()``.
    Raises ``ValueError`` on malformed sample lines, so the tests use it
    as a format validator.
    """
    samples = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if not body:
            raise ValueError(f"line {lineno}: no value in {line!r}")
        labels = ()
        name = body
        if "{" in body:
            if not body.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels")
            name, _, inner = body.partition("{")
            inner = inner[:-1]
            pairs = []
            for part in filter(None, _split_labels(inner)):
                key, eq, value = part.partition("=")
                if not eq or not (
                    value.startswith('"') and value.endswith('"')
                ):
                    raise ValueError(
                        f"line {lineno}: bad label {part!r}"
                    )
                pairs.append((key.strip(), value[1:-1]))
            labels = tuple(sorted(pairs))
        if not name or not all(
            c.isalnum() or c in "_:" for c in name
        ) or name[0].isdigit():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {raw_value!r}"
            ) from None
        samples[(name, labels)] = value
    return samples


def _split_labels(inner):
    """Split ``a="x",b="y,z"`` on commas outside quotes."""
    parts = []
    depth_quote = False
    current = []
    for ch in inner:
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts
