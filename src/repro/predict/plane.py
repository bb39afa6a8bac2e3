"""The query surface over committed fit artifacts.

:class:`Predictor` answers one machine-config query from a loaded
artifact in microseconds (no simulator, no I/O after the first load).
:class:`PredictPlane` wraps it behind a lazy, thread-safe cache for the
serve tier.
"""

import threading

from .artifacts import available_machines, default_fits_dir, load_fit
from .model import feature_vector, predict_buckets

__all__ = ["OutOfRegionError", "PredictError", "PredictPlane", "Predictor"]


class PredictError(ValueError):
    """No fit for the requested machine/workload (or a bad knob)."""


class OutOfRegionError(PredictError):
    """The query lies outside the fitted region.

    ``repro predict`` refuses these with a nonzero exit and ``POST
    /predict`` with HTTP 409, instead of silently extrapolating.
    ``.region`` carries the fitted per-knob box for the message.
    """

    def __init__(self, message, region=None):
        super().__init__(message)
        self.region = region or {}


class Predictor:
    """Query one machine's fit artifact."""

    def __init__(self, payload):
        self.machine = payload["machine"]
        self.buckets = tuple(payload["buckets"])
        self._workloads = payload["workloads"]

    def workloads(self):
        return sorted(self._workloads)

    def _workload(self, name):
        try:
            return self._workloads[name]
        except KeyError:
            raise PredictError(
                f"machine {self.machine!r} has no fitted workload "
                f"{name!r} (fitted: {', '.join(self.workloads())})"
            ) from None

    def region(self, workload):
        return dict(self._workload(workload)["region"])

    def query(self, config, extrapolate=False):
        """Predict one config; raises :class:`OutOfRegionError` unless
        ``extrapolate`` is set.  ``config`` holds an optional
        ``workload`` key plus knob overrides (defaults fill the rest).
        """
        config = dict(config)
        workload = config.pop("workload", None)
        if workload is None:
            names = self.workloads()
            if len(names) != 1:
                raise PredictError(
                    f"machine {self.machine!r} has several fitted "
                    f"workloads ({', '.join(names)}); pass workload=...")
            workload = names[0]
        fit = self._workload(workload)
        full = dict(fit["defaults"])
        unknown = sorted(set(config) - set(full))
        if unknown:
            raise PredictError(
                f"{self.machine}/{workload} has no knob(s) "
                f"{', '.join(unknown)} (knobs: {', '.join(sorted(full))})")
        full.update(config)
        outside = {}
        for knob, (low, high) in fit["region"].items():
            value = full[knob]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise PredictError(
                    f"{self.machine}/{workload} knob {knob!r} must be "
                    f"numeric, got {value!r}")
            if not low <= value <= high:
                outside[knob] = [low, high]
        in_region = not outside
        if outside and not extrapolate:
            box = ", ".join(f"{knob}∈[{low}, {high}]"
                            for knob, (low, high) in sorted(outside.items()))
            raise OutOfRegionError(
                f"{self.machine}/{workload} query is outside the fitted "
                f"region ({box}); pass --extrapolate to answer anyway",
                region=dict(fit["region"]))

        from .grids import machine_specs

        spec = machine_specs(self.machine)[workload]
        features = feature_vector(*spec.scales(full))
        buckets = predict_buckets(fit["theta"], features)
        return {
            "machine": self.machine,
            "workload": workload,
            "config": full,
            "time": sum(buckets.values()),
            "buckets": buckets,
            "in_region": in_region,
            "train_error": dict(fit["train_error"]),
        }


class PredictPlane:
    """Lazy artifact cache: the serve tier's prediction surface."""

    def __init__(self, fits_dir=None, bench_dir=None):
        self._fits_dir = fits_dir
        self._bench_dir = bench_dir
        self._lock = threading.Lock()
        self._predictors = {}

    @property
    def fits_dir(self):
        if self._fits_dir is None:
            self._fits_dir = default_fits_dir(self._bench_dir)
        return self._fits_dir

    def machines(self):
        return available_machines(self.fits_dir)

    def predictor(self, machine):
        """Cached :class:`Predictor`; raises PredictError when unfitted."""
        with self._lock:
            predictor = self._predictors.get(machine)
            if predictor is None:
                payload = load_fit(self.fits_dir, machine)
                if payload is None:
                    raise PredictError(
                        f"no fit artifact for machine {machine!r} in "
                        f"{self.fits_dir} (run `repro predict --fit`)")
                predictor = Predictor(payload)
                self._predictors[machine] = predictor
        return predictor

    def query(self, machine, config, extrapolate=False):
        return self.predictor(machine).query(config, extrapolate=extrapolate)

    def describe(self):
        out = {}
        for machine in self.machines():
            predictor = self.predictor(machine)
            out[machine] = {
                workload: predictor.region(workload)
                for workload in predictor.workloads()
            }
        return {"fits_dir": self.fits_dir, "machines": out}
