"""Shared substrate: event kernel, statistics, deterministic RNG, errors."""

from .errors import (
    CompileError,
    DeadlockError,
    GraphError,
    IStructureError,
    MachineError,
    NetworkError,
    ReproError,
    SimulationError,
)
from .rng import DeterministicRng, substream
from .simulator import Simulator
from .stats import (
    Counter,
    Histogram,
    SeriesRecorder,
    TimeWeighted,
    UtilizationTracker,
    summarize,
)

__all__ = [
    "CompileError",
    "Counter",
    "DeadlockError",
    "DeterministicRng",
    "GraphError",
    "Histogram",
    "IStructureError",
    "MachineError",
    "NetworkError",
    "ReproError",
    "SeriesRecorder",
    "SimulationError",
    "Simulator",
    "TimeWeighted",
    "UtilizationTracker",
    "substream",
    "summarize",
]
