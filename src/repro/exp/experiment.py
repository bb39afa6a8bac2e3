"""What a sweep experiment *is*: a grid of configs and a pure run function.

An :class:`Experiment` declares the whole sweep up front so the engine
can schedule, cache and retry it mechanically:

* ``grid`` — a list of JSON-able config dicts, one per run;
* ``run`` — a pure, picklable ``run(config) -> value`` (value must be
  JSON-serializable: the engine caches it on disk and ships it across
  process boundaries);
* ``assemble`` — optional ``assemble(experiment, values) -> Table``
  turning the per-config values (grid order) back into the experiment's
  result table.

Purity matters: a run must depend only on its config (plus the code
version, which the cache hashes), never on sweep order or shared state —
that is what makes ``--jobs 1`` and ``--jobs 4`` byte-identical and the
cache sound.
"""

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Experiment", "grid"]


def grid(**axes):
    """Cartesian product of named axes as a list of config dicts.

    ``grid(stages=[2, 3], combining=[False, True])`` -> 4 configs, last
    axis varying fastest (itertools.product order, deterministic).
    """
    names = list(axes)
    out = []
    for values in itertools.product(*(axes[name] for name in names)):
        out.append(dict(zip(names, values)))
    return out


@dataclass
class Experiment:
    """A declared parameter sweep."""

    name: str
    run: Callable[[Dict[str, Any]], Any]
    grid: List[Dict[str, Any]]
    #: (experiment, values in grid order) -> Table (or any report object).
    assemble: Optional[Callable] = None
    #: Extra files/directories hashed into the cache key alongside the
    #: repro package (e.g. the benchmark module declaring the sweep).
    code_paths: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.grid:
            raise ValueError(f"experiment {self.name!r} has an empty grid")

    def run_inline(self):
        """Run the grid serially in-process; returns values in grid order.

        The engine-free path: the examples and the cell surrogate's fit
        use it; ``repro bench`` runs the same grid through the engine.
        """
        return [self.run(config) for config in self.grid]

    def table(self, values):
        """Assemble ``values`` (grid order) into the experiment's table."""
        if self.assemble is None:
            raise ValueError(f"experiment {self.name!r} has no assembler")
        return self.assemble(self, values)
