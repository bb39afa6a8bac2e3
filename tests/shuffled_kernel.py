"""A :class:`Simulator` that fires each instant's events in a seeded
shuffled order.

The kernel fires the events of one instant in the order they were
posted.  That order is a convention of the simulator, not of any machine
the paper describes, so a result that changes under another same-instant
order is an artifact.  This kernel draws the order from ``seed``: each
batch of events pending at the current instant is shuffled and fired;
events posted while a batch fires form a later batch of the same
instant, so each still fires after the event that posted it.

Use it for differential tests only: it honours ``max_events`` but does
not requeue an interrupted instant the way :class:`Simulator` does.
"""

import heapq
import random

from repro.common.errors import SimulationError
from repro.common.simulator import Simulator

__all__ = ["ShuffledSimulator"]


class ShuffledSimulator(Simulator):
    __slots__ = ("_rng",)

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def _run(self, max_events):
        buckets = self._buckets
        keys = self._keys
        shuffle = self._rng.shuffle
        while keys:
            key = heapq.heappop(keys)
            # Popped whole: a post at ``key`` from inside the batch opens
            # a fresh bucket, and re-queues ``key`` for the next batch.
            batch = buckets.pop(key)
            self._now = key
            shuffle(batch)
            for fn, args in batch:
                if max_events is not None and self._events_fired >= max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events) "
                        f"at t={key}")
                self._events_fired += 1
                fn(*args)
