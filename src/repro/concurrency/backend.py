"""Finite-capacity backend with FIFO queueing.

The backend models the origin datastore as ``capacity`` identical servers.
A fetch that arrives while a slot is free starts immediately; otherwise it
queues FIFO and starts when the earliest busy slot frees.  Because fetches
are admitted in arrival order and the simulator presents arrivals in
nondecreasing time, a min-heap of slot busy-until times implements the exact
M/G/c-style FIFO discipline without an explicit queue structure.

One :class:`BackendServer` is shared by every node of a fleet — the whole
point of the ``backend-saturation`` scenario is that nodes contend for the
same origin capacity.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.errors import ConfigurationError


class BackendServer:
    """``capacity`` fetch slots with FIFO admission in arrival order."""

    __slots__ = ("capacity", "_busy")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"backend capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._busy: List[float] = []  # heap of slot busy-until times

    def schedule(self, now: float, service: float) -> Tuple[float, float]:
        """Admit one fetch arriving at ``now``; return ``(start, done)``.

        The fetch starts immediately when a slot is free, else when the
        earliest busy slot frees.  When the capacity was squeezed below the
        number of busy slots (``backend-saturation``), the surplus slots are
        retired as they drain: the fetch waits for enough completions that
        the live slot count fits the new capacity.
        """
        busy = self._busy
        start = now
        while len(busy) >= self.capacity:
            freed = heapq.heappop(busy)
            if freed > start:
                start = freed
        done = start + service
        heapq.heappush(busy, done)
        return start, done

    def set_capacity(self, capacity: int) -> None:
        """Resize the slot pool (scenario hook); takes effect on admission."""
        if capacity < 1:
            raise ConfigurationError(f"backend capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
