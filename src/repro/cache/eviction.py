"""Eviction policies for the capacity-limited cache.

The paper's evaluation uses caches with limited capacity so that eviction
interacts with freshness decisions (a key that is evicted cannot be stale).
LRU is the default; LFU, FIFO, and Clock are provided both for completeness
and for the ablation benchmarks that explore how eviction interacts with the
freshness policies (one of the paper's §5 open questions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError


class EvictionPolicy(ABC):
    """Tracks access recency/frequency and chooses victims on overflow.

    The cache calls :meth:`on_insert` when a key enters the cache,
    :meth:`on_access` on every hit, :meth:`on_remove` when a key leaves for
    any reason, and :meth:`choose_victim` when it needs space.
    """

    name: str = "eviction"

    @abstractmethod
    def on_insert(self, key: str) -> None:
        """Record that ``key`` was inserted into the cache."""

    @abstractmethod
    def on_access(self, key: str) -> None:
        """Record a hit on ``key``."""

    @abstractmethod
    def on_remove(self, key: str) -> None:
        """Record that ``key`` left the cache (eviction or explicit delete)."""

    @abstractmethod
    def choose_victim(self) -> Optional[str]:
        """Return the key to evict next, or ``None`` if the policy is empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of keys currently tracked."""

    def recency_order(self) -> Optional[list[str]]:
        """Keys in victim-first order, for exact serialization — or ``None``.

        Policies whose state is fully captured by an ordered key list (LRU,
        FIFO) return it here; snapshots store entries in this order so that
        restoring them via ``on_insert`` reproduces the eviction state — and
        hence every post-restore eviction decision — exactly.  Policies with
        richer state return ``None`` and restore approximately.
        """
        return None


class LRUEviction(EvictionPolicy):
    """Least-recently-used eviction."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: str) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def toucher(self) -> Callable[[str], None]:
        """Bound ``move_to_end`` of the live order: a hot-path
        :meth:`on_access` for a key known to be tracked.  The order is
        mutated in place for the policy's lifetime, so the alias never goes
        stale."""
        return self._order.move_to_end

    def on_remove(self, key: str) -> None:
        self._order.pop(key, None)

    def choose_victim(self) -> Optional[str]:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def recency_order(self) -> list[str]:
        """Keys least-recently-used first (victim-first)."""
        return list(self._order)


class FIFOEviction(EvictionPolicy):
    """First-in-first-out eviction (insertion order, ignores accesses)."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str) -> None:
        if key not in self._order:
            self._order[key] = None

    def on_access(self, key: str) -> None:
        # FIFO ignores accesses by design.
        return None

    def on_remove(self, key: str) -> None:
        self._order.pop(key, None)

    def choose_victim(self) -> Optional[str]:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def recency_order(self) -> list[str]:
        """Keys in insertion order (victim-first)."""
        return list(self._order)


class LFUEviction(EvictionPolicy):
    """Least-frequently-used eviction with LRU tie-breaking."""

    name = "lfu"

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._recency: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0)
        self._recency[key] = None
        self._recency.move_to_end(key)

    def on_access(self, key: str) -> None:
        if key in self._counts:
            self._counts[key] += 1
            self._recency.move_to_end(key)

    def on_remove(self, key: str) -> None:
        self._counts.pop(key, None)
        self._recency.pop(key, None)

    def choose_victim(self) -> Optional[str]:
        if not self._counts:
            return None
        min_count = min(self._counts.values())
        for key in self._recency:
            if self._counts[key] == min_count:
                return key
        return None  # pragma: no cover - unreachable

    def __len__(self) -> int:
        return len(self._counts)


class ClockEviction(EvictionPolicy):
    """Second-chance (Clock) eviction.

    Each key carries a reference bit set on access.  The clock hand sweeps
    insertion order, clearing bits until it finds an unreferenced key.
    """

    name = "clock"

    def __init__(self) -> None:
        self._referenced: OrderedDict[str, bool] = OrderedDict()

    def on_insert(self, key: str) -> None:
        self._referenced[key] = False

    def on_access(self, key: str) -> None:
        if key in self._referenced:
            self._referenced[key] = True

    def on_remove(self, key: str) -> None:
        self._referenced.pop(key, None)

    def choose_victim(self) -> Optional[str]:
        if not self._referenced:
            return None
        # Sweep at most two passes: the first pass clears reference bits, the
        # second is guaranteed to find an unreferenced key.
        for _ in range(2 * len(self._referenced)):
            key, referenced = next(iter(self._referenced.items()))
            if referenced:
                self._referenced[key] = False
                self._referenced.move_to_end(key)
            else:
                return key
        return next(iter(self._referenced))  # pragma: no cover - safety net

    def __len__(self) -> int:
        return len(self._referenced)


_POLICIES = {
    "lru": LRUEviction,
    "fifo": FIFOEviction,
    "lfu": LFUEviction,
    "clock": ClockEviction,
}


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Build an eviction policy by name (``lru``, ``fifo``, ``lfu``, ``clock``).

    Raises:
        ConfigurationError: If the name is not recognised.
    """
    try:
        factory = _POLICIES[name.lower()]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown eviction policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from exc
    return factory()
