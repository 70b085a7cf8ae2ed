"""The cache-aside cache.

The cache stores :class:`~repro.cache.entry.CacheEntry` objects up to a fixed
capacity (in number of objects), delegating victim selection to a pluggable
eviction policy.  It deliberately knows nothing about freshness policies: the
simulator and the policies drive invalidation, expiry, updates, and re-fetches
through the explicit methods below, and the cache merely records state and
statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.cache.entry import CacheEntry, EntryState
from repro.cache.eviction import EvictionPolicy, LRUEviction
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError

EvictionCallback = Callable[[CacheEntry, float], None]


class Cache:
    """A capacity-limited, cache-aside key-value cache.

    Args:
        capacity: Maximum number of objects held at once.  ``None`` means
            unbounded (useful for experiments that want to isolate freshness
            effects from eviction effects, as the paper's model does).
        eviction: Eviction policy instance; defaults to LRU.
        on_evict: Optional callback invoked with ``(entry, time)`` whenever an
            entry is evicted for capacity reasons.  The simulator uses this to
            finalise lazily-accounted polling costs.
    """

    __slots__ = ("capacity", "eviction", "on_evict", "stats", "_entries", "_on_access")

    def __init__(
        self,
        capacity: Optional[int] = None,
        eviction: Optional[EvictionPolicy] = None,
        on_evict: Optional[EvictionCallback] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.eviction = eviction if eviction is not None else LRUEviction()
        self.on_evict = on_evict
        self.stats = CacheStats()
        self._entries: Dict[str, CacheEntry] = {}
        # Hot-path alias: one bound-method resolution per lookup saved; the
        # eviction policy never changes after construction.
        self._on_access = self.eviction.on_access

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        """Iterate over the keys currently cached (in no particular order)."""
        return iter(self._entries)

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over the cached entries (valid or not)."""
        return iter(self._entries.values())

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Return the entry for ``key`` without touching recency or stats."""
        return self._entries.get(key)

    def raw_getter(self):
        """Bound ``dict.get`` over the live entry map (a hot-path ``peek``).

        The returned callable must be used read-only; the dict object is
        stable for the cache's lifetime, so the alias never goes stale.
        """
        return self._entries.get

    def contains_valid(self, key: str) -> bool:
        """Whether ``key`` is cached *and* currently valid."""
        entry = self._entries.get(key)
        return entry is not None and entry.is_valid

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def lookup(self, key: str, time: float) -> tuple[Optional[CacheEntry], str]:
        """Look up ``key`` at ``time`` and classify the outcome.

        Returns:
            A ``(entry, outcome)`` pair where ``outcome`` is one of ``"hit"``,
            ``"stale_miss"`` (the object is cached but invalidated/expired),
            or ``"cold_miss"`` (the object is not cached at all).  On a hit the
            entry's recency is updated; on any outcome the statistics are
            updated.
        """
        stats = self.stats
        stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            stats.cold_misses += 1
            return None, "cold_miss"
        if entry.state is EntryState.VALID:
            entry.hits += 1
            stats.hits += 1
            self._on_access(key)
            return entry, "hit"
        stats.stale_misses += 1
        self._on_access(key)
        return entry, "stale_miss"

    # ------------------------------------------------------------------ #
    # Fill / refresh path
    # ------------------------------------------------------------------ #
    def fill(
        self,
        key: str,
        version: int,
        time: float,
        key_size: int = 16,
        value_size: int = 128,
    ) -> CacheEntry:
        """Insert or refresh ``key`` after fetching it from the backend.

        If the key is already present (for example, it was invalidated and a
        miss re-fetched it), the existing entry is refreshed in place;
        otherwise a new entry is inserted, evicting a victim when at capacity.
        """
        entry = self._entries.get(key)
        if entry is not None:
            entry.refresh(version=version, time=time, value_size=value_size)
            entry.last_poll_accounted = time
            self.eviction.on_access(key)
            return entry
        self._make_room(time)
        entry = CacheEntry(
            key=key,
            version=version,
            as_of=time,
            fetched_at=time,
            key_size=key_size,
            value_size=value_size,
            last_poll_accounted=time,
        )
        self._entries[key] = entry
        self.eviction.on_insert(key)
        self.stats.insertions += 1
        return entry

    def apply_update(
        self, key: str, version: int, time: float, value_size: int | None = None
    ) -> bool:
        """Apply a backend update message.

        Updates modify the object only if it is present in the cache and do
        nothing otherwise, matching the paper's definition of an update.

        Returns:
            ``True`` if the cached object was refreshed, ``False`` if the key
            was not cached (the message had no effect).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.updates_ignored += 1
            return False
        entry.refresh(version=version, time=time, value_size=value_size)
        entry.last_poll_accounted = time
        self.stats.updates_applied += 1
        return True

    def apply_invalidate(self, key: str, time: float) -> bool:
        """Apply a backend invalidation message.

        Returns:
            ``True`` if a cached object was marked invalid, ``False`` if the
            key was not cached or already invalid.
        """
        entry = self._entries.get(key)
        if entry is None or entry.state is not EntryState.VALID:
            return False
        entry.state = EntryState.INVALIDATED
        self.stats.invalidations += 1
        return True

    def expire(self, key: str) -> bool:
        """Mark ``key`` as expired due to a TTL timer.

        Returns:
            ``True`` if a valid cached object was expired.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.is_valid:
            return False
        entry.mark_expired()
        self.stats.expirations += 1
        return True

    def restore_entry(self, entry: CacheEntry, time: float) -> CacheEntry:
        """Re-insert a previously serialized entry (recovery / warm rejoin).

        The entry is inserted as-is — state, version, and timestamps are the
        caller's to decide — evicting a victim when at capacity, exactly as a
        fill would.
        """
        existing = self._entries.get(entry.key)
        if existing is None:
            self._make_room(time)
        self._entries[entry.key] = entry
        self.eviction.on_insert(entry.key)
        self.stats.insertions += 1
        return entry

    def delete(self, key: str) -> bool:
        """Remove ``key`` from the cache entirely (no eviction callback)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.eviction.on_remove(key)
        return True

    def clear(self) -> None:
        """Remove every entry (statistics are preserved)."""
        for key in list(self._entries):
            self.delete(key)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _make_room(self, time: float) -> None:
        """Evict victims until there is room for one more entry."""
        if self.capacity is None:
            return
        while len(self._entries) >= self.capacity:
            victim = self.eviction.choose_victim()
            if victim is None:  # pragma: no cover - defensive
                return
            entry = self._entries.pop(victim)
            self.eviction.on_remove(victim)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(entry, time)
