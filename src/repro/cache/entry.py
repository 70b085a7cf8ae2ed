"""Cache entry representation.

Each entry remembers which backend version it holds and when that version was
fetched, which is what lets the simulator decide whether a read observes data
within the staleness bound.  Entries can also be marked invalid (by an
invalidation message) or expired (by a TTL timer) without being removed, so
that the accounting can distinguish "miss because the data was stale" from
"miss because the data was never cached or was evicted" — the distinction at
the heart of the paper's staleness-cost metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class EntryState(Enum):
    """Lifecycle state of a cached object."""

    VALID = "valid"
    INVALIDATED = "invalidated"
    EXPIRED = "expired"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(slots=True)
class CacheEntry:
    """A single cached object.

    Attributes:
        key: Object key.
        version: Backend version number this entry reflects.
        as_of: Backend time the entry reflects (time of fetch or update).
        fetched_at: Time the entry was last brought into the cache or
            refreshed; TTL timers are anchored here.
        key_size: Key size in bytes.
        value_size: Value size in bytes.
        state: Validity state (valid, invalidated by the backend, or expired
            by a TTL).
        last_poll_accounted: Bookkeeping timestamp used by TTL-polling to
            lazily account for periodic refreshes.
        hits: Number of reads served from this entry since it was cached.
    """

    key: str
    version: int
    as_of: float
    fetched_at: float
    key_size: int = 16
    value_size: int = 128
    state: EntryState = EntryState.VALID
    last_poll_accounted: float = field(default=0.0)
    hits: int = 0

    @property
    def is_valid(self) -> bool:
        """Whether the entry can serve reads without a freshness violation."""
        return self.state is EntryState.VALID

    def mark_invalidated(self) -> None:
        """Mark the entry stale due to a backend invalidation message."""
        self.state = EntryState.INVALIDATED

    def mark_expired(self) -> None:
        """Mark the entry stale due to a TTL expiry."""
        self.state = EntryState.EXPIRED

    def refresh(self, version: int, time: float, value_size: int | None = None) -> None:
        """Refresh the entry with a new backend version.

        Used both when a miss re-fetches the object and when the backend
        pushes an update message.
        """
        self.version = version
        self.as_of = time
        self.fetched_at = time
        self.state = EntryState.VALID
        if value_size is not None:
            self.value_size = value_size
