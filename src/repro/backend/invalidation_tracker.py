"""Tracking of keys the backend has already invalidated.

Section 3.1 of the paper assumes the backend can remember which keys it has
invalidated so it does not send a second invalidate before the cache re-fetches
the key.  Tracking is cheap because only keys (not values) are stored, and
tracking is exact: every invalidated key is remembered until it is re-fetched.
"""

from __future__ import annotations

from typing import Dict

from repro.deferred import Deferrable


class InvalidationTracker(Deferrable):
    """Remembers keys whose cached copy is known to be invalidated.

    A columnar replay may leave the tracked keys to a pending build that
    runs on their first read (:class:`~repro.deferred.Deferrable`).
    """

    _state = "_invalidated"

    def __init__(self) -> None:
        self._invalidated: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._invalidated)

    def __contains__(self, key: str) -> bool:
        return key in self._invalidated

    def is_invalidated(self, key: str) -> bool:
        """Whether the backend believes ``key`` is currently invalidated."""
        return key in self._invalidated

    def mark_invalidated(self, key: str, time: float) -> None:
        """Record that an invalidate for ``key`` was sent at ``time``."""
        self._invalidated[key] = time

    def mark_refetched(self, key: str) -> None:
        """Record that the cache re-fetched ``key`` (it is valid again)."""
        self._invalidated.pop(key, None)

    def clear(self) -> None:
        """Forget every tracked key."""
        self._invalidated.clear()
