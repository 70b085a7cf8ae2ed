"""Per-interval write buffer (Figure 4 of the paper).

The backend does not react to each write immediately: writes arriving during a
staleness interval ``T`` are buffered, and at the end of the interval the
policy decides — per dirty key — whether to send an invalidate, an update, or
nothing.  Buffering is what keeps the number of freshness messages bounded by
one per key per interval while still honouring the staleness bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.deferred import Deferrable


@dataclass(slots=True)
class BufferedWrite:
    """Aggregated information about writes to one key within one interval."""

    key: str
    first_write_time: float
    last_write_time: float
    write_count: int = 1
    key_size: int = 16
    value_size: int = 128


@dataclass(slots=True)
class WriteBuffer(Deferrable):
    """Accumulates writes between interval flushes.

    A columnar replay may leave the buffered writes to a pending build that
    runs on their first read (:class:`~repro.deferred.Deferrable`).
    """

    _state = "_pending"

    _pending: Dict[str, BufferedWrite] = field(default_factory=dict)
    total_buffered: int = 0

    def record_write(
        self,
        key: str,
        time: float,
        key_size: int = 16,
        value_size: int = 128,
    ) -> None:
        """Record a write to ``key`` at ``time``."""
        entry = self._pending.get(key)
        if entry is None:
            self._pending[key] = BufferedWrite(
                key=key,
                first_write_time=time,
                last_write_time=time,
                key_size=key_size,
                value_size=value_size,
            )
        else:
            entry.last_write_time = time
            entry.write_count += 1
            entry.value_size = value_size
        self.total_buffered += 1

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, key: str) -> bool:
        return key in self._pending

    def peek(self) -> List[BufferedWrite]:
        """Return the buffered writes without clearing the buffer."""
        return list(self._pending.values())

    def drain(self) -> List[BufferedWrite]:
        """Return and clear the buffered writes (called at interval flush)."""
        drained = list(self._pending.values())
        self._pending.clear()
        return drained

    def discard(self, key: str) -> None:
        """Drop the buffered write for ``key`` (used when a key is re-fetched)."""
        self._pending.pop(key, None)
