"""Bounded buffer for structured trace records (spans and events).

Records are plain JSON-serializable dicts with a ``type`` of ``"span"`` or
``"event"`` and a ``time`` in simulation seconds.  The buffer is bounded:
once ``max_records`` is reached new records are counted in ``dropped``
instead of growing memory without bound on long replays.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["TraceBuffer"]


class TraceBuffer:
    """Append-only record buffer with a hard size cap and drop accounting."""

    __slots__ = ("max_records", "records", "dropped")

    def __init__(self, max_records: int = 10000) -> None:
        if max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        self.max_records = max_records
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0

    def append(self, record: Dict[str, Any]) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)
