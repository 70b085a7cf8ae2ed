"""Messages exchanged between the backend data store and the cache.

The write-reactive policies of the paper communicate with the cache through
two message types: *updates* (push the new value; a no-op if the object is not
cached) and *invalidates* (mark the cached object stale so the next read
misses).  Messages carry enough metadata for the cost model to charge them by
size when the network is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MessageKind(Enum):
    """Kind of a backend-to-cache freshness message."""

    INVALIDATE = "invalidate"
    UPDATE = "update"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for backend-to-cache messages.

    Attributes:
        key: Object key the message refers to.
        sent_at: Simulation time at which the backend emitted the message.
        key_size: Key size in bytes (an invalidate carries only the key).
        value_size: Value size in bytes (zero for invalidates).
        version: Backend version the message reflects.
    """

    key: str
    sent_at: float
    key_size: int = 16
    value_size: int = 0
    version: int = 0

    kind: MessageKind = MessageKind.INVALIDATE


@dataclass(frozen=True, slots=True)
class InvalidateMessage(Message):
    """Mark a cached object stale; the next read misses and re-fetches."""

    kind: MessageKind = MessageKind.INVALIDATE


@dataclass(frozen=True, slots=True)
class UpdateMessage(Message):
    """Push the latest value for a key; ignored if the key is not cached."""

    kind: MessageKind = MessageKind.UPDATE
