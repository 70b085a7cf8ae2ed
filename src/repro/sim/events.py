"""Internal simulator events.

The simulator is request-driven: TTL expiries and polling refreshes are
accounted lazily (they never change which requests arrive, only the costs), so
the only genuine events besides requests are the periodic interval flushes of
the write-reactive policies, the delayed delivery of freshness messages when a
non-ideal channel is configured, and — when the concurrent-fetch model is
enabled — the completion of in-flight backend fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.backend.messages import Message


@dataclass(slots=True)
class PendingDelivery:
    """A freshness message in flight on a delayed channel."""

    message: Message
    deliver_at: float


@dataclass(order=True, slots=True)
class FetchCompletion:
    """An in-flight backend fetch finishing at ``done`` simulated time.

    Orders by ``(done, seq)`` so completion draining is deterministic even
    when several fetches finish at the same instant; ``seq`` is the fetch
    issue order.  ``fetch`` is the coordinator's in-flight record (kept out
    of the ordering on purpose).
    """

    done: float
    seq: int
    fetch: Any = field(compare=False)
