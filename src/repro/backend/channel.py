"""Backend-to-cache message channel with optional delay, loss, and reordering.

The paper's §5 highlights guaranteed delivery of updates and invalidates as an
open problem: a lost invalidate can leave a cached object stale forever.  The
default channel is ideal (instantaneous, reliable) so the main experiments
match the paper's simulation; the loss/delay knobs exist for the ablation
benchmarks that demonstrate the open problem quantitatively.

The channel never looks inside what it carries, so its one walk,
:meth:`Channel.transit`, maps a send time to an arrival time (``None`` for a
drop).  :meth:`Channel.send` wraps it for callers that hold a message and want
a :class:`DeliveryRecord`; the interval flush calls ``transit`` directly, and
not even that while the channel is :attr:`Channel.instant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backend.messages import Message
from repro.errors import ConfigurationError


@dataclass(slots=True)
class DeliveryRecord:
    """Outcome of pushing one message through the channel."""

    message: Message
    delivered: bool
    deliver_at: float


class Channel:
    """Models the path between the backend and the cache.

    Args:
        loss_probability: Probability that a message is silently dropped.
        delay: Constant propagation delay in seconds added to every delivered
            message.
        jitter: Standard deviation of additional (non-negative) random delay;
            with jitter, messages can be reordered.
        seed: Seed for the loss/jitter random generator.
        retries: How many times the sender re-attempts a message lost to
            *probabilistic* loss (not outage: a partitioned link has nobody to
            time out against, so retries during ``outage`` are skipped without
            touching the random stream).
        retry_timeout: Seconds the sender waits before declaring an attempt
            lost and retrying.
        retry_backoff: Base of the exponential backoff added on top of the
            timeout: retry ``k`` waits ``retry_timeout + retry_backoff *
            2**(k-1)`` seconds after the previous attempt.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        delay: float = 0.0,
        jitter: float = 0.0,
        seed: Optional[int] = None,
        retries: int = 0,
        retry_timeout: float = 0.0,
        retry_backoff: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        if delay < 0 or jitter < 0:
            raise ConfigurationError("delay and jitter must be non-negative")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if retry_timeout < 0 or retry_backoff < 0:
            raise ConfigurationError(
                "retry_timeout and retry_backoff must be non-negative"
            )
        self.loss_probability = float(loss_probability)
        self.delay = float(delay)
        self.jitter = float(jitter)
        self.retries = int(retries)
        self.retry_timeout = float(retry_timeout)
        self.retry_backoff = float(retry_backoff)
        self._rng = np.random.default_rng(seed)
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        self.retried = 0
        self.recovered = 0
        #: While ``True`` every message is dropped, regardless of
        #: ``loss_probability``.  Cluster scenarios toggle this to model a
        #: node that is partitioned from the backend (total outage) without
        #: disturbing the channel's random state.
        self.outage = False
        #: Degraded-but-alive overlay (gray links): extra loss, a constant
        #: extra delay, and extra per-message seeded jitter layered on top of
        #: the base configuration.  Off by default so the base random stream
        #: is untouched; scenarios toggle it for their degradation windows.
        self.degraded = False
        self._degraded_loss = 0.0
        self._degraded_delay = 0.0
        self._degraded_jitter = 0.0

    @property
    def is_ideal(self) -> bool:
        """Whether the channel is lossless and instantaneous."""
        return self.loss_probability == 0.0 and self.delay == 0.0 and self.jitter == 0.0

    def set_degraded(
        self, loss: float = 0.0, delay: float = 0.0, jitter: float = 0.0
    ) -> None:
        """Enter degraded mode: partial loss and extra delay on a live link.

        Effective loss composes independently with the base probability
        (``1 - (1-base)(1-loss)``); ``delay`` is added to every delivered
        message and ``jitter`` draws additional non-negative seeded delay per
        message.  Unlike ``outage`` the link stays alive, so retries still
        apply.
        """
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError(f"degraded loss must be in [0, 1], got {loss}")
        if delay < 0 or jitter < 0:
            raise ConfigurationError(
                "degraded delay and jitter must be non-negative"
            )
        self.degraded = True
        self._degraded_loss = float(loss)
        self._degraded_delay = float(delay)
        self._degraded_jitter = float(jitter)

    def clear_degraded(self) -> None:
        """Leave degraded mode, restoring the base channel configuration."""
        self.degraded = False
        self._degraded_loss = 0.0
        self._degraded_delay = 0.0
        self._degraded_jitter = 0.0

    def _effective_loss(self) -> float:
        if not self.degraded:
            return self.loss_probability
        return 1.0 - (1.0 - self.loss_probability) * (1.0 - self._degraded_loss)

    @property
    def instant(self) -> bool:
        """Whether a message sent now arrives now: ideal, not degraded, no outage.

        :meth:`transit` would draw nothing and return ``sent_at``, so a
        sender may skip the walk for a whole batch (counting ``sent`` and
        ``delivered`` itself).  The vector envelope's ``channel`` row asks
        the same property, so kernels and flush agree on "delivered now".
        """
        return not (self.outage or self.degraded) and self.is_ideal

    def transit(self, sent_at: float) -> Optional[float]:
        """Carry one message sent at ``sent_at``: its arrival time, ``None`` if dropped.

        The loss / retry / jitter / degraded walk and its counters, with no
        message or record object.
        """
        self.sent += 1
        if self.outage:
            self.dropped += 1
            return None
        loss = self._effective_loss()
        retry_penalty = 0.0
        if loss > 0.0 and self._rng.random() < loss:
            # Lost in flight: walk the retry schedule.  Each retry waits out
            # the timeout plus exponential backoff, then redraws the loss.
            recovered = False
            for attempt in range(1, self.retries + 1):
                self.retried += 1
                retry_penalty += (
                    self.retry_timeout + self.retry_backoff * 2 ** (attempt - 1)
                )
                if self._rng.random() >= loss:
                    recovered = True
                    break
            if not recovered:
                self.dropped += 1
                return None
            self.recovered += 1
        extra = abs(float(self._rng.normal(0.0, self.jitter))) if self.jitter > 0 else 0.0
        if self.degraded:
            extra += self._degraded_delay
            if self._degraded_jitter > 0:
                extra += abs(float(self._rng.normal(0.0, self._degraded_jitter)))
        self.delivered += 1
        return sent_at + self.delay + extra + retry_penalty

    def send(self, message: Message) -> DeliveryRecord:
        """Send one message, returning whether and when it is delivered."""
        deliver_at = self.transit(message.sent_at)
        if deliver_at is None:
            return DeliveryRecord(message=message, delivered=False, deliver_at=float("inf"))
        return DeliveryRecord(message=message, delivered=True, deliver_at=deliver_at)
