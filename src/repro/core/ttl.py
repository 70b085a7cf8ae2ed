"""TTL-based freshness policies (§2.2 of the paper).

Both policies attach a timer of duration ``T`` (the staleness bound, unless
overridden) to every object brought into the cache:

* **TTL-expiry**: when the timer fires, the object is expired; the next read
  misses and re-fetches it.  Staleness cost is paid on every such miss; the
  freshness cost is the re-fetch (``c_m``) for those misses.
* **TTL-polling**: when the timer fires, the object is re-fetched from the
  backend immediately, so cached data is never stale (``C_S = 0``) but a
  ``c_m`` is paid every interval for every cached object.

Neither policy requires any coordination with the backend, which is why TTLs
are easy to deploy — and why their overhead explodes as ``T`` shrinks to
real-time scales.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policy import FreshnessPolicy
from repro.errors import ConfigurationError


class _TTLPolicy(FreshnessPolicy):
    """Shared plumbing for the two TTL variants."""

    def __init__(self, ttl: Optional[float] = None) -> None:
        super().__init__()
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        self._ttl_override = ttl

    @property
    def ttl(self) -> float:
        """The timer duration: the explicit override or the staleness bound."""
        if self._ttl_override is not None:
            return self._ttl_override
        if self.context is None:
            raise ConfigurationError(
                "TTL policy is not bound to a simulation and has no explicit ttl"
            )
        return self.context.staleness_bound

    def expiry_time(self, fetched_at: float) -> float:
        """Time at which an object fetched at ``fetched_at`` expires."""
        return fetched_at + self.ttl


class TTLExpiryPolicy(_TTLPolicy):
    """Expire cached objects when their TTL lapses.

    Args:
        ttl: Timer duration in seconds.  Defaults to the simulation's
            staleness bound, which is the largest value that still satisfies
            the bound.
    """

    name = "ttl-expiry"
    ttl_mode = "expiry"

    def is_expired(self, fetched_at: float, now: float) -> bool:
        """Whether an object fetched at ``fetched_at`` has expired by ``now``.

        Example:

            >>> policy = TTLExpiryPolicy(ttl=1.0)
            >>> policy.is_expired(fetched_at=0.0, now=0.5)
            False
            >>> policy.is_expired(fetched_at=0.0, now=1.0)
            True
        """
        return now >= self.expiry_time(fetched_at)


class TTLPollingPolicy(_TTLPolicy):
    """Re-fetch cached objects from the backend every TTL interval.

    Args:
        ttl: Timer duration in seconds.  Defaults to the simulation's
            staleness bound.
    """

    name = "ttl-polling"
    ttl_mode = "polling"


def poll_count(anchor: float, t: float, ttl: float) -> int:
    """Polls an entry anchored at ``anchor`` has performed by ``t``: ``int((t
    - anchor) / ttl)``, or 0 when ``t <= anchor``.

    Polls occur at :func:`poll_instant` ``(anchor, k, ttl)`` for ``k = 1, 2,
    ...``.  The simulator accounts for them lazily (polling cost does not
    depend on the request stream, so no poll is simulated as an event): the
    polls in ``(accounted, t]`` are ``poll_count(anchor, t, ttl) -
    poll_count(anchor, accounted, ttl)``.  This is the per-read definition;
    :func:`poll_counts` is the same count over arrays.

    Example — three polls in the first 3.5 seconds, none of them re-counted:

        >>> poll_count(anchor=0.0, t=3.5, ttl=1.0)
        3
        >>> poll_count(0.0, 4.5, 1.0) - poll_count(0.0, 3.5, 1.0)
        1
        >>> poll_count(anchor=2.0, t=1.5, ttl=1.0)
        0
    """
    return int((t - anchor) / ttl) if t > anchor else 0


def poll_counts(anchor: np.ndarray, t: np.ndarray, ttl) -> np.ndarray:
    """:func:`poll_count` over arrays, element by element and bit for bit;
    ``ttl`` is one TTL or a column of them.

    ``astype`` truncates toward zero like ``int``, and where ``t <= anchor``
    the quotient is not positive, so clamping at 0 is the scalar guard.

        >>> poll_counts(np.array([0.0, 0.0, 2.0]), np.array([3.5, 4.5, 1.5]), 1.0).tolist()
        [3, 4, 0]
    """
    counts = ((t - anchor) / ttl).astype(np.int64)
    return np.maximum(counts, 0, out=counts)


def poll_instant(anchor, k, ttl):
    """The instant of an entry's ``k``-th poll, ``anchor + k * ttl``: a float
    for a scalar ``k``, a column for an array of them (``ttl`` one TTL or a
    column of them).

        >>> poll_instant(anchor=0.5, k=poll_count(0.5, 4.0, 1.0), ttl=1.0)
        3.5
    """
    return anchor + k * ttl


def account_entry_polls(
    entry, now: float, ttl: float, result, costs, miss_const
) -> Optional[float]:
    """Settle one entry's lazily-accounted polls (the replay hot path).

    Both the single-cache simulator and every cluster node call this once
    per read under TTL-polling, against a TTL resolved once at bind time.
    It is the hot path's copy of :func:`poll_count` and :func:`poll_instant`,
    inlined: a call per read is a Python frame the read-path pins
    (``tests/test_read_probe.py``, ``tests/test_perf.py``) do not allow.
    The tests pin it to the pair on a grid.

    Args:
        entry: The cache entry being settled (mutated in place).
        now: The settling instant.
        ttl: The poll interval resolved at bind time.
        result: Counter sink with ``polls`` / ``freshness_cost`` fields.
        costs: The run's cost model.
        miss_const: Precomputed fixed-preset miss cost, or ``None`` to charge
            per-entry sizes through ``costs.miss_cost``.

    Returns:
        The most recent poll time when polls were charged, else ``None`` —
        the caller refreshes the entry's backend version for that instant.
    """
    anchor = entry.fetched_at
    if now <= anchor:
        return None
    accounted = entry.last_poll_accounted
    k_now = int((now - anchor) / ttl)
    polls = k_now - (int((accounted - anchor) / ttl) if accounted > anchor else 0)
    if polls <= 0:
        return None
    result.polls += polls
    miss = miss_const
    if miss is None:
        miss = costs.miss_cost(entry.key_size, entry.value_size)
    result.freshness_cost += polls * miss
    # Each poll refreshes the cached copy, so the entry now reflects the
    # backend as of the most recent poll.
    last_poll = anchor + k_now * ttl
    entry.last_poll_accounted = last_poll
    if last_poll > entry.as_of:
        entry.as_of = last_poll
    return last_poll
