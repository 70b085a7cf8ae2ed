"""Hit ratio of a bounded LRU cache: Che's approximation.

The freshness model (:mod:`repro.model.analytical`) assumes an unbounded
cache.  With ``cache_capacity`` set, a read also misses because its key was
evicted, and that share follows from the key popularity alone.  Under the
independent reference model (every request picks item ``i`` with
probability ``p_i``, whatever came before; per-key Poisson streams with
rates proportional to ``p_i`` are such a stream) an LRU cache of ``C`` items
holds item ``i`` exactly when it was requested within the last ``t_C``
requests, for one characteristic time ``t_C`` shared by all items: the root
of

.. math:: \\sum_i \\left(1 - e^{-p_i t_C}\\right) = C

(Che, Tung and Wang, IEEE JSAC 2002).  Item ``i`` then hits with probability
``1 - exp(-p_i t_C)``, and a read hits with the popularity-weighted mean of
those.  The approximation is within a fraction of a percent of an LRU
simulation on Zipf popularities, which makes it an oracle for the engines'
eviction: a bounded replay's ``hit_ratio`` has to land on it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _popularity(popularity) -> np.ndarray:
    """``popularity`` as probabilities: non-negative, summing to 1."""
    p = np.asarray(popularity, dtype=np.float64)
    if p.ndim != 1 or p.size == 0 or not np.isfinite(p).all() or (p < 0).any():
        raise ConfigurationError("popularity must be a non-empty vector of finite weights >= 0")
    total = p.sum()
    if total <= 0:
        raise ConfigurationError("popularity must have a positive weight")
    return p / total


def che_characteristic_time(popularity, capacity: int) -> float:
    """The characteristic time ``t_C`` of an LRU cache of ``capacity`` items,
    in requests: the root of ``sum(1 - exp(-p * t)) == capacity``.

    The left-hand side grows strictly with ``t`` from 0 towards the number of
    items with a positive popularity, so the root is bisected on one numpy
    sum per step, down to adjacent floats (the exemplar solves it once per
    item with ``scipy.optimize.fsolve``, ``O(N**2)``).  A cache that holds
    every such item never evicts one: ``inf``.

    Args:
        popularity: Per-item request weights (normalised here).
        capacity: Cache size in items, at least 1.

    Example — two equally popular items and room for one:

        >>> t = che_characteristic_time([1, 1], 1)
        >>> round(t, 6), round(float(2 * (1 - np.exp(-0.5 * t))), 12)
        (1.386294, 1.0)
    """
    p = _popularity(popularity)
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    p = p[p > 0]
    if capacity >= p.size:
        return float("inf")

    def filled(t: float) -> float:
        return float(-np.expm1(-p * t).sum())

    low, high = 0.0, float(capacity)
    while filled(high) < capacity:
        low, high = high, 2.0 * high
    while True:
        middle = 0.5 * (low + high)
        if middle in (low, high):
            return high
        if filled(middle) < capacity:
            low = middle
        else:
            high = middle


def che_per_content_hit_ratio(popularity, capacity: int) -> np.ndarray:
    """Each item's hit ratio in an LRU cache of ``capacity`` items:
    ``1 - exp(-p_i * t_C)``, 1 for every requested item where ``t_C`` is
    infinite."""
    p = _popularity(popularity)
    t = che_characteristic_time(p, capacity)
    if t == float("inf"):
        return (p > 0).astype(np.float64)
    return -np.expm1(-p * t)


def che_hit_ratio(popularity, capacity: int) -> float:
    """The share of requests an LRU cache of ``capacity`` items serves: the
    per-item hit ratios weighted by popularity.

        >>> round(che_hit_ratio([1, 1], 1), 6)
        0.5
    """
    p = _popularity(popularity)
    return float(np.dot(p, che_per_content_hit_ratio(p, capacity)))
