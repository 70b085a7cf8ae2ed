"""Exact references: what the engines must reproduce, derived for the model.

:mod:`repro.model.analytical` holds the paper's closed forms; this module
holds exact forms for the same per-key Poisson model, named apart so that one
is not mistaken for the other.  The paper is conf/hotnets/MaoISS24 (Mao,
Iyer, Shenker, Stoica, "Revisiting Cache Freshness for Emerging Real-Time
Applications", HotNets '24).

**TTL-expiry misses: the renewal form.**  A key's reads arrive as a Poisson
process of rate ``λ_r = r·λ``.  A miss fetches the object and anchors the TTL
at that fetch: the entry serves every read for ``T`` seconds, and the first
read after that is the next miss.  Reads are memoryless, so the wait for it
is ``Exp(λ_r)`` whatever happened before, and the gaps between misses are
independent cycles of length ``T + Exp(λ_r)``: a renewal process with mean
``μ = T + 1/λ_r`` and variance ``σ² = 1/λ_r²``.  By the renewal theorem the
misses per unit time are ``1/μ = λ_r / (1 + λ_r T)``, the standard TTL-cache
result (Jung, Berger and Balakrishnan, "Modeling TTL-based Internet Caches",
INFOCOM 2003); by the renewal central limit theorem the count over a horizon
``H`` is approximately normal with mean ``H/μ`` and variance ``H σ²/μ³``.

The paper charges ``(T'/T)·P_R(T)``: one miss for each interval of a fixed
grid of width ``T`` that holds a read.  That drops the anchoring at the
fetch.  A TTL starts at the read that missed, not at a grid line, so each
cycle is ``T`` *plus* the wait for the next read.  The two forms agree when
``λ_r T`` is small (both near ``λ_r``) or large (both near ``1/T``); in
between the grid form overcharges, by up to 30 % near ``λ_r T = 1.8``.

**Invalidate misses: the ordered two-state chain.**  Under invalidate the
backend buffers a key's writes and, at the end of each interval of width
``T`` (the staleness bound), sends one invalidate if the key was written
while the cache held it.  A miss re-fetches the latest value and discards
the writes buffered before it, and an invalidate for a key already
invalidated and not re-fetched is suppressed.  So a key starts each interval
*valid* (V) or *invalidated* (I), and only the order of the interval's
events moves it:

* from V, any write (probability ``P_W = 1 - e^{-λ_w T}``) ends the interval
  in I: ``P(V→I) = P_W``;
* from I, the first read (at ``τ ~ Exp(λ_r)``, if ``τ < T``) misses and
  re-fetches, and the key ends in V only if no write follows it in the
  interval, so ``P(I→V) = D = ∫₀ᵀ λ_r e^{-λ_r τ} e^{-λ_w (T-τ)} dτ
  = λ_r T e^{-λ_w T} (1 - e^{-x}) / x`` with ``x = (λ_r - λ_w) T`` (the
  factor is 1 at ``x = 0``), and ``P(I→I) = (1 - P_R) + (P_R - D)``.

An interval that starts in I and holds a read has exactly one miss, so the
chain's stationary ``π_I = P_W / (P_W + D)`` gives ``π_I P_R`` misses per
interval.  Each fill is invalidated once before the next miss (V→I and I→V
alternate), so the invalidates sent per interval are the same ``π_I P_R``:
the count differs from the misses by at most one, the first or the last.

The paper's recurrence ``p = p (1 - P_R) + (1 - p) P_W``
(:func:`repro.model.analytical.steady_state_invalidated_probability`) lets a
read in an invalidated interval make the key valid for good: it drops the
term ``P_R - D``, the reads followed by a write in the same interval, whose
fill the flush invalidates again.  Its fixed point ``P_W / (P_R + P_W)``
therefore lies below ``π_I``, the further the more writes fall within ``T``.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.model.arrivals import _validate, p_read, p_write


def ttl_expiry_miss_rate(rate: float, read_ratio: float, ttl: float) -> float:
    """Misses per unit time of one key under TTL-expiry: ``λ_r / (1 + λ_r T)``
    (Jung, Berger and Balakrishnan, INFOCOM 2003).

    A miss anchors the TTL at its fetch, so a cycle between misses is ``T``
    plus the wait for the first read after the expiry, ``Exp(λ_r)``: mean
    ``μ = T + 1/λ_r``, and ``1/μ`` misses per unit time.  The paper's
    ``(T'/T)·P_R(T)`` (conf/hotnets/MaoISS24) counts one miss per interval
    of a fixed grid of width ``T`` that holds a read: it drops that wait,
    the ``1/λ_r`` of each cycle, by starting every TTL at a grid line.

    Args:
        rate: The key's request rate ``λ``.
        read_ratio: The share ``r`` of requests that are reads.
        ttl: The TTL ``T``, anchored at each fetch.

    Example — one read a second and a one-second TTL miss every two seconds:

        >>> ttl_expiry_miss_rate(rate=1.0, read_ratio=1.0, ttl=1.0)
        0.5
    """
    _validate(rate, read_ratio, ttl)
    reads = rate * read_ratio
    return reads / (1.0 + reads * ttl)


def invalidate_chain(rate: float, read_ratio: float, bound: float) -> Tuple[float, float]:
    """``(P(I→I), P(V→I))`` of one key's ordered two-state chain under
    invalidate, per interval of width ``bound``.

    Args:
        rate: The key's request rate ``λ``.
        read_ratio: The share ``r`` of requests that are reads.
        bound: The staleness bound ``T``, the flush interval.

    Example — reads only: a fill is never invalidated again:

        >>> invalidate_chain(rate=2.0, read_ratio=1.0, bound=0.5)[1]
        0.0
    """
    _validate(rate, read_ratio, bound)
    reads, writes = rate * read_ratio, rate * (1.0 - read_ratio)
    x = (reads - writes) * bound
    spread = 1.0 if x == 0.0 else -math.expm1(-x) / x
    read_then_quiet = reads * bound * math.exp(-writes * bound) * spread
    return 1.0 - read_then_quiet, p_write(rate, read_ratio, bound)


def invalidate_miss_rate(rate: float, read_ratio: float, bound: float) -> float:
    """Misses per unit time of one key under invalidate, ``π_I P_R / T``: the
    exact counterpart of the paper's ``p P_R / T``, and equally the rate of
    invalidates sent.

    Example — one read and one write a second, flushed every second:

        >>> round(invalidate_miss_rate(rate=2.0, read_ratio=0.5, bound=1.0), 4)
        0.3996
    """
    stay, leave = invalidate_chain(rate, read_ratio, bound)
    if leave == 0.0:
        return 0.0
    invalidated = leave / (leave + 1.0 - stay)
    return invalidated * p_read(rate, read_ratio, bound) / bound
