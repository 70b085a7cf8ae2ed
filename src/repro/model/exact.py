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
"""

from __future__ import annotations

from repro.model.arrivals import _validate


def ttl_expiry_miss_rate(rate: float, read_ratio: float, ttl: float) -> float:
    """Misses per unit time of one key under TTL-expiry: ``λ_r / (1 + λ_r T)``.

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
