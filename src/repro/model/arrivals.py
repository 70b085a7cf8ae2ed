"""Poisson arrival probabilities used throughout the analytical model.

Requests to a key arrive as a Poisson process with rate ``lambda``; each
request is independently a read with probability ``r`` and a write with
probability ``1 - r``.  By Poisson thinning the read and write streams are
independent Poisson processes with rates ``lambda * r`` and
``lambda * (1 - r)``, so the probability of seeing at least one read (write)
within an interval ``T`` is ``1 - exp(-lambda * r * T)``
(``1 - exp(-lambda * (1 - r) * T)``).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def _validate(rate: float, read_ratio: float, interval: float) -> None:
    if rate < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate}")
    if not 0.0 <= read_ratio <= 1.0:
        raise ConfigurationError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if interval < 0:
        raise ConfigurationError(f"interval must be >= 0, got {interval}")


def p_read(rate: float, read_ratio: float, interval: float) -> float:
    """``P_R(T)``: probability of at least one read to the key within ``T``."""
    _validate(rate, read_ratio, interval)
    return 1.0 - math.exp(-rate * read_ratio * interval)


def p_write(rate: float, read_ratio: float, interval: float) -> float:
    """``P_W(T)``: probability of at least one write to the key within ``T``."""
    _validate(rate, read_ratio, interval)
    return 1.0 - math.exp(-rate * (1.0 - read_ratio) * interval)


def expected_reads(rate: float, read_ratio: float, horizon: float) -> float:
    """``N_R``: expected number of reads to the key over a horizon ``T'``."""
    _validate(rate, read_ratio, horizon)
    return rate * read_ratio * horizon


def expected_writes_between_reads(read_ratio: float) -> float:
    """``E[W]``: expected number of writes between consecutive reads.

    Under independent request types, each request is a write with probability
    ``1 - r``, so the run length of writes before a read is geometric with
    mean ``(1 - r) / r``.  Undefined (infinite) when the key is never read.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ConfigurationError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if read_ratio == 0.0:
        return float("inf")
    return (1.0 - read_ratio) / read_ratio
