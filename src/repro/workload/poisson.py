"""Synthetic Poisson workload with Zipfian key popularity.

This is the "Poisson" workload from the paper's evaluation (Figures 2, 3, and
5): requests to each key arrive as a Poisson process, each request is
independently a read with probability ``r`` and a write otherwise, and the
per-key arrival rates follow a Zipf distribution across the key population
(``s = 1.3`` in the paper).

Generation is incremental: arrivals are drawn as exponential inter-arrival
gaps in vectorised chunks, so iterating a multi-hour trace holds only one
chunk (:data:`~repro.workload.base.STREAM_CHUNK_SIZE` requests) in memory at
a time.  The draw loop exists once, as ``PoissonZipfWorkload._draw``: it
writes each chunk into views its caller hands it, fresh chunk arrays for the
stream (:meth:`PoissonZipfWorkload.iter_columns`, and the object stream made
from it) and slices of whole-trace columns for ``compile_workload``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.base import (
    STREAM_CHUNK_SIZE,
    ChunkStream,
    Columns,
    Request,
    Take,
    Workload,
    constant_column,
    fresh_chunks,
    validate_duration,
)
from repro.workload.zipf import ZipfSampler


@dataclass(slots=True)
class PoissonKeyProfile:
    """Arrival characteristics of a single key in a Poisson workload."""

    key: str
    rate: float
    read_ratio: float


class PoissonZipfWorkload(Workload):
    """Poisson arrivals per key with Zipf-distributed per-key rates.

    The aggregate arrival rate is ``rate_per_key * num_keys`` and is divided
    across keys proportionally to a bounded Zipf distribution, so the hottest
    key receives far more than ``rate_per_key`` and the coldest far less.
    Setting ``zipf_exponent`` close to zero approaches a uniform split.

    Args:
        num_keys: Number of distinct keys.
        rate_per_key: Mean per-key arrival rate in requests/second.  The
            paper uses ``lambda = 10``.
        read_ratio: Probability that a request is a read (``r`` in the paper).
        zipf_exponent: Skew of the popularity distribution (``s = 1.3``).
        key_size: Key size in bytes attached to every request.
        value_size: Value size in bytes attached to every request.
        key_prefix: Prefix used when building key names.
        seed: Seed for reproducible generation.
    """

    name = "poisson"

    def __init__(
        self,
        num_keys: int = 100,
        rate_per_key: float = 10.0,
        read_ratio: float = 0.9,
        zipf_exponent: float = 1.3,
        key_size: int = 16,
        value_size: int = 128,
        key_prefix: str = "key",
        seed: int | None = None,
    ) -> None:
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys}")
        if rate_per_key <= 0:
            raise ConfigurationError(f"rate_per_key must be > 0, got {rate_per_key}")
        if not 0.0 <= read_ratio <= 1.0:
            raise ConfigurationError(f"read_ratio must be in [0, 1], got {read_ratio}")
        self.num_keys = int(num_keys)
        self.rate_per_key = float(rate_per_key)
        self.read_ratio = float(read_ratio)
        self.zipf_exponent = float(zipf_exponent)
        self.key_size = int(key_size)
        self.value_size = int(value_size)
        self.key_prefix = key_prefix
        self.seed = seed
        self._sampler = ZipfSampler(num_keys=num_keys, exponent=zipf_exponent, seed=seed)
        self._key_names: List[str] | None = None

    def key_name(self, rank: int) -> str:
        """Return the key name for a popularity rank (0 is the hottest key)."""
        return f"{self.key_prefix}-{rank:06d}"

    def key_names(self) -> List[str]:
        """The rank -> key-name table, formatted once per workload."""
        if self._key_names is None:
            self._key_names = [self.key_name(rank) for rank in range(self.num_keys)]
        return self._key_names

    def key_profiles(self) -> List[PoissonKeyProfile]:
        """Return the per-key arrival rate and read ratio.

        These profiles feed the analytical model when overlaying theoretical
        curves on simulation results (Figures 2 and 3).
        """
        total_rate = self.rate_per_key * self.num_keys
        rates = self._sampler.expected_rates(total_rate)
        return [
            PoissonKeyProfile(key=self.key_name(rank), rate=float(rate), read_ratio=self.read_ratio)
            for rank, rate in enumerate(rates)
        ]

    def iter_requests(self, duration: float) -> Iterator[Request]:
        """Lazily yield a time-ordered request stream covering ``[0, duration)``.

        All randomness comes from a generator seeded per call, so iterating
        twice yields identical streams.  The duration is validated eagerly
        (here, not at first ``next()``), so a bad value fails at the call site.
        """
        return ChunkStream(self.iter_columns(validate_duration(duration)), self.key_names())

    #: The columns the draw loop writes: times, key ranks, read flags.
    _DRAWN = (np.float64, np.int64, np.bool_)

    def iter_columns(self, duration: float) -> Iterator[Columns]:
        """Draw the stream a chunk at a time (key ids are popularity ranks),
        each chunk into arrays of its own."""
        return map(self._columns, self._draw(duration, fresh_chunks(self._DRAWN)))

    def _columns(self, drawn: Tuple[np.ndarray, ...]) -> Columns:
        """The drawn columns of a chunk, or of a whole compiled trace, with
        the constant size columns beside them."""
        times, ranks, is_read = drawn
        return (
            times,
            ranks,
            is_read,
            constant_column(self.key_size, times.size),
            constant_column(self.value_size, times.size),
        )

    def _draw(self, duration: float, take: Take) -> Iterator[Tuple[np.ndarray, ...]]:
        """The draw loop: each chunk into the views ``take`` hands it, and
        the in-horizon prefix of those views yielded.

        The per-chunk draw sequence (exponential gaps, Zipf ranks, read coin
        flips — in that order, always STREAM_CHUNK_SIZE wide) is pinned by
        the equivalence tests; this is its only copy.
        """
        rng = np.random.default_rng(self.seed)
        mean_gap = 1.0 / (self.rate_per_key * self.num_keys)
        sampler = self._sampler
        uniform = np.empty(STREAM_CHUNK_SIZE)
        now = 0.0
        while now < duration:
            times, ranks, is_read = take(STREAM_CHUNK_SIZE)
            # ``rng.exponential(mean_gap, size)`` scales standard exponentials
            # by ``mean_gap``: the same floats, drawn in place.
            rng.standard_exponential(out=times)
            times *= mean_gap
            np.cumsum(times, out=times)
            times += now
            now = float(times[-1])
            sampler._draw_into(rng, ranks, uniform)
            rng.random(out=uniform)
            np.less(uniform, self.read_ratio, out=is_read)
            keep = STREAM_CHUNK_SIZE
            if now >= duration:
                # ``times`` ascends (gaps are non-negative), so the in-horizon
                # subset is exactly the prefix before ``duration``.
                keep = int(np.searchsorted(times, duration, side="left"))
            yield times[:keep], ranks[:keep], is_read[:keep]
