"""Synthetic stand-in for the Twitter production cache workload.

The paper replays traces from the Twitter in-memory cache study (Yang et al.,
ATC'21).  Those traces are not redistributable, so this module generates a
synthetic workload reproducing the properties the evaluation depends on:

* Zipfian popularity with moderate skew (exponent ~0.9),
* a sizeable write fraction — the Twitter study reports many clusters that
  are write-heavy compared to classic CDN-style caches (default ``r = 0.8``),
* per-cluster heterogeneity: a fraction of the key space is write-dominated
  (e.g. counters and timelines), the rest read-dominated, and
* diurnal rate modulation (a slow sinusoidal envelope on the arrival rate).

See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from typing import Iterator, Tuple

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


class TwitterWorkload(Workload):
    """Synthetic workload modelled on Twitter's production cache clusters.

    Args:
        num_keys: Number of distinct keys.
        total_rate: Mean aggregate request rate in requests/second.
        read_ratio: Read probability for the read-dominated part of the key
            space.
        write_heavy_read_ratio: Read probability for the write-dominated part.
        write_heavy_key_fraction: Fraction of keys that are write-dominated.
        zipf_exponent: Popularity skew (default 0.9).
        diurnal_amplitude: Relative amplitude of the sinusoidal rate envelope
            (0 disables modulation, 0.5 means the rate swings +/-50%).
        diurnal_period: Period of the rate envelope in seconds.
        key_size: Key size in bytes.
        value_size: Mean value size in bytes (Twitter objects are small).
        seed: Seed for reproducible generation.
    """

    name = "twitter"

    def __init__(
        self,
        num_keys: int = 500,
        total_rate: float = 1500.0,
        read_ratio: float = 0.9,
        write_heavy_read_ratio: float = 0.35,
        write_heavy_key_fraction: float = 0.3,
        zipf_exponent: float = 0.9,
        diurnal_amplitude: float = 0.3,
        diurnal_period: float = 60.0,
        key_size: int = 32,
        value_size: int = 64,
        seed: int | None = None,
    ) -> None:
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys}")
        if total_rate <= 0:
            raise ConfigurationError(f"total_rate must be > 0, got {total_rate}")
        for name, value in (
            ("read_ratio", read_ratio),
            ("write_heavy_read_ratio", write_heavy_read_ratio),
            ("write_heavy_key_fraction", write_heavy_key_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}"
            )
        if diurnal_period <= 0:
            raise ConfigurationError(f"diurnal_period must be > 0, got {diurnal_period}")
        self.num_keys = int(num_keys)
        self.total_rate = float(total_rate)
        self.read_ratio = float(read_ratio)
        self.write_heavy_read_ratio = float(write_heavy_read_ratio)
        self.write_heavy_key_fraction = float(write_heavy_key_fraction)
        self.zipf_exponent = float(zipf_exponent)
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.diurnal_period = float(diurnal_period)
        self.key_size = int(key_size)
        self.value_size = int(value_size)
        self.seed = seed
        self._sampler = ZipfSampler(num_keys=num_keys, exponent=zipf_exponent, seed=seed)
        self._key_names: list[str] | None = None

    def key_name(self, rank: int) -> str:
        """Return the key name for a popularity rank (0 is the hottest key)."""
        return f"tw-{rank:06d}"

    def key_names(self) -> list[str]:
        """The rank -> key-name table, formatted once per workload."""
        if self._key_names is None:
            self._key_names = [self.key_name(rank) for rank in range(self.num_keys)]
        return self._key_names

    @property
    def _write_heavy_stride(self) -> int | None:
        """Rank stride of the write-heavy slice (``None`` when disabled)."""
        if self.write_heavy_key_fraction <= 0.0:
            return None
        return max(1, round(1.0 / self.write_heavy_key_fraction))

    def is_write_heavy_key(self, rank: int) -> bool:
        """Return whether the key at ``rank`` belongs to the write-heavy slice.

        Write-heavy keys are spread across the popularity distribution (every
        ``1/fraction``-th rank) rather than clustered at the head or tail, so
        both hot and cold keys appear in each class.
        """
        stride = self._write_heavy_stride
        return stride is not None and rank % stride == 0

    def _read_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorised per-request read probability (see :meth:`is_write_heavy_key`)."""
        probabilities = np.full(ranks.shape, self.read_ratio)
        stride = self._write_heavy_stride
        if stride is not None:
            probabilities[ranks % stride == 0] = self.write_heavy_read_ratio
        return probabilities

    def iter_requests(self, duration: float) -> Iterator[Request]:
        """Lazily yield a time-ordered request stream covering ``[0, duration)``.

        The diurnally-modulated process is generated by thinning: candidate
        arrivals are drawn at the peak rate chunk by chunk and accepted with
        probability proportional to the sinusoidal envelope.  All randomness
        comes from a per-call generator, so iteration is repeatable.  The
        duration is validated eagerly, so a bad value fails at the call site.
        """
        return ChunkStream(self.iter_columns(validate_duration(duration)), self.key_names())

    #: The columns the draw loop writes: times, key ranks, read flags, value
    #: sizes.
    _DRAWN = (np.float64, np.int64, np.bool_, np.int64)

    def iter_columns(self, duration: float) -> Iterator[Columns]:
        """Draw the stream a chunk at a time (key ids are popularity ranks),
        each chunk into arrays of its own."""
        return map(self._columns, self._draw(duration, fresh_chunks(self._DRAWN)))

    def _columns(self, drawn: Tuple[np.ndarray, ...]) -> Columns:
        """The drawn columns of a chunk, or of a whole compiled trace, with
        the constant key-size column beside them."""
        times, ranks, is_read, value_sizes = drawn
        return times, ranks, is_read, constant_column(self.key_size, times.size), value_sizes

    def _draw(self, duration: float, take: Take) -> Iterator[Tuple[np.ndarray, ...]]:
        """The draw loop: each chunk's accepted arrivals into the views
        ``take`` hands it, yielded whole.

        The draw sequence (gaps, accept flips, ranks, read flips, value
        sizes — in that order) is pinned by the equivalence tests; this is
        its only copy.  The candidates and their flips live in buffers of
        the loop's own, one chunk wide.
        """
        rng = np.random.default_rng(self.seed)
        peak_rate = self.total_rate * (1.0 + self.diurnal_amplitude)
        mean_gap = 1.0 / peak_rate
        candidate = np.empty(STREAM_CHUNK_SIZE)
        uniform = np.empty(STREAM_CHUNK_SIZE)
        accept = np.empty(STREAM_CHUNK_SIZE, dtype=np.bool_)
        now = 0.0
        while now < duration:
            # ``rng.exponential(mean_gap, size)``'s floats, drawn in place.
            rng.standard_exponential(out=candidate)
            candidate *= mean_gap
            np.cumsum(candidate, out=candidate)
            candidate += now
            now = float(candidate[-1])
            envelope = 1.0 + self.diurnal_amplitude * np.sin(
                2.0 * np.pi * candidate / self.diurnal_period
            )
            rng.random(out=uniform)
            np.less(uniform, (self.total_rate * envelope) / peak_rate, out=accept)
            if now >= duration:
                accept &= candidate < duration
            count = int(np.count_nonzero(accept))
            times, ranks, is_read, value_sizes = take(count)
            np.compress(accept, candidate, out=times)
            drawn = uniform[:count]
            self._sampler._draw_into(rng, ranks, drawn)
            rng.random(out=drawn)
            np.less(drawn, self._read_probabilities(ranks), out=is_read)
            # Float to int64 truncates, as ``astype`` does.
            value_sizes[...] = np.maximum(
                8, rng.lognormal(mean=np.log(self.value_size), sigma=0.6, size=count)
            )
            yield times, ranks, is_read, value_sizes
