"""Zipfian key-popularity sampling.

The paper's synthetic workload draws keys from a Zipfian distribution with
exponent ``s = 1.3``.  :class:`ZipfSampler` implements bounded Zipf sampling
over a fixed key population using inverse-CDF lookup, which is fast enough to
generate millions of requests and exactly reproducible for a fixed seed.

The lookup is the indexed search of Chen & Asau ("On generating random
variates from an empirical distribution", AIIE Trans. 1974): the unit
interval is cut into a power-of-two number of equal buckets, and a uniform
whose bucket holds no step of the CDF reads its rank from a guide table
built once per sampler.  Only the draws that land in a bucket with a step
are searched, and every draw returns exactly the rank a binary search of
the whole CDF would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Guide buckets per key (rounded up to a power of two), and the most
#: buckets a table may hold: 128 KiB at 1 000 keys, 512 KiB at most.  Measured
#: on a 2-vCPU x86 container (numpy 2.4), a 16 384-draw chunk at 1 000 keys
#: and ``s = 1.3`` costs 180 µs with 5.6 % of its draws searched, against
#: 660 µs searching every draw.  64 buckets a key would cut that to 110 µs
#: (1.5 % searched), but raised the peak RSS of a 1 M-draw scalar replay by
#: 0.8 MiB where 16 raise it by 0.45.
_GUIDE_BUCKETS_PER_KEY = 16
_GUIDE_MAX_BUCKETS = 1 << 16


def _guide_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """The guide of an ascending ``cdf`` in ``[0, 1]`` over ``buckets`` (a
    power of two) equal buckets of the unit interval.

    Bucket ``j`` holds the uniforms ``u`` with ``floor(u * buckets) == j``,
    from ``j / buckets`` up to the float below ``(j + 1) / buckets``, and a
    uniform draws the count of CDF entries below it.  The guide holds that
    count at the bucket's first uniform, which stands for the whole bucket
    unless one of the CDF entries in the bucket (scaling by a power of two
    is exact) lies below its last float: there the guide says -1, search.
    """
    first = np.arange(buckets, dtype=np.float64) / buckets
    guide = np.searchsorted(cdf, first, side="left")
    entry_bucket = (cdf * buckets).astype(np.int64)
    next_bucket = (np.nextafter(cdf, 2.0) * buckets).astype(np.int64)
    inside = (entry_bucket == next_bucket) & (entry_bucket < buckets)
    guide[entry_bucket[inside]] = -1
    return guide


class ZipfSampler:
    """Sample key indices from a bounded Zipf (zeta) distribution.

    The probability of rank ``i`` (1-indexed) is ``i**-s / H(n, s)`` where
    ``H`` is the generalised harmonic number over ``n`` keys.

    Args:
        num_keys: Size of the key population (must be >= 1).
        exponent: Zipf exponent ``s`` (must be > 0).  Larger values
            concentrate more mass on the most popular keys.
        seed: Seed for the internal random generator.  Sampling with the same
            seed and arguments yields identical sequences.

    Attributes:
        draws: Ranks drawn so far, by every caller.
        searched: How many of them the CDF search resolved, because their
            bucket of the guide table holds a CDF step.
    """

    def __init__(self, num_keys: int, exponent: float, seed: int | None = None) -> None:
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys}")
        if exponent <= 0:
            raise ConfigurationError(f"Zipf exponent must be > 0, got {exponent}")
        self.num_keys = int(num_keys)
        self.exponent = float(exponent)
        ranks = np.arange(1, self.num_keys + 1, dtype=np.float64)
        weights = ranks ** (-self.exponent)
        self._probabilities = weights / weights.sum()
        cdf = np.cumsum(self._probabilities)
        # Rounding leaves the running sum a few ulps off 1.0, and a uniform
        # above a short last entry would draw rank ``num_keys``.  Entries at
        # or above 1.0 are below no uniform, so pinning them to 1.0 moves no
        # draw that had a rank.
        np.minimum(cdf, 1.0, out=cdf)
        cdf[-1] = 1.0
        self._cdf = cdf
        wanted = _GUIDE_BUCKETS_PER_KEY * self.num_keys
        buckets = min(_GUIDE_MAX_BUCKETS, 1 << (wanted - 1).bit_length())
        self._guide = _guide_table(cdf, buckets)
        self._buckets = float(buckets)
        self.draws = 0
        self.searched = 0
        self._rng = np.random.default_rng(seed)

    @property
    def probabilities(self) -> np.ndarray:
        """Per-rank probabilities, most popular first (rank 0 is hottest)."""
        return self._probabilities.copy()

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` key ranks (0-based) according to the distribution."""
        return self.sample_using(self._rng, count)

    def sample_using(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` key ranks (0-based) using a caller-supplied generator.

        Streaming workloads draw from a per-call generator so that two
        iterations over the same workload yield identical streams; the
        sampler's own generator (used by :meth:`sample`) is stateful across
        calls and cannot provide that guarantee.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        ranks = np.empty(count, dtype=np.int64)
        self._draw_into(rng, ranks, np.empty(count))
        return ranks

    def _draw_into(
        self, rng: np.random.Generator, ranks: np.ndarray, uniform: np.ndarray
    ) -> None:
        """Draw ``ranks.size`` ranks into ``ranks`` (``int64``), with
        ``uniform`` (``float64``, as long) as the buffer of their uniforms:
        the draw loops hand views of their own columns, so no draw allocates
        a rank column of its own.

        The bucket of each uniform is cast straight into the rank column
        (scaling by a power of two is exact, and truncation is floor on
        [0, 1)), the guide entry overwrites it in place (``take`` reads each
        slot before writing it), and only the -1 entries are searched.
        """
        if ranks.size == 0:
            return
        rng.random(out=uniform)
        np.multiply(uniform, self._buckets, out=ranks, casting="unsafe")
        np.take(self._guide, ranks, out=ranks, mode="clip")
        searched = np.flatnonzero(ranks < 0)
        ranks[searched] = np.searchsorted(self._cdf, uniform[searched], side="left")
        self.draws += ranks.size
        self.searched += searched.size

    def expected_rates(self, total_rate: float) -> np.ndarray:
        """Split an aggregate request rate across keys by popularity.

        Args:
            total_rate: Aggregate arrival rate (requests/second) over all keys.

        Returns:
            Per-key arrival rates, hottest key first.
        """
        if total_rate < 0:
            raise ConfigurationError(f"total_rate must be >= 0, got {total_rate}")
        return self._probabilities * total_rate
