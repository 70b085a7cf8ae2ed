"""Counters, gauges, and log-bucketed percentile histograms.

The histogram uses an HDR-style *fixed* bucket layout: one bucket for exact
zeros, ``SUB_BUCKETS`` linear sub-buckets per power-of-two octave across a
fixed exponent range, and one overflow bucket.  Because the layout never
depends on the observed data, merging two histograms — e.g. the run-level
latency buckets of a fleet's nodes — is an exact integer addition of bucket
counts, and percentile estimates are identical whether samples were recorded
in one histogram or merged from many.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

# Fixed bucket geometry.  Octaves cover 2**-20 (~1e-6, sub-microsecond
# timings) through 2**30 (~1e9, large cost totals); values outside land in
# the zero/overflow buckets.  4 sub-buckets per octave bounds the relative
# quantile error at ~12.5%.
MIN_EXPONENT = -20
MAX_EXPONENT = 30
SUB_BUCKETS = 4

_ZERO_BUCKET = 0
_FIRST_BUCKET = 1
_NUM_OCTAVES = MAX_EXPONENT - MIN_EXPONENT
_OVERFLOW_BUCKET = _FIRST_BUCKET + _NUM_OCTAVES * SUB_BUCKETS
NUM_BUCKETS = _OVERFLOW_BUCKET + 1


def bucket_index(value: float) -> int:
    """Map a non-negative sample to its fixed bucket index."""
    if value <= 0.0:
        return _ZERO_BUCKET
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent, mantissa in [0.5, 1)
    octave = exponent - 1 - MIN_EXPONENT
    if octave < 0:
        return _ZERO_BUCKET
    if octave >= _NUM_OCTAVES:
        return _OVERFLOW_BUCKET
    sub = int((mantissa * 2.0 - 1.0) * SUB_BUCKETS)
    if sub >= SUB_BUCKETS:  # mantissa rounding at the octave edge
        sub = SUB_BUCKETS - 1
    return _FIRST_BUCKET + octave * SUB_BUCKETS + sub


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of a bucket (``inf`` for the overflow bucket)."""
    if index <= _ZERO_BUCKET:
        return 0.0
    if index >= _OVERFLOW_BUCKET:
        return math.inf
    offset = index - _FIRST_BUCKET
    octave, sub = divmod(offset, SUB_BUCKETS)
    low = math.ldexp(1.0, MIN_EXPONENT + octave)  # octave covers [low, 2*low)
    return low * (1.0 + (sub + 1) / SUB_BUCKETS)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def as_dict(self) -> float:
        return self.value


class Gauge:
    """A named value that can be set arbitrarily (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> float:
        return self.value


class Histogram:
    """Log-bucketed histogram with exact merges and percentile estimates.

    Bucket counts are stored sparsely (``{index: count}``); ``sum`` and
    ``count`` are tracked alongside so Prometheus ``_sum``/``_count`` series
    and mean values are exact even though individual samples are quantized.
    """

    __slots__ = ("name", "counts", "count", "sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum += value

    def percentile(self, quantile: float) -> float:
        """Upper bound of the bucket containing the given quantile (0..1).

        Edge cases are pinned:

        * **Empty histogram** — returns ``0.0`` for every quantile (there is
          no sample to bound; callers that must distinguish "no data" from
          "all zeros" should check :attr:`count` first).
        * **``quantile=0.0``** — the rank floors at 1, so this returns the
          bucket bound of the *smallest* recorded sample, not 0.
        * **``quantile=1.0``** — the bucket bound of the largest recorded
          sample (``inf`` only if a sample overflowed the bucket range).
        * **Single sample** — every quantile in ``[0, 1]`` returns that
          sample's bucket bound.
        * Quantiles outside ``[0, 1]`` raise :class:`ValueError`.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(quantile * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return bucket_upper_bound(index)
        return bucket_upper_bound(_OVERFLOW_BUCKET)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.sum += other.sum

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counts": {str(index): self.counts[index] for index in sorted(self.counts)},
            "count": self.count,
            "sum": self.sum,
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "Histogram":
        histogram = cls(name)
        histogram.counts = {int(index): int(n) for index, n in data.get("counts", {}).items()}
        histogram.count = int(data.get("count", 0))
        histogram.sum = float(data.get("sum", 0.0))
        return histogram


class MetricsRegistry:
    """Ordered collection of named counters, gauges, and histograms.

    Metrics are created on first access (``counter(name)`` etc.) and
    serialized in insertion order so registry dumps are deterministic.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {name: metric.value for name, metric in self._counters.items()},
            "gauges": {name: metric.value for name, metric in self._gauges.items()},
            "histograms": {name: metric.as_dict() for name, metric in self._histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).value = value
        for name, payload in data.get("histograms", {}).items():
            registry._histograms[name] = Histogram.from_dict(name, payload)
        return registry
