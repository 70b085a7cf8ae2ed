"""Exact per-key E[W] tracking with three counters per key (§3.3).

For every key the tracker keeps:

* ``C1`` — the sum of completed E[W] samples (each sample is the length of a
  run of consecutive writes terminated by a read),
* ``C2`` — the number of samples, and
* ``C3`` — the number of consecutive writes since the last read.

``E[W] = C1 / C2``.  This is the ground truth the sketches approximate; its
storage grows linearly with the number of keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.sketch.base import EWEstimator


@dataclass(slots=True)
class _KeyCounters:
    """The three per-key counters described in the paper."""

    sample_sum: int = 0  # C1
    sample_count: int = 0  # C2
    writes_since_read: int = 0  # C3


class ExactEWTracker(EWEstimator):
    """Exact E[W] tracking using three counters per key.

    Args:
        default_estimate: E[W] returned for keys with no completed sample yet.
        count_zero_runs: Whether a read that follows another read contributes
            a zero-length sample.  The paper's counter description only adds a
            sample after at least one write; the default matches that.
    """

    name = "exact"

    #: Approximate per-key storage: three 8-byte counters plus a key
    #: reference (pointer-sized); key bytes themselves are accounted
    #: separately by :func:`repro.sketch.memory.estimator_memory_bytes`.
    BYTES_PER_KEY = 3 * 8 + 8

    def __init__(self, default_estimate: float = 1.0, count_zero_runs: bool = False) -> None:
        self.default_estimate = float(default_estimate)
        self.count_zero_runs = bool(count_zero_runs)
        self._counters: Dict[str, _KeyCounters] = {}

    def _counters_for(self, key: str) -> _KeyCounters:
        counters = self._counters.get(key)
        if counters is None:
            counters = _KeyCounters()
            self._counters[key] = counters
        return counters

    # The per-request observers inline that probe (one dict lookup, no
    # frame); an unseen key is inserted at its first observation either way,
    # so ``state()`` lists keys in first-seen order.
    def observe_write(self, key: str) -> None:
        """Record a write: extend the current run of writes (increment C3)."""
        counters = self._counters.get(key)
        if counters is None:
            self._counters[key] = _KeyCounters(writes_since_read=1)
        else:
            counters.writes_since_read += 1

    def observe_read(self, key: str) -> None:
        """Record a read: complete the current run (fold C3 into C1/C2)."""
        counters = self._counters.get(key)
        if counters is None:
            counters = self._counters[key] = _KeyCounters()
        if counters.writes_since_read > 0 or self.count_zero_runs:
            counters.sample_sum += counters.writes_since_read
            counters.sample_count += 1
            counters.writes_since_read = 0

    def estimate(self, key: str) -> float:
        """Return ``C1 / C2`` for ``key``, or the default prior if no samples."""
        counters = self._counters.get(key)
        if counters is None or counters.sample_count == 0:
            return self.default_estimate
        return counters.sample_sum / counters.sample_count

    def tracked_keys(self) -> int:
        """Number of keys with at least one observation."""
        return len(self._counters)

    def memory_bytes(self) -> int:
        """Memory of the counter table (keys accounted at 16 bytes each)."""
        key_bytes = sum(len(key) for key in self._counters)
        return len(self._counters) * self.BYTES_PER_KEY + key_bytes

    def reset(self) -> None:
        """Forget all per-key counters."""
        self._counters.clear()

    def state(self) -> List[List[Any]]:
        """The counters as ``[key, C1, C2, C3]`` rows, in insertion order."""
        return [
            [key, counters.sample_sum, counters.sample_count, counters.writes_since_read]
            for key, counters in self._counters.items()
        ]

    def load_state(self, rows: List[List[Any]]) -> None:
        """Replace every counter with the rows of :meth:`state`, in their order."""
        self._counters.clear()
        for key, sample_sum, sample_count, writes_since_read in rows:
            self._counters[key] = _KeyCounters(sample_sum, sample_count, writes_since_read)
