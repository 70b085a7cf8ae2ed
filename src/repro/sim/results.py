"""Simulation results and the cost normalisations of §2.2.

:class:`SimulationResult` accumulates the raw counters during a run and
derives the two headline metrics of the paper:

* :attr:`SimulationResult.normalized_freshness_cost` — :math:`C'_F`, the
  freshness (throughput) overhead divided by the useful work spent serving
  reads ("the ratio of the wasted cycles to the useful cycles"), and
* :attr:`SimulationResult.normalized_staleness_cost` — :math:`C'_S`, the miss
  ratio caused solely by reading stale data (stale-induced misses divided by
  the reads for which the object was present in the cache).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict

from repro.obs.metrics import bucket_upper_bound


@dataclass(slots=True)
class SimulationResult:
    """Counters and costs accumulated over one simulation run."""

    policy_name: str = ""
    workload_name: str = ""
    staleness_bound: float = 0.0
    duration: float = 0.0

    # Request counters.
    reads: int = 0
    writes: int = 0
    hits: int = 0
    stale_misses: int = 0
    cold_misses: int = 0

    # Costs (dimensionless cost units from the CostModel).
    freshness_cost: float = 0.0
    cold_miss_cost: float = 0.0
    useful_work: float = 0.0

    # Message counters.
    invalidates_sent: int = 0
    updates_sent: int = 0
    updates_wasted: int = 0
    suppressed_invalidates: int = 0
    decisions_nothing: int = 0
    polls: int = 0
    stale_refetches: int = 0
    messages_dropped: int = 0

    # Integrity checks.
    staleness_violations: int = 0

    # Persistence-layer counters (zero unless a store is configured).
    persistence_cost: float = 0.0
    wal_appends: int = 0
    wal_flushes: int = 0
    snapshots_taken: int = 0

    # Concurrency counters (zero unless the in-flight fetch model is
    # enabled; see :mod:`repro.concurrency`).
    backend_fetches: int = 0
    coalesced_reads: int = 0
    stale_serves: int = 0
    early_refreshes: int = 0

    # Read-latency distribution (HDR bucket index -> sample count, using the
    # :mod:`repro.obs.metrics` bucket layout).  Empty unless the concurrency
    # model is enabled; merged bucket-wise when accumulating across shards.
    latency_buckets: Dict[int, int] = field(default_factory=dict)
    latency_count: int = 0
    latency_sum: float = 0.0

    # Cache-level statistics snapshot (filled at the end of the run).
    cache_stats: Dict[str, float] = field(default_factory=dict)

    #: Counter fields summed when accumulating results across shards: every
    #: numeric field but the run's coordinates (filled in below the class).
    ACCUMULATED_FIELDS = ()

    def accumulate(self, other: "SimulationResult") -> None:
        """Add another result's counters into this one (fleet aggregation).

        Identity fields (policy, workload, bound, duration) are left
        untouched.  ``cache_stats`` counters are summed key-wise; the derived
        per-cache ratios are recomputed from the summed counters (summing
        ratios across shards would be meaningless).
        """
        for name in self.ACCUMULATED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.latency_buckets:
            buckets = self.latency_buckets
            for index, count in other.latency_buckets.items():
                buckets[index] = buckets.get(index, 0) + count
        stats = self.cache_stats
        for key, value in other.cache_stats.items():
            if key.endswith("_ratio"):
                continue
            stats[key] = stats.get(key, 0) + value
        lookups = stats.get("lookups", 0)
        hits = stats.get("hits", 0)
        stale = stats.get("stale_misses", 0)
        cold = stats.get("cold_misses", 0)
        stats["hit_ratio"] = hits / lookups if lookups else 0.0
        stats["miss_ratio"] = (stale + cold) / lookups if lookups else 0.0
        stats["stale_miss_ratio"] = stale / (hits + stale) if hits + stale else 0.0

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def staleness_cost(self) -> float:
        """:math:`C_S`: the number of misses caused by stale cached data."""
        return float(self.stale_misses)

    @property
    def total_requests(self) -> int:
        """Total number of requests replayed."""
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        """Total misses of any kind."""
        return self.stale_misses + self.cold_misses

    @property
    def miss_ratio(self) -> float:
        """Fraction of reads that missed for any reason."""
        return self.misses / self.reads if self.reads else 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served directly from the cache."""
        return self.hits / self.reads if self.reads else 0.0

    @property
    def normalized_freshness_cost(self) -> float:
        """:math:`C'_F`: freshness overhead relative to useful read-serving work."""
        if self.useful_work <= 0.0:
            return 0.0
        return self.freshness_cost / self.useful_work

    @property
    def normalized_staleness_cost(self) -> float:
        """:math:`C'_S`: miss ratio caused solely by reading stale data.

        Normalised by the reads for which the requested object was present in
        the cache (hits plus stale misses), per §2.2.
        """
        present = self.hits + self.stale_misses
        if present == 0:
            return 0.0
        return self.stale_misses / present

    def read_latency_percentile(self, quantile: float) -> float:
        """Latency quantile from the HDR buckets (0.0 when no samples).

        Mirrors :meth:`repro.obs.metrics.Histogram.percentile`: the value is
        the upper bound of the bucket containing the rank-th sample, so the
        estimate is conservative within one bucket's resolution.
        """
        count = self.latency_count
        if count <= 0:
            return 0.0
        rank = max(1, math.ceil(quantile * count))
        seen = 0
        for index in sorted(self.latency_buckets):
            seen += self.latency_buckets[index]
            if seen >= rank:
                return bucket_upper_bound(index)
        return bucket_upper_bound(max(self.latency_buckets))

    @property
    def read_latency_mean(self) -> float:
        """Mean read latency in simulated seconds (0.0 when no samples)."""
        return self.latency_sum / self.latency_count if self.latency_count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flatten counters and derived metrics for reporting/CSV export."""
        return {
            "policy": self.policy_name,
            "workload": self.workload_name,
            "staleness_bound": self.staleness_bound,
            "duration": self.duration,
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "stale_misses": self.stale_misses,
            "cold_misses": self.cold_misses,
            "freshness_cost": self.freshness_cost,
            "staleness_cost": self.staleness_cost,
            "useful_work": self.useful_work,
            "normalized_freshness_cost": self.normalized_freshness_cost,
            "normalized_staleness_cost": self.normalized_staleness_cost,
            "miss_ratio": self.miss_ratio,
            "hit_ratio": self.hit_ratio,
            "invalidates_sent": self.invalidates_sent,
            "updates_sent": self.updates_sent,
            "updates_wasted": self.updates_wasted,
            "suppressed_invalidates": self.suppressed_invalidates,
            "decisions_nothing": self.decisions_nothing,
            "polls": self.polls,
            "stale_refetches": self.stale_refetches,
            "messages_dropped": self.messages_dropped,
            "staleness_violations": self.staleness_violations,
            "persistence_cost": self.persistence_cost,
            "wal_appends": self.wal_appends,
            "wal_flushes": self.wal_flushes,
            "snapshots_taken": self.snapshots_taken,
            "backend_fetches": self.backend_fetches,
            "coalesced_reads": self.coalesced_reads,
            "stale_serves": self.stale_serves,
            "early_refreshes": self.early_refreshes,
            "read_latency_p50": self.read_latency_percentile(0.50),
            "read_latency_p99": self.read_latency_percentile(0.99),
            "read_latency_p999": self.read_latency_percentile(0.999),
            "read_latency_mean": self.read_latency_mean,
        }


SimulationResult.ACCUMULATED_FIELDS = tuple(
    counter.name
    for counter in fields(SimulationResult)
    if type(counter.default) in (int, float) and counter.name not in ("staleness_bound", "duration")
)
