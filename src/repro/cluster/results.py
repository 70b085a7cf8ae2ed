"""Per-node and fleet-level cluster results.

Each :class:`~repro.sim.node.CacheNode` accumulates a :class:`NodeResult`
— the standard single-cache counters plus the cluster-only ones (failed
fetches while unreachable, hot-key policy switches, membership churn).  At the
end of a run :class:`ClusterResult` aggregates them into fleet totals using
the same counter semantics as a single-cache run, so cluster rows and
single-cache rows share a schema and can be compared column-for-column.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, Dict, List

from repro.sim.results import SimulationResult


def _columns(result_type: type) -> List[Field]:
    """The scalar fields a result class declares beyond the single-cache
    schema, in declaration order: its own columns of a flattened row."""
    shared = {column.name for column in fields(SimulationResult)}
    return [
        column
        for column in fields(result_type)
        if column.name not in shared and type(column.default) in (int, float, str)
    ]


@dataclass(slots=True)
class NodeResult(SimulationResult):
    """One cache node's counters for a cluster run."""

    node_id: str = ""
    #: Reads that could not re-fetch from the backend because the node was
    #: unreachable (failed but not yet detected); they count as misses too.
    failed_fetches: int = 0
    #: Flush decisions delegated to the hot-key policy instead of the base
    #: policy.
    hot_decisions: int = 0
    #: Distinct keys this shard's detector ever flagged hot.
    hot_keys_flagged: int = 0
    #: Accumulated per-flush hot-key pressure (heaviest flagged key's share
    #: of recent shard traffic, summed over intervals) — the same signal the
    #: autoscaler consumes, surfaced so obs windows and SLO rules can gate it.
    hot_pressure: float = 0.0
    #: Ring membership churn observed by this node.
    departures: int = 0
    joins: int = 0
    #: Volatile-state losses (mid-run crash-restart events).
    crashes: int = 0
    #: Entries restored from durable state on a warm rejoin/restart, and how
    #: many of them came back invalidated because their key was written while
    #: the node was down.
    warm_restored: int = 0
    warm_invalidated: int = 0

    # L1/L2 tier counters (all zero when the node runs single-tier).
    #: Reads served straight from the per-node L1.
    l1_hits: int = 0
    #: Entries copied into the L1 (promotions, refreshes, write-back fills).
    l1_insertions: int = 0
    #: L1 insertions that promoted an L2-served entry upward.
    l1_promotions: int = 0
    #: L1 capacity evictions.
    l1_evictions: int = 0
    #: Dirty entries pushed down to the L2 (interval flushes + demotions).
    l1_writebacks: int = 0
    #: L1 evictions that had to demote a dirty entry into the L2.
    l1_demotions: int = 0
    #: Candidates the admission policy kept out of the L1.
    l1_admission_rejects: int = 0
    #: Reads served from the L1 while the shared tier was partitioned away.
    l1_served_degraded: int = 0
    #: Times this node's L1 was dropped by a ``cold-l1`` fleet restart.
    l1_cold_restarts: int = 0
    #: Accumulated L1 charges (hits, inserts, write-back flushes).
    tier_cost: float = 0.0
    #: L1 cache statistics snapshot (filled at the end of the run).
    l1_stats: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten, extending the single-cache schema with cluster counters."""
        # Explicit parent call: ``dataclass(slots=True)`` rebuilds the class,
        # which breaks zero-argument ``super()`` inside method bodies.
        row = SimulationResult.as_dict(self)
        for column in _columns(type(self)):
            row[column.name] = getattr(self, column.name)
        row["l1_stats"] = dict(self.l1_stats)
        return row


@dataclass(slots=True)
class ClusterResult:
    """Aggregated outcome of one cluster simulation."""

    policy_name: str = ""
    workload_name: str = ""
    staleness_bound: float = 0.0
    duration: float = 0.0
    num_nodes: int = 0
    replication: int = 1
    read_policy: str = "primary"
    scenario: str = "none"
    #: Tier coordinates (``l1_capacity=0`` means the fleet ran single-tier).
    l1_capacity: int = 0
    tier_mode: str = "write-through"

    #: Fleet totals with single-cache counter semantics (each workload
    #: request counted exactly once across the fleet).
    totals: SimulationResult = field(default_factory=SimulationResult)
    #: Per-node results, in stable node-id order.
    nodes: List[NodeResult] = field(default_factory=list)

    # Fleet-only counters; those a :class:`NodeResult` declares too are the
    # sums of the per-node counters.  The declaration order is the row's.
    failed_fetches: int = 0
    rebalances: int = 0
    hot_decisions: int = 0
    hot_keys_flagged: int = 0
    hot_pressure: float = 0.0

    # Elasticity outcome fields, owned by the autoscale scenario (zero for
    # every other run).  They measure the gap to the ideal-elasticity
    # baseline — an imaginary autoscaler that reacts instantly and for free,
    # whose lag, cost, and staleness penalty are all exactly zero — so the
    # fields themselves ARE the gap and can be SLO-gated directly.
    scale_ups: int = 0
    scale_downs: int = 0
    #: Seconds spent between a watermark breach and the scaling action that
    #: answered it (ideal baseline: 0.0).
    elasticity_lag: float = 0.0
    #: Cost charged for scaling actions (node warm/cold starts and drains;
    #: ideal baseline: 0.0).
    elasticity_cost: float = 0.0
    #: Staleness violations accrued while the fleet was in breach of its
    #: scaling watermark (ideal baseline: 0).
    elasticity_staleness: int = 0

    crashes: int = 0
    warm_restored: int = 0
    warm_invalidated: int = 0

    # Fleet-level tier counters (sums of the per-node L1 counters).
    l1_hits: int = 0
    l1_insertions: int = 0
    l1_promotions: int = 0
    l1_evictions: int = 0
    l1_writebacks: int = 0
    l1_demotions: int = 0
    l1_admission_rejects: int = 0
    l1_served_degraded: int = 0
    l1_cold_restarts: int = 0
    tier_cost: float = 0.0

    #: True when the run stopped early at ``run(stop_at=...)`` — the
    #: kill-at-t crash point — instead of draining the whole stream.
    interrupted: bool = False
    #: Persistence-layer counters (``None`` when no store is configured).
    store: Dict[str, Any] | None = None
    #: Observability payload (``None`` unless the run was constructed with
    #: ``obs=``); see :meth:`repro.obs.ObsRecorder.payload`.
    obs: Dict[str, Any] | None = None

    @property
    def load_imbalance(self) -> float:
        """Max over mean of per-node request load (1.0 = perfectly even).

        Load counts the requests a node actually served or owned (reads
        routed to it plus writes it was primary for); nodes that spent part
        of the run out of the ring naturally weigh less.
        """
        loads = [node.reads + node.writes for node in self.nodes]
        if not loads or sum(loads) == 0:
            return 0.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 0.0

    def finalize(self) -> None:
        """Recompute fleet totals and counters from the per-node results."""
        self.totals = SimulationResult(
            policy_name=self.policy_name,
            workload_name=self.workload_name,
            staleness_bound=self.staleness_bound,
            duration=self.duration,
        )
        # A fleet counter is a number this class and its nodes' class both declare.
        node_type = type(self.nodes[0]) if self.nodes else NodeResult
        per_node = {column.name for column in _columns(node_type)}
        zeros = {
            column.name: column.default
            for column in _columns(type(self))
            if column.name in per_node and type(column.default) is not str
        }
        for name, zero in zeros.items():
            setattr(self, name, zero)
        for node in self.nodes:
            self.totals.accumulate(node)
            for name in zeros:
                setattr(self, name, getattr(self, name) + getattr(node, name))

    def as_dict(self) -> Dict[str, Any]:
        """Flatten fleet totals plus cluster metadata for result rows.

        The aggregate columns match :meth:`SimulationResult.as_dict`, so
        cluster rows and single-cache rows are directly comparable; the
        cluster-only columns and the compact per-node breakdown ride along.
        """
        row = self.totals.as_dict()
        for column in _columns(type(self)):
            row[column.name] = getattr(self, column.name)
        row["load_imbalance"] = self.load_imbalance
        row["nodes"] = self.node_rows()
        if self.interrupted:
            row["interrupted"] = True
        if self.store is not None:
            row["store"] = dict(self.store)
        if self.obs is not None:
            row["obs"] = self.obs
        return row

    def node_rows(self) -> List[Dict[str, Any]]:
        """Compact per-node breakdown (one dict per node, stable order)."""
        return [
            {
                "node_id": node.node_id,
                "reads": node.reads,
                "writes": node.writes,
                "hits": node.hits,
                "stale_misses": node.stale_misses,
                "cold_misses": node.cold_misses,
                "staleness_violations": node.staleness_violations,
                "failed_fetches": node.failed_fetches,
                "messages_dropped": node.messages_dropped,
                "invalidates_sent": node.invalidates_sent,
                "updates_sent": node.updates_sent,
                "hot_decisions": node.hot_decisions,
                "freshness_cost": node.freshness_cost,
                "l1_hits": node.l1_hits,
                "l1_served_degraded": node.l1_served_degraded,
                "tier_cost": node.tier_cost,
            }
            for node in self.nodes
        ]
