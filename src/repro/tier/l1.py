"""The per-node L1: a small, fast cache in front of the sharded L2.

:class:`L1Tier` owns the L1 cache, the admission policy, and the write-back
bookkeeping of one :class:`~repro.sim.node.CacheNode`.  The node drives it
from the same read/flush/message paths that drive the L2, so the two tiers
stay in lockstep with the single-tier accounting:

* **Reads** try the L1 first, in the node's own read path
  (:meth:`~repro.sim.node.CacheNode.handle_read`): one probe of the L1's
  entry map settles the copy's TTL state, classifies the read and moves the
  L1's counters and LRU order in place.  A valid L1 hit serves immediately
  and charges only :meth:`~repro.core.cost_model.CostModel.l1_hit_cost`;
  anything else falls through to the L2 path, after which the node *offers*
  the key back to the L1 (admission-gated promotion).  The tier itself has
  no read method.
* **Freshness messages fan out through both tiers**: every invalidate/update
  the node applies to its L2 is applied to the L1 as well, so an L1 never
  serves staler data than its L2 would.
* **Write-back mode** installs backend fetches into the L1 only and defers
  the L2 install: dirty entries are flushed down in batch at every interval
  flush and demoted on eviction, each charged
  :meth:`~repro.core.cost_model.CostModel.writeback_flush_cost`.
* **Degraded serving** (the ``l2-outage`` scenario): while ``outage`` is
  set, the node answers reads straight from the L1 — stale entries included,
  on the same one probe — because the shared tier is partitioned away; reads
  whose key is not in the L1 fail.

The L1 stores *copies* of L2 entries, never shared objects: the staleness risk
of an extra tier is real only if each tier holds its own view of the data.

Example — a standalone tier (normally a :class:`~repro.sim.node.CacheNode`
builds one):

    >>> from repro.cluster.results import NodeResult
    >>> from repro.core.cost_model import CostModel
    >>> from repro.tier import L1Tier, TierConfig
    >>> tier = L1Tier(TierConfig(l1_capacity=2, mode="write-back"),
    ...               costs=CostModel(), result=NodeResult())
    >>> tier.write_back
    True
    >>> len(tier.cache)
    0
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Set

from repro.cache.cache import Cache, weak_callback
from repro.cache.entry import CacheEntry
from repro.tier.admission import make_admission
from repro.tier.config import TierConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.results import NodeResult
    from repro.core.cost_model import CostModel

#: Callback a node installs to receive demoted (dirty, evicted) L1 entries.
DemoteSink = Callable[[CacheEntry, float], None]


def _copy_entry(entry: CacheEntry) -> CacheEntry:
    """Deep-enough copy of a cache entry (tiers never share entry objects)."""
    return CacheEntry(
        key=entry.key,
        version=entry.version,
        as_of=entry.as_of,
        fetched_at=entry.fetched_at,
        key_size=entry.key_size,
        value_size=entry.value_size,
        state=entry.state,
        last_poll_accounted=entry.last_poll_accounted,
        hits=0,
    )


class L1Tier:
    """One node's L1 cache, admission policy, and write-back state.

    Args:
        config: Tier parameters (capacity, mode, admission); must be enabled
            (``l1_capacity > 0``) — disabled configs are normalised to "no
            tier" before a node is built.
        costs: The fleet's cost model (``l1_hit`` / ``l1_insert`` /
            ``writeback_flush`` charges).
        result: The owning node's result; tier counters accumulate here so
            fleet aggregation and snapshots see one counter set per node.
        seed: Seed for the admission sketch's hash family (per-node).
        demote_sink: Called with ``(entry, time)`` when a *dirty* entry is
            evicted from the L1 — the node's L2 cache installs it.
        victim_settler: Called with every evicted entry before demotion; a
            polling node uses it to settle lazily-accounted polling costs on
            victims whose key no longer lives in the L2 (they carried their
            own poll accounting, which must not vanish with them).  Neither
            callback may hold the node strongly: the node holds the tier.
    """

    def __init__(
        self,
        config: TierConfig,
        costs: "CostModel",
        result: "NodeResult",
        seed: int = 0,
        demote_sink: Optional[DemoteSink] = None,
        victim_settler: Optional[DemoteSink] = None,
    ) -> None:
        self.config = config
        self.costs = costs
        self.result = result
        self.admission = make_admission(config, seed=seed)
        # Held weakly: the tier owns its cache, so a plain bound method would
        # be a reference cycle.
        self.cache = Cache(
            capacity=config.l1_capacity,
            on_evict=weak_callback(self._on_l1_evict),
        )
        #: Keys fetched into the L1 that the L2 has not seen yet (write-back).
        self.dirty: Set[str] = set()
        #: Whether the shared tier is partitioned away (``l2-outage``): reads
        #: are served degraded from the L1 and misses cannot fetch.
        self.outage = False
        self._demote_sink = demote_sink
        self._victim_settler = victim_settler

    @property
    def write_back(self) -> bool:
        """Whether fetches fill the L1 only (deferred L2 install)."""
        return self.config.mode == "write-back"

    # ------------------------------------------------------------------ #
    # Promotion / fill
    # ------------------------------------------------------------------ #
    def offer(
        self,
        source: CacheEntry,
        now: float,
        ttl_headroom: Optional[float],
        promotion: bool,
    ) -> None:
        """Offer an L2-served entry to the L1 (admission-gated promotion).

        Called after an L2 hit (``promotion=True``) or a miss fill
        (``promotion=False``, write-through mode).  An entry already in the
        L1 is refreshed in place when the L2 copy is strictly newer — the
        re-promotion path after a fan-out invalidate.
        """
        self.admission.observe(source.key)
        existing = self.cache.peek(source.key)
        if existing is not None:
            if source.is_valid and (
                not existing.is_valid
                or existing.version < source.version
                or existing.as_of < source.as_of
            ):
                existing.version = source.version
                existing.as_of = source.as_of
                existing.fetched_at = source.fetched_at
                existing.value_size = source.value_size
                existing.last_poll_accounted = source.last_poll_accounted
                existing.state = source.state
                self.result.l1_insertions += 1
                self.result.tier_cost += self.costs.l1_insert_cost(
                    source.key_size, source.value_size
                )
            return
        if not self.admission.admit(source.key, source.value_size, ttl_headroom):
            self.result.l1_admission_rejects += 1
            return
        self.cache.restore_entry(_copy_entry(source), now)
        self.result.l1_insertions += 1
        if promotion:
            self.result.l1_promotions += 1
        self.result.tier_cost += self.costs.l1_insert_cost(source.key_size, source.value_size)

    def fill_write_back(
        self,
        time: float,
        key: str,
        key_size: int,
        version: int,
        value_size: int,
        ttl_headroom: Optional[float],
    ) -> bool:
        """Install a backend fetch into the L1 only (write-back mode).

        Returns ``True`` when the entry entered the L1 (marked dirty for the
        next write-back flush).  When admission refuses, the caller falls
        back to the write-through install so the fetch is not wasted.
        """
        self.admission.observe(key)
        if not self.admission.admit(key, value_size, ttl_headroom):
            self.result.l1_admission_rejects += 1
            return False
        entry = CacheEntry(
            key=key,
            version=version,
            as_of=time,
            fetched_at=time,
            key_size=key_size,
            value_size=value_size,
            last_poll_accounted=time,
        )
        self.cache.restore_entry(entry, time)
        self.dirty.add(key)
        self.result.l1_insertions += 1
        self.result.tier_cost += self.costs.l1_insert_cost(key_size, value_size)
        return True

    # ------------------------------------------------------------------ #
    # Write-back flush, demotion, and message fan-out
    # ------------------------------------------------------------------ #
    def flush(self, flush_time: float) -> None:
        """Flush dirty entries down to the L2 and advance the decay clock.

        Entries stay in the L1 (a flush cleans, it does not evict); each one
        charged as one ``writeback_flush``.  Keys are flushed in sorted order
        so runs replay identically regardless of set-iteration order.  While
        the shared tier is partitioned away (``outage``), write-backs cannot
        cross the partition: dirty entries stay dirty (and uncharged) until
        the outage ends; only the admission decay clock advances.
        """
        if self.outage:
            self.admission.end_interval()
            return
        if self.dirty and self._demote_sink is not None:
            for key in sorted(self.dirty):
                entry = self.cache.peek(key)
                if entry is None:  # pragma: no cover - defensive
                    continue
                self.result.l1_writebacks += 1
                self.result.tier_cost += self.costs.writeback_flush_cost(
                    entry.key_size, entry.value_size
                )
                self._demote_sink(_copy_entry(entry), flush_time)
            self.dirty.clear()
        self.admission.end_interval()

    def _on_l1_evict(self, entry: CacheEntry, time: float) -> None:
        """Capacity eviction: demote dirty entries to the L2, drop the rest.

        During an L2 outage a dirty victim cannot cross the partition: it is
        dropped (data loss is exactly what write-back risks), uncharged.
        """
        self.result.l1_evictions += 1
        if self._victim_settler is not None:
            self._victim_settler(entry, time)
        if entry.key in self.dirty:
            self.dirty.discard(entry.key)
            if self.outage:
                return
            self.result.l1_demotions += 1
            self.result.l1_writebacks += 1
            self.result.tier_cost += self.costs.writeback_flush_cost(
                entry.key_size, entry.value_size
            )
            if self._demote_sink is not None:
                self._demote_sink(_copy_entry(entry), time)

    def apply_invalidate(self, key: str, time: float) -> None:
        """Fan an invalidation into the L1 (keeps L1 never-staler-than-L2)."""
        self.cache.apply_invalidate(key, time)

    def apply_update(self, key: str, version: int, time: float, value_size: int) -> bool:
        """Fan an update into the L1 (refreshes only if the key is present).

        Returns ``True`` when an L1 copy was refreshed — an update that
        missed the L2 but landed here was not wasted.
        """
        return self.cache.apply_update(key, version=version, time=time, value_size=value_size)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every L1 entry and all dirty state (cold restart / crash).

        Dirty entries are *lost*, not flushed: they only ever existed in the
        L1's volatile memory, which is exactly what write-back risks.
        """
        self.cache.clear()
        self.dirty.clear()
