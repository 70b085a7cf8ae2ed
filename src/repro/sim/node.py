"""The cache-aside state machine: one cache in front of the backend.

A :class:`CacheNode` is the single implementation of the paper's Figure 1
loop and its §3 freshness policies.  It owns one cache and its eviction
state, one freshness-policy instance (so ``E[W]`` estimators see only this
cache's traffic), the backend-side write buffer and invalidation tracker for
that cache, and the :class:`~repro.backend.channel.Channel` freshness
messages travel over from the versioned datastore:

* reads are served from the cache; a miss fetches the object from the backend
  and populates the cache,
* writes go straight to the backend, bypassing the cache, and
* the policy keeps cached data within the staleness bound ``T`` — either with
  per-object TTL timers (TTL-expiry / TTL-polling) or by reacting to writes
  at interval boundaries (invalidate / update / adaptive / optimal, Figure 4).

Cost accounting follows §2.1: the freshness cost :math:`C_F` accumulates the
cost of every message or re-fetch performed *to keep data fresh* (TTL polls,
invalidates, updates, and the misses caused by stale data); the staleness cost
:math:`C_S` counts the misses that occurred because a cached object could not
be returned due to staleness.  Misses on objects that were never cached (or
were evicted) count toward the miss ratio but toward neither cost, matching
the paper's definitions.

The interval flush is one pass over the drained write buffer
(:meth:`CacheNode.flush`): it takes the policy's actions for the whole
interval as one lazy iterator, and a freshness message travels as scalars —
charged, journaled, carried by :meth:`Channel.transit
<repro.backend.channel.Channel.transit>` and applied to both tiers — with a
message object built only for a delivery the channel defers.

TTL timers are accounted lazily rather than simulated as events: an expiry
only matters when the next read arrives, and the number of polls an entry has
performed is a pure function of elapsed time, so both can be settled when the
entry is next touched, evicted, or when the run ends.  This keeps the run time
proportional to the number of requests even for very small staleness bounds.

One driver runs this one core (:class:`repro.sim.driver.ReplayDriver`):
:class:`repro.sim.simulation.Simulation` is its one-node case,
:class:`repro.cluster.cluster.ClusterSimulation` routes a stream across many,
so a one-node fleet and the single cache agree by construction.  Under the
in-flight fetch model the driver builds :class:`ConcurrentCacheNode`, whose
read, write, flush, crash and finalize paths are ordinary overrides.  The
node does not know which driver it is under: it
accumulates into the ``result`` object it was handed (each driver's rows keep
their schema) and acts on the time-ordered calls it receives.  A request
reaches it as scalars — ``(time, key, key_size, value_size)`` — straight from
the drivers' column chunks; no request object exists on this path.

On top of that loop a node carries the fleet concerns, each inert unless a
driver switches it on: reachability (a failed-but-undetected node keeps
serving its cache but can neither re-fetch nor receive freshness messages),
purge-on-departure, the optional L1 tier, and the per-shard hot-key detector
that can route flush decisions to a different policy for hot keys.
"""

from __future__ import annotations

import copy
import math
from itertools import repeat
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.backend.buffer import WriteBuffer
from repro.backend.channel import Channel
from repro.backend.datastore import DataStore
from repro.backend.invalidation_tracker import InvalidationTracker
from repro.backend.messages import InvalidateMessage, UpdateMessage
from repro.cache.cache import Cache, weak_callback
from repro.cache.entry import CacheEntry, EntryState
from repro.concurrency.backend import BackendServer
from repro.concurrency.config import ConcurrencyConfig
from repro.concurrency.coordinator import FetchCoordinator
from repro.errors import ClusterError
from repro.core.adaptive import AdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.policy import Action, FreshnessPolicy, FutureIndex, PolicyContext
from repro.core.ttl import TTLPollingPolicy, account_entry_polls
from repro.obs.metrics import ZERO_BUCKET, Histogram
from repro.sim.events import PendingDelivery
from repro.sim.results import SimulationResult
from repro.tier.config import TierConfig
from repro.tier.l1 import L1Tier

_VALID, _EXPIRED = EntryState.VALID, EntryState.EXPIRED


def _observers(
    policies: Sequence[FreshnessPolicy], hook: str, detector: Optional[Any]
) -> Tuple[Tuple[Callable[[str], None], ...], Optional[Callable[[str, float], None]]]:
    """What sees each request of one kind: ``(by_key, timed)``.

    ``by_key`` are ``(key)`` callables.  A base-class no-op is left out, and
    a stock :class:`~repro.core.adaptive.AdaptivePolicy` hook only forwards
    the key to its estimator, so the estimator's own method stands in for
    it (no built-in policy reads the time).  ``timed`` is ``None`` unless
    something needs more — the hot-key detector, or a policy with a hook of
    its own — and then it is one ``(key, time)`` callable that calls all of
    them, detector first and policies in order, with ``by_key`` empty.
    """
    base, stock = getattr(FreshnessPolicy, hook), getattr(AdaptivePolicy, hook)
    kinds = [getattr(type(policy), hook) for policy in policies]
    if detector is None and all(kind is base or kind is stock for kind in kinds):
        by_key = tuple(
            getattr(policy.estimator, hook)
            for policy, kind in zip(policies, kinds)
            if kind is stock
        )
        return by_key, None
    observers = [
        getattr(policy, hook) for policy, kind in zip(policies, kinds) if kind is not base
    ]

    def timed(key: str, time: float) -> None:
        if detector is not None:
            detector.observe(key)
        for observe in observers:
            observe(key, time)

    return (), timed


class CacheNode:
    """One cache: cache + policy + backend-side buffer/tracker + channel.

    Args:
        node_id: Stable identifier (also the node's hash-ring identity).
        policy: This cache's freshness-policy instance (not shared).
        staleness_bound: The bound ``T`` in seconds that cached data must
            satisfy (also the TTL duration and the write-batching interval).
        costs: Cost model supplying ``c_m``, ``c_i``, ``c_u``.
        datastore: The versioned backend store (shared across a fleet).
        result: The counters this node accumulates into — a
            :class:`~repro.sim.results.SimulationResult` under the
            single-cache driver, a :class:`~repro.cluster.results.NodeResult`
            in a fleet.  The fleet-only counters are only touched by the
            feature that owns them (unreachability, churn, detector, L1), so
            the plain result suffices where none of those is switched on.
        cache_capacity: Object capacity (``None`` = unbounded); a bounded
            cache evicts its least recently used key.
        channel: Backend-to-cache message channel; ``None`` means ideal
            (instantaneous and lossless).  The node always holds a channel
            object so scenarios can impose outages on it.
        hot_policy: Optional policy instance applied to keys the detector
            currently flags hot on this shard.
        detector: Optional per-shard hot-key detector
            (:class:`~repro.cluster.hotkey.HotKeyDetector`).
        pending_registry: Optional cluster-owned set of node ids with
            messages in flight; lets the cluster skip the per-request
            delivery sweep when nothing is pending anywhere in the fleet.
        tier: Optional :class:`~repro.tier.TierConfig` placing a small L1 in
            front of this node's cache (which then acts as the L2).  Disabled
            configs (``l1_capacity=0``) leave the node single-tier and
            byte-identical to a node built without one.
        tier_seed: Seed for the L1 admission sketch's hash family.
        future: Per-key future request index for clairvoyant policies
            (``policy.needs_future``, i.e. the ``optimal`` baseline); only a
            driver that has materialized the whole stream can supply one.
    """

    def __init__(
        self,
        node_id: str,
        policy: FreshnessPolicy,
        staleness_bound: float,
        costs: CostModel,
        datastore: DataStore,
        result: SimulationResult,
        cache_capacity: Optional[int] = None,
        channel: Optional[Channel] = None,
        hot_policy: Optional[FreshnessPolicy] = None,
        detector: Optional[Any] = None,
        pending_registry: Optional[set] = None,
        tier: Optional[TierConfig] = None,
        tier_seed: int = 0,
        future: Optional[FutureIndex] = None,
    ) -> None:
        self.node_id = node_id
        self.policy = policy
        self.hot_policy = hot_policy
        self.detector = detector
        self.staleness_bound = float(staleness_bound)
        self.costs = costs
        self.datastore = datastore
        self.channel = channel if channel is not None else Channel()

        # Evictions matter to a polling node alone: it settles the victim's
        # polls.  The callbacks hold the node weakly, so that neither its
        # cache nor its L1 ties it into a reference cycle that would keep it —
        # datastore histories and all — alive past its run until the cycle
        # collector's next full pass.
        polling = policy.ttl_mode == "polling"
        self.cache = Cache(
            capacity=cache_capacity,
            on_evict=(
                weak_callback(self._on_evict)
                if polling and cache_capacity is not None
                else None
            ),
        )
        self.buffer = WriteBuffer()
        self.tracker = InvalidationTracker()
        self.result = result
        #: The per-node L1 in front of ``cache`` (``None`` = single-tier).
        self.l1: Optional[L1Tier] = (
            L1Tier(
                tier,
                costs=costs,
                result=self.result,
                seed=tier_seed,
                demote_sink=self.cache.restore_entry,
                victim_settler=weak_callback(self._settle_l1_victim) if polling else None,
            )
            if tier is not None and tier.enabled
            else None
        )
        self._pending: List[PendingDelivery] = []
        self._pending_registry = pending_registry

        #: Whether the node can talk to the backend (fetches and freshness
        #: messages).  A failed-but-undetected node is unreachable yet still
        #: serves reads from its cache.
        self.reachable = True
        #: Whether the node is currently on the hash ring.
        self.in_ring = True

        self._bind_policies(future)

    # ------------------------------------------------------------------ #
    # Policy plumbing
    # ------------------------------------------------------------------ #
    def _bind_policies(self, future: Optional[FutureIndex]) -> None:
        context = PolicyContext(
            costs=self.costs,
            staleness_bound=self.staleness_bound,
            cache=self.cache,
            datastore=self.datastore,
            tracker=self.tracker,
            future=future,
        )
        self.policy.bind(context)
        if self.hot_policy is not None:
            self.hot_policy.bind(context)
        # Hot-path precomputation (policies are fixed for the node's
        # lifetime): observation hooks that are base-class no-ops are never
        # called, TTL settling is skipped for non-TTL policies, and the
        # fixed-preset serve and miss costs collapse to constants.
        policies = [self.policy] + ([self.hot_policy] if self.hot_policy else [])
        self._read_observers, self._timed_read = _observers(
            policies, "observe_read", self.detector
        )
        self._write_observers, self._timed_write = _observers(
            policies, "observe_write", self.detector
        )
        self._settles_ttl = self.policy.ttl_mode is not None
        self._ttl_expiry = self.policy.ttl_mode == "expiry"
        # TTL duration is fixed once bound (explicit override or the run's
        # staleness bound), so resolve the property once.
        self._ttl_value = (
            self.policy.ttl if self.policy.ttl_mode is not None else math.inf
        )
        self._poll_ttl = (
            self._ttl_value if isinstance(self.policy, TTLPollingPolicy) else None
        )
        self._reacts = self.reacts_to_writes
        self._serve_cost_const = (
            self.costs.serve_cost() if self.costs.breakdown is None else None
        )
        self._miss_cost_const = (
            self.costs.miss_cost() if self.costs.breakdown is None else None
        )
        self._bind_caches()
        if self.l1 is not None:
            self._l1_hit_cost_const = (
                self.costs.l1_hit_cost() if self.costs.breakdown is None else None
            )

    def _bind_caches(self) -> None:
        """Bind the read path's aliases of the caches' dicts: each cache's
        ``peek`` (:meth:`Cache.raw_getter`) and stats, and a bounded
        cache's ``touch``."""
        self._l2_peek = self.cache.raw_getter()
        self._l2_stats = self.cache.stats
        # A bounded cache's LRU order holds every key of its map: a hit moves
        # the key to the order's end directly.
        recency = self.cache.recency
        self._l2_touch = recency.move_to_end if recency is not None else None
        if self.l1 is not None:
            self._l1_peek = self.l1.cache.raw_getter()
            self._l1_stats = self.l1.cache.stats
            self._l1_touch = self.l1.cache.recency.move_to_end

    def __deepcopy__(self, memo: dict) -> "CacheNode":
        """A deep copy that reads its own caches: ``copy`` takes a built-in
        bound method — the caches' ``dict.get`` and ``move_to_end`` aliases
        — as an atom, so the copy binds them again to its copied caches.
        Copying a cache left to a pending build runs the build first."""
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        for name, value in vars(self).items():
            setattr(clone, name, copy.deepcopy(value, memo))
        clone._bind_caches()
        return clone

    @property
    def reacts_to_writes(self) -> bool:
        """Whether this node buffers writes for flush-time decisions."""
        if self.policy.reacts_to_writes:
            return True
        return self.hot_policy is not None and self.hot_policy.reacts_to_writes

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def observe_write(
        self, time: float, key: str, key_size: int, value_size: int, owner: bool
    ) -> None:
        """Record a backend write for which this node holds a replica.

        The driver has already committed the write to the datastore (writes
        bypass the cache).  Only the primary (``owner``) counts the write in
        its result so that fleet totals count each workload request exactly
        once; every replica observes it (estimators, detector) and dirties
        its buffer.
        """
        if owner:
            self.result.writes += 1
        if self._timed_write is not None:
            self._timed_write(key, time)
        for observe in self._write_observers:
            observe(key)
        if self._reacts:
            self.buffer.record_write(key, time, key_size=key_size, value_size=value_size)

    def handle_read(self, time: float, key: str, key_size: int, value_size: int) -> None:
        """Serve one read under the instant-fetch model.

        ``value_size`` is the request's; a read learns the object's size from
        the backend, so it goes unused (reads and writes share one call shape).

        With a tier configured, the L1 is consulted first: a valid L1 hit
        serves immediately (charged ``l1_hit``); everything else falls
        through to the single-tier L2 path below, after which the key is
        offered back to the L1 through its admission policy.  During an L2
        outage the node serves degraded straight from the L1: any copy
        answers, valid or not, and a key the L1 lacks fails.

        Each tier is probed at most once.  The L2 entry is the one whose lazy
        TTL state is settled, the one the L1 copy settles against, and the
        one the read is classified on — a hit, a stale miss (cached but
        invalidated or expired) or a cold miss.  The L1 copy is settled,
        classified and served on its one probe the same way.  Both caches'
        counters move in place.  Without TTL state to settle, an L1 hit needs no L2 probe.
        """
        # Loop-local aliasing: reads dominate the routed stream, and every
        # one of these attribute chains would otherwise re-resolve per call.
        result = self.result
        datastore = self.datastore
        l1 = self.l1

        result.reads += 1
        if self._timed_read is not None:
            self._timed_read(key, time)
        for observe in self._read_observers:
            observe(key)
        serve = self._serve_cost_const
        if serve is None:
            serve = self.costs.serve_cost(key_size, datastore.value_size(key))
        result.useful_work += serve

        # Nothing settles while the shared tier is partitioned away (an
        # outage read ends in the L1 block).
        ttl = self._settles_ttl
        if ttl and (l1 is None or not l1.outage):
            # Lazy TTL state settles on the probed entry before anything reads
            # it — the L1 too, whose copy settles against it.
            entry = self._l2_peek(key)
            if entry is not None:
                if self._ttl_expiry:
                    # Inlined ``policy.is_expired`` against the TTL resolved
                    # at bind time (the duration is constant for the run).
                    if entry.state is _VALID and time >= entry.fetched_at + self._ttl_value:
                        entry.state = _EXPIRED
                        self._l2_stats.expirations += 1
                elif self._poll_ttl is not None:
                    # Inlined :meth:`account_polls`.
                    last_poll = account_entry_polls(
                        entry, time, self._poll_ttl, result, self.costs, self._miss_cost_const
                    )
                    if last_poll is not None:
                        version = datastore.version_at(key, last_poll)
                        if version > entry.version:
                            entry.version = version
        if l1 is not None:
            copy = self._l1_peek(key)
            stats = self._l1_stats
            stats.lookups += 1
            if copy is None:
                stats.cold_misses += 1
                if l1.outage:
                    result.failed_fetches += 1
                    result.cold_misses += 1
                    return
            else:
                if ttl and not l1.outage:
                    if self._ttl_expiry:
                        # Expiry timers fire on the L1 copy as on the L2's.
                        if copy.state is _VALID and time >= copy.fetched_at + self._ttl_value:
                            copy.state = _EXPIRED
                            stats.expirations += 1
                    elif entry is not None:
                        # Polling: the copy piggybacks on the polls its L2
                        # entry just accounted (one poll per node, not per tier).
                        copy.as_of = max(copy.as_of, entry.as_of)
                        copy.version = max(copy.version, entry.version)
                        copy.last_poll_accounted = max(
                            copy.last_poll_accounted, entry.last_poll_accounted
                        )
                    else:
                        # An L1-only copy (write-back) polls, and is charged, itself.
                        self.account_polls(copy, time)
                self._l1_touch(key)
                valid = copy.state is _VALID
                if valid:
                    copy.hits += 1
                    stats.hits += 1
                else:
                    stats.stale_misses += 1
                if valid or l1.outage:
                    result.hits += 1
                    result.l1_hits += 1
                    if l1.outage:
                        result.l1_served_degraded += 1
                    cost = self._l1_hit_cost_const
                    if cost is None:
                        cost = self.costs.l1_hit_cost(key_size)
                    result.tier_cost += cost
                    bound = self.staleness_bound
                    if time - bound > copy.as_of and not datastore.is_fresh(
                        key, copy.as_of, time, bound
                    ):
                        result.staleness_violations += 1
                    return
        if not ttl:
            # Nothing to settle: the L2 is probed only when the L1 does not serve.
            entry = self._l2_peek(key)
        stats = self._l2_stats
        stats.lookups += 1
        if entry is None:
            stats.cold_misses += 1
        else:
            if self._l2_touch is not None:
                self._l2_touch(key)
            if entry.state is not _VALID:
                stats.stale_misses += 1
            else:
                entry.hits += 1
                stats.hits += 1
                result.hits += 1
                bound = self.staleness_bound
                # ``is_fresh`` is trivially true when the entry's view is
                # within the bound; the precheck skips the call on that
                # common case.
                if time - bound > entry.as_of and not datastore.is_fresh(
                    key, entry.as_of, time, bound
                ):
                    result.staleness_violations += 1
                if l1 is not None:
                    l1.offer(entry, time, self._ttl_headroom(entry, time), promotion=True)
                return

        if not self.reachable:
            # The node cannot reach the backend: the miss cannot be served.
            # No cost is charged (no message was exchanged) and the cache is
            # not filled; the miss still counts against the hit ratio.
            result.failed_fetches += 1
            if entry is not None:
                result.stale_misses += 1
            else:
                result.cold_misses += 1
            return
        self._miss(time, key, key_size, entry)

    def _miss(
        self, time: float, key: str, key_size: int, stale: Optional[CacheEntry]
    ) -> None:
        """Serve a miss the node can fetch: fetch, charge and install the key.

        ``stale`` is the entry a stale miss found (``None``: a cold miss).
        """
        version, value_size = self._fetch(time, key, key_size, stale)
        self._fill_after_fetch(time, key, key_size, version, value_size)
        self.tracker.mark_refetched(key)
        if self._reacts:
            # The backend just served this key's latest value; any write
            # buffered earlier in the interval no longer needs a message.
            self.buffer.discard(key)

    def _fetch(
        self, time: float, key: str, key_size: int, stale: Optional[CacheEntry]
    ) -> Tuple[int, int]:
        """Read ``key`` from the backend at ``time`` and charge the miss: a
        stale one (``stale`` is the entry it found) as freshness cost, a cold
        one apart.  Returns the ``(version, value_size)`` read."""
        version, value_size = self.datastore.read(key, time)
        result = self.result
        miss = self._miss_cost_const
        if miss is None:
            miss = self.costs.miss_cost(key_size, value_size)
        if stale is not None:
            result.stale_misses += 1
            result.stale_refetches += 1
            result.freshness_cost += miss
        else:
            result.cold_misses += 1
            result.cold_miss_cost += miss
        return version, value_size

    def _fill_after_fetch(
        self, time: float, key: str, key_size: int, version: int, value_size: int
    ) -> None:
        """Install a backend fetch of ``key``, taken at ``time``, into the hierarchy.

        Single-tier and write-through nodes fill the L2 exactly as before
        (write-through additionally offers the entry to the L1); write-back
        nodes fill the L1 only, falling back to the L2 when admission
        refuses the key so the fetch is never wasted.
        """
        if self.l1 is not None and self.l1.write_back:
            headroom = (
                self.policy.ttl
                if self.policy.ttl_mode == "expiry"
                else None
            )
            if self.l1.fill_write_back(time, key, key_size, version, value_size, headroom):
                return
        entry = self.cache.fill(
            key, version=version, time=time, key_size=key_size, value_size=value_size
        )
        if self.l1 is not None and not self.l1.write_back:
            self.l1.offer(entry, time, self._ttl_headroom(entry, time), promotion=False)

    def _ttl_headroom(self, entry: CacheEntry, now: float) -> Optional[float]:
        """Seconds before ``entry``'s expiry timer fires (``None``: no timer)."""
        if self.policy.ttl_mode != "expiry":
            return None
        return self.policy.expiry_time(entry.fetched_at) - now

    # ------------------------------------------------------------------ #
    # Interval flush and message delivery
    # ------------------------------------------------------------------ #
    def flush(self, flush_time: float) -> None:
        """Act on every key written during the interval ending at ``flush_time``.

        One pass over the drained buffer: per dirty key, take the policy's
        action, charge the message, tell the tracker, journal it, carry it
        over the channel and apply it.  The actions are the lazy iterator of
        :meth:`FreshnessPolicy.decisions`, advanced in lockstep with the sends
        (hot-key detection decides key by key through :meth:`_decide`).  A
        message is scalars all the way: an object is built only for a
        delivery the channel defers.
        """
        if self.l1 is not None:
            # Write-back flush first: the L2 sees the L1's dirty entries at
            # the same instant the freshness decisions for the interval land.
            self.l1.flush(flush_time)
        drained = self.buffer.drain()
        keys = [buffered.key for buffered in drained]
        if self.detector is None and self.policy.reacts_to_writes:
            actions = self.policy.decisions(keys, flush_time)
        else:
            actions = map(self._decide, keys, repeat(flush_time))
        # Loop-local aliasing, as in the read path.
        result = self.result
        costs = self.costs
        sized = costs.breakdown is not None
        invalidate_cost = costs.invalidate_cost()
        update_cost = costs.update_cost()
        update_action, invalidate_action = Action.UPDATE, Action.INVALIDATE
        is_invalidated = self.tracker.is_invalidated
        mark_invalidated = self.tracker.mark_invalidated
        mark_refetched = self.tracker.mark_refetched
        latest_version = self.datastore.latest_version
        value_size_of = self.datastore.value_size
        journal = self.datastore.journal
        apply = self._apply
        # An instant channel delivers the whole batch at the flush: no walk,
        # no draw, and the sends are counted after the loop.
        transit = None if self.channel.instant else self.channel.transit
        # An invalidate's version is read by the journal and by the record of
        # a deferred delivery only; applying one needs the key alone.
        versioned = journal is not None or transit is not None
        carried = 0
        for key, buffered, action in zip(keys, drained, actions, strict=True):
            if action is update_action:
                update = True
                value_size = value_size_of(key)
                result.updates_sent += 1
                result.freshness_cost += (
                    costs.update_cost(buffered.key_size, value_size) if sized else update_cost
                )
                # An update carries the latest value, so even a previously
                # invalidated cached copy becomes valid again once applied.
                mark_refetched(key)
                version = latest_version(key)
            elif action is invalidate_action:
                if is_invalidated(key):
                    # The backend already invalidated this key and the cache
                    # has not re-fetched it since: a second one is redundant (§3.1).
                    result.suppressed_invalidates += 1
                    continue
                update = False
                value_size = 0
                result.invalidates_sent += 1
                result.freshness_cost += (
                    costs.invalidate_cost(buffered.key_size) if sized else invalidate_cost
                )
                mark_invalidated(key, flush_time)
                version = latest_version(key) if versioned else 0
            else:
                result.decisions_nothing += 1
                continue
            if journal is not None:
                journal.log_message("update" if update else "invalidate", key, flush_time, version)
            if transit is None:
                carried += 1
            else:
                deliver_at = transit(flush_time)
                if deliver_at is None:
                    result.messages_dropped += 1
                    continue
                if deliver_at > flush_time:
                    message_type = UpdateMessage if update else InvalidateMessage
                    message = message_type(key, flush_time, buffered.key_size, value_size, version)
                    self._pending.append(PendingDelivery(message, deliver_at))
                    if self._pending_registry is not None:
                        self._pending_registry.add(self.node_id)
                    continue
            apply(update, key, version, value_size, flush_time)
        self.channel.sent += carried
        self.channel.delivered += carried

        if self.detector is not None:
            # Sample the interval's hot-key pressure before the decay clock
            # advances, so the result (and obs windows) carries the same
            # number the autoscaler saw for this interval.
            self.result.hot_pressure += self.detector.pressure()
            self.detector.end_interval()

    def _decide(self, key: str, time: float) -> Action:
        """Route the flush decision to the hot policy for hot keys.

        Hotness is checked whenever a detector is present — even without a
        hot policy — so detection-only runs still report flagged keys.
        """
        if self.detector is not None and self.detector.is_hot(key):
            if self.hot_policy is not None:
                self.result.hot_decisions += 1
                return self.hot_policy.decide(key, time)
        if not self.policy.reacts_to_writes:
            # The base policy is TTL-driven; without a hot-policy hit there
            # is no flush-time decision to make for this key.
            return Action.NOTHING
        return self.policy.decide(key, time)

    def deliver_until(self, until: float) -> None:
        """Apply in-flight messages whose delivery time has arrived."""
        if not self._pending:
            return
        remaining: List[PendingDelivery] = []
        for pending in self._pending:
            if pending.deliver_at <= until:
                message = pending.message
                update = isinstance(message, UpdateMessage)
                self._apply(
                    update, message.key, message.version, message.value_size, pending.deliver_at
                )
            else:
                remaining.append(pending)
        self._pending = remaining
        if not remaining and self._pending_registry is not None:
            self._pending_registry.discard(self.node_id)

    def _apply(
        self, update: bool, key: str, version: int, value_size: int, time: float
    ) -> None:
        """Apply one arriving freshness message, fanning it out through both tiers."""
        l1 = self.l1
        if update:
            applied = self.cache.apply_update(key, version, time, value_size)
            if l1 is not None:
                # An update that misses the L2 but refreshes the L1 copy
                # (write-back fill, or L2 eviction) was not wasted.
                applied = l1.apply_update(key, version, time, value_size) or applied
            if not applied:
                self.result.updates_wasted += 1
        else:
            self.cache.apply_invalidate(key, time)
            if l1 is not None:
                l1.apply_invalidate(key, time)

    # ------------------------------------------------------------------ #
    # Lazy TTL accounting
    # ------------------------------------------------------------------ #
    def account_polls(self, entry: CacheEntry, now: float) -> None:
        """Charge the polls an entry performed since the last accounting point.

        Delegates the poll arithmetic to
        :func:`~repro.core.ttl.account_entry_polls` (the shared, bind-time-TTL
        twin of the policy methods), then refreshes the entry's backend
        version as of the last charged poll.
        """
        ttl = self._poll_ttl
        if ttl is None:
            return
        last_poll = account_entry_polls(
            entry, now, ttl, self.result, self.costs, self._miss_cost_const
        )
        if last_poll is not None:
            version = self.datastore.version_at(entry.key, last_poll)
            if version > entry.version:
                entry.version = version

    def _on_evict(self, entry: CacheEntry, time: float) -> None:
        """Settle outstanding polling costs when an entry is evicted (the
        cache calls it on a polling node only)."""
        self.account_polls(entry, time)
        if self.l1 is not None:
            # The L1 copy piggybacked on this entry's polls; sync its
            # accounting bookmark so the now-L1-only copy does not
            # re-charge the window just settled.
            l1_entry = self.l1.cache.peek(entry.key)
            if l1_entry is not None:
                l1_entry.last_poll_accounted = max(
                    l1_entry.last_poll_accounted, entry.last_poll_accounted
                )
                l1_entry.as_of = max(l1_entry.as_of, entry.as_of)
                l1_entry.version = max(l1_entry.version, entry.version)

    # ------------------------------------------------------------------ #
    # Scenario hooks: failure, departure, rejoin
    # ------------------------------------------------------------------ #
    def fail(self) -> None:
        """Cut the node off from the backend (fail-silent, still serving).

        Freshness messages already in flight are lost, new sends are dropped
        at the channel, and misses can no longer re-fetch — but reads routed
        here keep being served from the (increasingly stale) local cache
        until the failure is detected and the ring rebalanced.
        """
        self.reachable = False
        self.channel.outage = True
        self.result.messages_dropped += len(self._pending)
        self._drop_pending()

    def depart(self, time: float) -> None:
        """Leave the ring: the cache, buffer, and tracker state is lost."""
        self.in_ring = False
        self.result.departures += 1
        self.lose_volatile_state(time)

    def crash(self, time: float) -> None:
        """Lose all volatile state without leaving the ring (kill-at-t).

        The node immediately restarts: it stays addressable and reachable but
        its cache, buffer, tracker, and in-flight deliveries are gone.  A
        warm restart (:meth:`restore_warm`) can then rebuild the cache from
        the node's last durable snapshot.
        """
        self.result.crashes += 1
        self.lose_volatile_state(time)

    def lose_volatile_state(self, time: float) -> None:
        """Drop cache/buffer/tracker/in-flight state (settling lazy polls first).

        Polls the cached entries already performed are real costs incurred
        before the loss, so they are accounted before the state disappears.
        The L1 is volatile memory like everything else: it dies too.
        """
        if self.policy.ttl_mode == "polling":
            for entry in list(self.cache.entries()):
                self.account_polls(entry, time)
            self._account_l1_only_polls(time)
        self.cache.clear()
        self.buffer.drain()
        self.tracker.clear()
        if self.l1 is not None:
            self.l1.clear()
        self._drop_pending()

    def _account_l1_only_polls(self, time: float) -> None:
        """Settle polls on entries that live only in the L1 (write-back).

        Keys present in both tiers poll once per node (the L2 copy carries
        the accounting), so only L1-only entries are charged here.
        """
        if self.l1 is None:
            return
        for entry in list(self.l1.cache.entries()):
            if self.cache.peek(entry.key) is None:
                self.account_polls(entry, time)

    def clear_l1(self, time: float) -> None:
        """Drop the L1 only (the ``cold-l1`` fleet restart: warm L2, cold L1).

        Dirty write-back entries are lost, not flushed — they only existed
        in the L1's memory.  Lazy polling costs already incurred by L1-only
        entries are settled first, mirroring :meth:`lose_volatile_state`.
        """
        if self.l1 is None:
            return
        if self.policy.ttl_mode == "polling":
            self._account_l1_only_polls(time)
        self.l1.clear()
        self.result.l1_cold_restarts += 1

    def set_l2_outage(self, active: bool, time: float) -> None:
        """Partition this node from the shared tier (``l2-outage`` scenario).

        While active, reads are served degraded from the L1 (misses fail),
        and freshness messages are lost at the channel — the node cannot
        hear the backend it cannot reach.  Polling stops too: polls already
        performed are settled when the partition starts, and when it ends
        every entry's poll-accounting bookmark jumps over the window, so the
        node is neither charged for polls it could not perform nor credited
        with the freshness those polls would have fetched.
        """
        if self.l1 is None:
            raise ClusterError(
                f"node {self.node_id} has no L1 tier to serve degraded from"
            )
        if self.policy.ttl_mode == "polling":
            if active:
                # Polls performed before the partition are real costs.
                for entry in list(self.cache.entries()):
                    self.account_polls(entry, time)
                self._account_l1_only_polls(time)
            else:
                # No poll crossed the partition: skip the window, uncharged
                # and unfreshened (as_of/version stay where the last real
                # poll left them, so post-outage staleness is honest).
                for entry in self.cache.entries():
                    entry.last_poll_accounted = max(entry.last_poll_accounted, time)
                for entry in self.l1.cache.entries():
                    entry.last_poll_accounted = max(entry.last_poll_accounted, time)
        self.l1.outage = active
        self.channel.outage = active

    def _settle_l1_victim(self, entry: CacheEntry, time: float) -> None:
        """Settle lazy polling costs on an L1 eviction victim (a polling
        node's L1 calls it).

        Only L1-only entries carry their own poll accounting (keys present
        in both tiers are accounted on the L2 copy), so only those are
        charged here — the polls they performed while L1-resident are real
        costs that must not vanish with the eviction.
        """
        if self.cache.peek(entry.key) is None:
            self.account_polls(entry, time)

    def _drop_pending(self) -> None:
        self._pending.clear()
        if self._pending_registry is not None:
            self._pending_registry.discard(self.node_id)

    def rejoin(self) -> None:
        """Return to the ring cold (empty cache), reachable again."""
        self.in_ring = True
        self.reachable = True
        self.channel.outage = False
        self.result.joins += 1

    def restore_warm(
        self,
        entries: List[CacheEntry],
        time: float,
        invalidated: int,
        l1_entries: Optional[List[CacheEntry]] = None,
        l1_invalidated: int = 0,
        l1_dirty: Optional[List[str]] = None,
    ) -> None:
        """Refill the cache from durable state (warm rejoin / warm restart).

        Args:
            entries: Recovered entries, already validated against the
                replayed write history (stale ones arrive pre-invalidated).
            time: The restore instant (anchors eviction bookkeeping).
            invalidated: How many of ``entries`` were invalidated by replay.
            l1_entries: Recovered L1 entries (validated the same way); only
                restored when this node actually runs a tier.
            l1_invalidated: How many of ``l1_entries`` replay invalidated.
            l1_dirty: Keys among ``l1_entries`` that were write-back dirty
                at the snapshot — the L2 never saw them, so they come back
                dirty and flush at the next write-back interval.
        """
        for entry in entries:
            entry.last_poll_accounted = time
            self.cache.restore_entry(entry, time)
        self.result.warm_restored += len(entries)
        self.result.warm_invalidated += invalidated
        if self.l1 is not None and l1_entries:
            for entry in l1_entries:
                entry.last_poll_accounted = time
                self.l1.cache.restore_entry(entry, time)
            self.l1.dirty.update(
                key for key in l1_dirty or () if key in self.l1.cache
            )
            self.result.warm_restored += len(l1_entries)
            self.result.warm_invalidated += l1_invalidated

    # ------------------------------------------------------------------ #
    # End of run
    # ------------------------------------------------------------------ #
    def finalize(self, end_time: float) -> None:
        """Settle trailing deliveries, flushes, and lazy polling costs, then
        record the end (:meth:`record_end`)."""
        if self.reacts_to_writes and len(self.buffer):
            self.flush(end_time)
        self.deliver_until(end_time)
        if self.policy.ttl_mode == "polling":
            for entry in list(self.cache.entries()):
                self.account_polls(entry, end_time)
            self._account_l1_only_polls(end_time)
        self.record_end(end_time)

    def record_end(self, end_time: float) -> None:
        """Record the end of the run on the result: its duration, the hot
        keys flagged and the cache statistics.  It settles nothing."""
        self.result.duration = end_time
        if self.detector is not None:
            self.result.hot_keys_flagged = len(self.detector.flagged)
        self.result.cache_stats = self.cache.stats.as_dict()
        if self.l1 is not None:
            self.result.l1_stats = self.l1.cache.stats.as_dict()


class ConcurrentCacheNode(CacheNode):
    """A :class:`CacheNode` under the in-flight fetch model: misses occupy
    ``server`` (in a fleet all nodes queue on one) for a service time drawn
    from ``concurrency`` with the node's own ``seed``, and fills land at
    completion.  The driver builds it instead of the plain node, so the
    instant-fetch paths carry no concurrency branch.  The per-request paths
    (:meth:`handle_read`, :meth:`observe_write`, :meth:`flush`) call the
    plain node's by class name, not through ``super()``, which builds a
    proxy object on every call."""

    def __init__(
        self,
        *args: Any,
        concurrency: ConcurrencyConfig,
        server: BackendServer,
        seed: int,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.fetches = FetchCoordinator(concurrency, server, seed)
        self.latency = Histogram("read_latency")
        self.result.latency_buckets = self.latency.counts

    def handle_read(self, time: float, key: str, key_size: int, value_size: int) -> None:
        """Serve one read under the in-flight fetch model.

        The plain read runs as it is — one probe, the same settling and
        classification, the same hit, degraded and unreachable paths, none
        of which touches the backend, so each records a zero latency — and
        only a miss the node can fetch goes its own way (:meth:`_miss`).
        Completions due by ``time`` land first, every read records exactly
        one latency sample, and under early expiry an L2 hit may start a
        background refresh.
        """
        fetches = self.fetches
        latency = self.latency
        if fetches.next_done <= time:
            self._apply_fetch_completions(time)
        samples = latency.count
        hits = self._l2_stats.hits
        # An early refresh reads the entry the hit found: look it up first
        # (nothing moves it before the read's own probe), since an L1
        # promotion may demote another key into a bounded L2 and evict it.
        entry = self._l2_peek(key) if fetches.early_expiry else None
        CacheNode.handle_read(self, time, key, key_size, value_size)
        if latency.count == samples:
            # ``latency.observe(0.0)``: adding 0.0 to the sum changes no bit.
            counts = latency.counts
            counts[ZERO_BUCKET] = counts.get(ZERO_BUCKET, 0) + 1
            latency.count = samples + 1
        if (
            entry is not None
            and self._l2_stats.hits > hits
            and self.reachable
            and fetches.lookup(key) is None
            and fetches.should_refresh_early(time, entry.as_of, self.staleness_bound)
        ):
            self._issue_refresh(key, time, key_size)
            self.result.early_refreshes += 1

    def _miss(
        self, time: float, key: str, key_size: int, stale: Optional[CacheEntry]
    ) -> None:
        """A miss *issues* a fetch — classified and charged at issue time,
        when the backend snapshot is taken — whose fill lands at completion.

        The stampede policy decides whether concurrent misses on one key
        coalesce (a follower rides the in-flight fetch uncharged: the leader
        paid), serve the stale copy, or wait for the fetch.
        """
        result = self.result
        fetches = self.fetches
        in_flight = fetches.lookup(key) if fetches.coalesces else None
        if in_flight is not None:
            result.coalesced_reads += 1
            if stale is not None:
                result.stale_misses += 1
            else:
                result.cold_misses += 1
            serves_stale = fetches.followers_serve_stale
            done = in_flight.done
        else:
            version, value_size = self._fetch(time, key, key_size, stale)
            done = fetches.issue(key, time, version, value_size, key_size).done
            result.backend_fetches += 1
            serves_stale = fetches.leader_serves_stale
        if serves_stale and stale is not None:
            result.stale_serves += 1
            self.latency.observe(0.0)
            bound = self.staleness_bound
            if time - bound > stale.as_of and not self.datastore.is_fresh(
                key, stale.as_of, time, bound
            ):
                result.staleness_violations += 1
        else:
            self.latency.observe(done - time)

    def _issue_refresh(self, key: str, time: float, key_size: int) -> None:
        """Background refresh (early expiry): freshness work, not a miss."""
        version, value_size = self.datastore.read(key, time)
        self.result.freshness_cost += self.costs.miss_cost(key_size, value_size)
        self.result.backend_fetches += 1
        self.fetches.issue(key, time, version, value_size, key_size)

    def _apply_fetch_completions(self, until: float) -> None:
        """Land fills for every fetch completing at or before ``until``.

        The fill carries the backend snapshot taken at issue time, so the
        entry's ``as_of`` is the issue instant.  The tracker learns about the
        refetch unconditionally (as in the instant-fetch path — the backend
        must re-invalidate on the *next* write, or a fill racing an
        invalidate would suppress every future invalidate while the cache
        holds stale data).  The buffered-write discard, however, only applies
        when the fetched version is still the backend's latest: a write that
        raced the fetch still needs its freshness message.  Fills route
        through :meth:`_fill_after_fetch` so write-back tiers install into
        the L1.
        """
        datastore = self.datastore
        for fetch in self.fetches.drain(until):
            key = fetch.key
            self._fill_after_fetch(
                fetch.issued_at, key, fetch.key_size, fetch.version, fetch.value_size
            )
            self.tracker.mark_refetched(key)
            if self._reacts and datastore.latest_version(key) == fetch.version:
                self.buffer.discard(key)

    def observe_write(
        self, time: float, key: str, key_size: int, value_size: int, owner: bool
    ) -> None:
        """Drain due fetch completions, then run the plain write observer."""
        if self.fetches.next_done <= time:
            self._apply_fetch_completions(time)
        CacheNode.observe_write(self, time, key, key_size, value_size, owner)

    def flush(self, flush_time: float) -> None:
        """Drain completions due by the flush instant, then flush normally.

        Completions land first on ties so a flush decision observes every
        fill that landed at or before its instant.
        """
        if self.fetches.next_done <= flush_time:
            self._apply_fetch_completions(flush_time)
        CacheNode.flush(self, flush_time)

    def lose_volatile_state(self, time: float) -> None:
        """Crash semantics under the fetch model: outstanding fetches die.

        Completions already due land first (they arrived before the crash),
        then the volatile state is dropped, and responses still in flight
        are discarded on arrival — the restarted process has no record of
        the requests that issued them.  The backend slots they occupy stay
        busy: the work was already admitted.
        """
        self._apply_fetch_completions(time)
        super().lose_volatile_state(time)
        self.fetches.discard_pending()

    def finalize(self, end_time: float) -> None:
        """Land trailing completions and snapshot latency, then finalize."""
        self._apply_fetch_completions(end_time)
        self.result.latency_count = self.latency.count
        self.result.latency_sum = self.latency.sum
        super().finalize(end_time)
