"""The sharded multi-node cluster simulation.

:class:`ClusterSimulation` is the fleet case of the one replay driver
(:class:`~repro.sim.driver.ReplayDriver`: request loop, due-work schedule,
finalize).  It routes one time-ordered request stream across a fleet of
:class:`~repro.sim.node.CacheNode` shards in front of the shared versioned
datastore:

* keys are placed with consistent hashing
  (:class:`~repro.cluster.hashring.ConsistentHashRing`); every key lives on
  ``replication.factor`` nodes (primary + ring successors),
* reads go to one replica chosen by the
  :class:`~repro.cluster.replication.ReplicaRouter`,
* writes commit to the shared datastore and dirty **every** replica, so the
  interval flush fans one freshness message per replica out over that
  node's own channel — replicated invalidation, the paper's §5 open problem
  multiplied by the replication factor,
* a :class:`~repro.cluster.scenarios.Scenario` script injects node failures,
  ring rebalances, flash crowds, and partitions at deterministic times, and
* per-shard :class:`~repro.cluster.hotkey.HotKeyDetector` instances can
  switch hot keys to a different freshness policy on their shard.

Nothing of this is a branch of the request loop: scenario and fault events
join the driver's due work, a key transform wraps the read and write
callables, and a kill point or a resume trims the stream.  Everything is
driven by the request clock with no hidden randomness beyond the seeded
per-node channels, so a cluster cell replays byte-identically for a fixed
seed no matter how many worker processes executed the grid.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.backend.channel import Channel
from repro.backend.datastore import DataStore
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.hotkey import HotKeyConfig, HotKeyDetector
from repro.cluster.replication import ReplicaRouter, ReplicationConfig
from repro.cluster.results import ClusterResult, NodeResult
from repro.cluster.scenarios import Scenario
from repro.core.cost_model import CostModel
from repro.core.policy import FreshnessPolicy
from repro.errors import ClusterError, StoreError
from repro.resilience.chaos import ChaosPlan, as_chaos_plan
from repro.sim.driver import ReplayDriver
from repro.sim.node import CacheNode
from repro.sim.results import SimulationResult
from repro.store.migrate import malformed
from repro.store.recovery import (
    RecoveryReport,
    load_checkpoint,
    recover_datastore,
    restore_checkpoint,
    warm_state,
)
from repro.store.runtime import StoreRuntime
from repro.store.snapshot import (
    StoreConfig,
    restore_node,
    serialize_node,
    serialize_node_stub,
)
from repro.tier.config import TierConfig
from repro.workload.base import Request

PolicyLike = Union[str, Callable[[], FreshnessPolicy]]

#: Multiplier decorrelating per-node channel/detector seeds from the cell seed.
_NODE_SEED_STRIDE = 0x9E3779B1


@lru_cache(maxsize=16)
def _shape_ring(num_nodes: int, vnodes: int, zones: int) -> ConsistentHashRing:
    """The ring a fresh fleet of this shape starts on: nodes ``node-000``,
    ``node-001``, ... at ``vnodes`` points each, labelled ``zone-{i %
    zones}`` when there is more than one zone.  It is a function of the
    shape alone, so it is built once per shape; never handed out itself,
    since membership changes mutate a fleet's ring in place: each fleet
    takes a :meth:`~ConsistentHashRing.copy`."""
    ring = ConsistentHashRing(vnodes=vnodes)
    for index in range(num_nodes):
        ring.add_node(_node_id(index), zone=f"zone-{index % zones}" if zones > 1 else None)
    return ring


def _node_id(index: int) -> str:
    """The id of the node a fleet creates at ``index``."""
    return f"node-{index:03d}"


def _resolve_policy_factory(policy: PolicyLike) -> Callable[[], FreshnessPolicy]:
    """Turn a registry name or zero-arg factory into a factory."""
    if isinstance(policy, str):
        # Runtime import: the registry lives in the experiments layer, which
        # itself imports this module for cluster cells.
        from repro.experiments.registry import make_policy

        return lambda: make_policy(policy)
    if isinstance(policy, FreshnessPolicy):
        raise ClusterError(
            "pass a policy name or factory, not an instance — every node "
            "needs its own policy state"
        )
    return policy


#: Why a fleet configuration is refused, rule by rule in the order
#: :func:`check_fleet` asks them, as the templates it fills in.  "What runs
#: where" in docs/guides/performance.md lists them verbatim.
FLEET_REFUSALS: Dict[str, str] = {
    "zones": (
        "zones ({zones}) exceeds fleet size ({num_nodes}): every zone needs at least one node, "
        "so the smallest fleet with {zones} zones has {zones} nodes"
    ),
    "replication": "replication factor {replication} exceeds fleet size {num_nodes}",
    "clairvoyant": (
        "clairvoyant policy {policy!r} is not supported in cluster mode: it needs the future "
        "request index, which a fleet does not build"
    ),
    "duration": "scenarios need an explicit duration to resolve their timelines",
    "chaos-concurrency": (
        "chaos plans drawing slow-node faults exercise the in-flight fetch model: pass "
        "concurrency=ConcurrencyConfig(...) or drop 'slow-node' from ChaosSpec.kinds"
    ),
    "scenario-tier": (
        "scenario {scenario!r} exercises the L1 tier: pass tier=TierConfig(l1_capacity=...) "
        "with a positive capacity"
    ),
    "scenario-store": (
        "scenario {scenario!r} needs a configured store (pass store=StoreConfig(...))"
    ),
    # A warm restore can only use snapshots that exist before the failure;
    # with no cadence the scenario would silently run cold.
    "scenario-snapshots": (
        "scenario {scenario!r} restores nodes from periodic snapshots: "
        "set StoreConfig.snapshot_interval"
    ),
    "scenario-concurrency": (
        "scenario {scenario!r} exercises the in-flight fetch model: "
        "pass concurrency=ConcurrencyConfig(...)"
    ),
    "scenario-zones": (
        "scenario {scenario!r} needs at least {min_zones} zones (failure domains); "
        "the fleet was built with zones={zones}"
    ),
}


def check_fleet(
    *,
    num_nodes: int,
    replication: int,
    zones: int,
    policies: Iterable[FreshnessPolicy],
    scenario: Scenario,
    chaos: Optional[ChaosPlan],
    staleness_bound: float,
    duration: Optional[float],
    tier: bool,
    store: bool,
    snapshots: bool,
    concurrency: bool,
) -> None:
    """Refuse a fleet configuration that cannot run, before anything runs.

    The one statement of the rule.  :class:`ClusterSimulation` asks it at
    construction; :class:`~repro.experiments.spec.ExperimentSpec` asks it of
    every fleet combination on its axes.  ``tier`` / ``store`` /
    ``snapshots`` (a snapshot cadence) / ``concurrency`` say what the fleet
    runs with; ``duration`` is ``None`` when the caller gave none.  Raises
    :class:`~repro.errors.ClusterError` with the first :data:`FLEET_REFUSALS`
    reason that holds, then binds ``scenario`` to the run so that its own
    range and timeline refusals surface here too.
    """
    clairvoyant = next((policy.name for policy in policies if policy.needs_future), None)
    holds = {
        "zones": zones > num_nodes,
        "replication": replication > num_nodes,
        "clairvoyant": clairvoyant is not None,
        "duration": duration is None and (type(scenario) is not Scenario or chaos is not None),
        "chaos-concurrency": chaos is not None and chaos.needs_concurrency and not concurrency,
        "scenario-tier": scenario.requires_tier and not tier,
        "scenario-store": scenario.requires_persistence and not store,
        "scenario-snapshots": scenario.requires_persistence and not snapshots,
        "scenario-concurrency": scenario.requires_concurrency and not concurrency,
        "scenario-zones": scenario.min_zones > zones,
    }
    facts = dict(num_nodes=num_nodes, replication=replication, zones=zones, policy=clairvoyant)
    facts.update(scenario=scenario.name, min_zones=scenario.min_zones)
    for rule, template in FLEET_REFUSALS.items():
        if holds[rule]:
            raise ClusterError(template.format(**facts))
    scenario.bind(duration or 0.0, staleness_bound, num_nodes)


class ClusterSimulation(ReplayDriver):
    """Replay a request stream across a sharded, replicated cache fleet.

    Args:
        workload: Time-ordered request stream (consumed lazily, like the
            single-cache :class:`~repro.sim.simulation.Simulation`).
        policy: Freshness policy per shard: a registry name or a zero-arg
            factory (each node gets its own instance).  Clairvoyant policies
            (``needs_future``) are not supported in cluster mode.
        num_nodes: Fleet size.
        staleness_bound: The bound ``T`` in seconds, fleet-wide; positive and
            finite.
        costs: Cost model shared by every node.
        replication: Replication factor (int) or a full
            :class:`~repro.cluster.replication.ReplicationConfig`.
        cache_capacity: Per-node cache capacity (``None`` = unbounded); a
            bounded cache evicts its least recently used key.
        channel: ``None`` for ideal per-node channels, or a
            :class:`~repro.experiments.spec.ChannelSpec`; each node's channel
            is built from it (:meth:`~repro.experiments.spec.ChannelSpec.build`)
            with a seed derived from ``seed`` and the node's index.
        scenario: Scenario script (``None`` = steady state).
        hotkey: Hot-key detection config (``None`` disables detection).
        duration: Simulated horizon (positive and finite); defaults to the
            last request time.
        workload_name: Label recorded in the result.
        vnodes: Virtual nodes per physical node on the hash ring.
        seed: Root seed for per-node channels and detectors.
        store: Optional persistence config (:class:`~repro.store.StoreConfig`).
            When given, backend writes are journaled to a write-ahead log and
            the datastore plus every reachable node's volatile state are
            snapshotted at ``snapshot_interval`` — enabling ``run(stop_at=…)``
            crash points, :meth:`restore_from_store` resume, warm node
            rejoin, and the ``kill-at-t`` scenario's warm restart.
        tier: Optional :class:`~repro.tier.TierConfig` placing a small L1 in
            front of every node's cache (the node cache then acts as the
            sharded L2).  A disabled config (``l1_capacity=0``) is normalised
            to ``None`` and reproduces single-tier results byte-for-byte.
        obs: Optional observability settings (:class:`~repro.obs.ObsConfig`
            or a pre-built :class:`~repro.obs.ObsRecorder`).  The recorder
            samples every node's counters per window, traces sampled
            request spans plus fleet events (scenario transitions,
            rebalances, snapshots, recovery), and exposes its payload on
            ``ClusterResult.obs``.  Results stay byte-identical with
            observability on or off; when ``None`` (default) the replay
            binds its plain hot path with zero overhead.
        concurrency: Optional in-flight fetch model
            (:class:`~repro.concurrency.ConcurrencyConfig`).  When given,
            every node's miss fetches occupy slots on one *shared*
            :class:`~repro.concurrency.BackendServer` (the fleet contends
            for the same backend), each node runs its own per-node in-flight
            table and stampede policy, and per-read latency lands in the
            node results.  ``None`` (default) keeps the instant-fetch model
            byte-identical.  Incompatible with ``run(stop_at=...)`` /
            :meth:`restore_from_store` (in-flight fetches are volatile state
            a checkpoint does not capture).
        zones: Number of failure domains: node ``i`` is labeled
            ``zone-{i % zones}`` on the ring.  Zones never affect placement
            (pure metadata), so ``zones=1`` (default, unlabeled) is
            byte-identical to any other labeling; correlated-failure
            scenarios (``zone-outage``) require ``zones >= 2``.
        chaos: Optional seeded fault plan
            (:class:`~repro.resilience.ChaosSpec` or a prepared
            :class:`~repro.resilience.ChaosPlan`).  Its timed faults (delay,
            drop, slow-node, crash) merge with the scenario's events, so
            chaos composes with any scenario.
    """

    _error = ClusterError
    _name = "ClusterSimulation"

    def __init__(
        self,
        workload: Iterable[Request],
        policy: PolicyLike,
        num_nodes: int,
        staleness_bound: float,
        costs: Optional[CostModel] = None,
        replication: Union[int, ReplicationConfig, None] = None,
        cache_capacity: Optional[int] = None,
        channel: Optional[Any] = None,
        scenario: Optional[Scenario] = None,
        hotkey: Optional[HotKeyConfig] = None,
        duration: Optional[float] = None,
        workload_name: str = "",
        vnodes: int = 64,
        seed: int = 0,
        store: Optional[StoreConfig] = None,
        tier: Optional[TierConfig] = None,
        obs: Optional[Any] = None,
        concurrency: Optional[Any] = None,
        zones: int = 1,
        chaos: Optional[Any] = None,
    ) -> None:
        if num_nodes < 1:
            raise ClusterError(f"num_nodes must be >= 1, got {num_nodes}")
        if zones < 1:
            raise ClusterError(f"zones must be >= 1, got {zones}")
        super().__init__(
            staleness_bound=staleness_bound,
            duration=duration,
            costs=costs,
            workload_name=workload_name,
            concurrency=concurrency,
        )
        if replication is None:
            replication = ReplicationConfig()
        elif isinstance(replication, int):
            replication = ReplicationConfig(factor=replication)

        # A zero-capacity tier IS the single-tier fleet: normalising it to
        # ``None`` here is what pins the l1_capacity=0 equivalence.
        if tier is not None and not tier.enabled:
            tier = None
        self.tier = tier
        self.replication = replication
        self._stream: Iterable[Request] = workload
        self.seed = int(seed)

        policy_factory = _resolve_policy_factory(policy)
        probe = policy_factory()
        self.policy_name = probe.name
        hot_factory: Optional[Callable[[], FreshnessPolicy]] = None
        if hotkey is not None and hotkey.hot_policy is not None:
            hot_factory = _resolve_policy_factory(hotkey.hot_policy)
        self.scenario = scenario if scenario is not None else Scenario()
        self.zones = int(zones)
        self.chaos = as_chaos_plan(chaos)
        # Every refusal comes before the first side effect (the store opens
        # its log below) and long before the first request.
        check_fleet(
            num_nodes=num_nodes,
            replication=replication.factor,
            zones=self.zones,
            policies=[probe] + ([hot_factory()] if hot_factory is not None else []),
            scenario=self.scenario,
            chaos=self.chaos,
            staleness_bound=self.staleness_bound,
            duration=duration,
            tier=self.tier is not None,
            store=store is not None,
            snapshots=store is not None and store.snapshot_interval is not None,
            concurrency=self.concurrency is not None,
        )

        self._open(store, obs)
        self.ring = _shape_ring(num_nodes, vnodes, self.zones).copy()
        self.router = ReplicaRouter(replication)
        nodes: List[CacheNode] = []
        for index in range(num_nodes):
            node_id = _node_id(index)
            node_seed = (self.seed + _NODE_SEED_STRIDE * (index + 1)) % 2**32
            # The probe instance seeds node 0 so its construction is not
            # wasted; every other node gets a fresh instance.
            node_policy = probe if index == 0 else policy_factory()
            nodes.append(
                self._node(
                    node_seed,
                    node_id=node_id,
                    policy=node_policy,
                    result=NodeResult(
                        node_id=node_id,
                        policy_name=node_policy.name,
                        workload_name=workload_name,
                        staleness_bound=self.staleness_bound,
                    ),
                    cache_capacity=cache_capacity,
                    channel=(
                        channel.build(node_seed) if channel is not None else Channel(seed=node_seed)
                    ),
                    hot_policy=hot_factory() if hot_factory is not None else None,
                    detector=(
                        HotKeyDetector(hotkey, seed=node_seed ^ 0x5BF03635)
                        if hotkey is not None
                        else None
                    ),
                    tier=self.tier,
                    tier_seed=node_seed ^ 0x1F123BB5,
                )
            )
        self._adopt(nodes)

        self._rebalances = 0
        self.event_log: List[tuple[float, str]] = []
        # Hot-path aliases: the ring and factor never change after
        # construction (membership changes mutate the ring in place).
        self._route = self.ring.route
        self._factor = self.replication.factor
        # Live key -> replicas map for this factor: cleared in place by the
        # ring on membership change, so the alias never goes stale.
        self._route_map = self.ring.route_cache_for(self._factor)

    # ------------------------------------------------------------------ #
    # Scenario control surface
    # ------------------------------------------------------------------ #
    def node_at(self, index: int) -> CacheNode:
        """Return the node created at ``index`` (scenario addressing)."""
        try:
            return self._node_list[index]
        except IndexError as exc:
            raise ClusterError(f"no node at index {index}") from exc

    def nodes(self) -> List[CacheNode]:
        """The fleet's nodes in creation order (scenario addressing)."""
        return list(self._node_list)

    def fail_node(self, index: int) -> None:
        """Fail a node silently (unreachable, still serving, still on ring)."""
        self.node_at(index).fail()

    def remove_node(self, index: int, time: float) -> None:
        """Detect a failure: take the node off the ring and purge its state."""
        node = self.node_at(index)
        if node.node_id in self.ring:
            if len(self.ring) == 1:
                raise ClusterError("cannot remove the last node from the ring")
            self.ring.remove_node(node.node_id)
            self._rebalances += 1
            self._event(time, "rebalance", action="remove", node=node.node_id)
        node.depart(time)

    def rejoin_node(self, index: int, warm: bool = False, time: Optional[float] = None) -> None:
        """Bring a previously removed node back — cold, or warm from its store.

        A warm rejoin restores the node's cache from its last completed
        snapshot and replays the recovered write history over it: entries
        whose key was written while the node was down come back invalidated
        (the node missed those invalidates), the rest come back valid.
        """
        node = self.node_at(index)
        time = time if time is not None else self.clock.now
        if node.node_id not in self.ring:
            self.ring.add_node(node.node_id)
            self._rebalances += 1
            self._event(time, "rebalance", action="add", node=node.node_id, warm=warm)
        node.rejoin()
        if warm:
            self._warm_restore(node, time)

    def deactivate_node(self, index: int) -> None:
        """Park a node in standby: off the ring without a departure.

        Unlike :meth:`remove_node` this is not a failure or a drain — the
        node simply never joined (the autoscaler's t=0 headroom), so no
        departure is counted, no rebalance is recorded, and no state is
        purged (there is nothing to purge).
        """
        node = self.node_at(index)
        if node.node_id not in self.ring:
            return
        if len(self.ring) == 1:
            raise ClusterError("cannot deactivate the last node on the ring")
        self.ring.remove_node(node.node_id)
        node.in_ring = False

    def crash_restart(self, time: float, warm: bool) -> None:
        """Kill-at-t: every node loses its volatile state and restarts.

        The backend datastore is authoritative and survives; with ``warm``
        (requires a configured store) each node rebuilds its cache from its
        last snapshot plus WAL-replayed validation, otherwise the whole fleet
        restarts cold.
        """
        replayed: Optional[DataStore] = None
        if warm:
            # One recovery pass for the whole fleet: every node validates
            # against the same durable write history.
            self._store_or_raise().journal.sync()
            replayed, _ = recover_datastore(self._store.config.root)
        self._event(time, "crash-restart", warm=warm)
        for node in self._node_list:
            node.crash(time)
            if warm:
                self._warm_restore(node, time, replayed)

    def _store_or_raise(self) -> StoreRuntime:
        if self._store is None:
            raise ClusterError(
                "warm restore needs a configured store (pass store=StoreConfig(...))"
            )
        return self._store

    def _warm_restore(
        self, node: CacheNode, time: float, replayed: Optional[DataStore] = None
    ) -> None:
        store = self._store_or_raise()
        if replayed is None:
            # The node restores from *durable* state: sync first so the WAL
            # tail covering the outage window is on disk for replay.
            store.journal.sync()
        state = warm_state(store.config.root, node.node_id, time, replayed)
        if state is None:
            # No snapshot ever captured this node (it failed before the first
            # interval): nothing to restore, the rejoin stays cold.
            return
        node.restore_warm(
            state.entries,
            time,
            state.invalidated,
            l1_entries=state.l1_entries,
            l1_invalidated=state.l1_invalidated,
            l1_dirty=state.l1_dirty,
        )

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def run(self, stop_at: Optional[float] = None) -> ClusterResult:
        """Replay the request stream and return the aggregated result.

        Args:
            stop_at: Optional kill point.  Every request with ``time <=
                stop_at`` is processed, a durable checkpoint is written
                (requires a configured store), and a partial result marked
                ``interrupted`` is returned — the state a crashed process
                would leave on disk.  A later :meth:`restore_from_store` on a
                freshly constructed, identically configured cluster resumes
                the run with identical counters.
        """
        self._spend()
        if stop_at is not None and self._store is None:
            raise ClusterError("run(stop_at=...) needs a configured store to crash into")
        if stop_at is not None and self.concurrency is not None:
            raise ClusterError(
                "run(stop_at=...) is incompatible with concurrency: in-flight "
                "fetches are volatile state a checkpoint does not capture"
            )
        self._schedule()
        self._start("scalar")
        self._replay(self._stream, stop_at)
        return self._finalize(stop_at)

    def _schedule(self) -> None:
        """Bind the scenario and the fault plan to the run and queue their events."""
        # check_fleet() accepted this binding at construction; a scenario
        # object shared with another fleet may have been re-bound since.
        self.scenario.bind(
            duration=self.duration,
            staleness_bound=self.staleness_bound,
            num_nodes=len(self._node_list),
        )
        self.scenario.check(self)
        scripted = self.scenario.events()
        if self.chaos is not None:
            self.chaos.bind(self.duration, len(self._node_list))
            scripted = scripted + self.chaos.events()
        # Events up to a resumed checkpoint were applied before the crash and
        # their effects live in the restored state: skip, don't re-apply.
        resumed = self._resume_from if self._resume_from is not None else -math.inf
        scripted = [event for event in scripted if event.time > resumed]
        self._events = deque(sorted(scripted, key=lambda event: event.time))
        self._next_event = self._events[0].time if self._events else math.inf
        # Control-loop scenarios observe the fleet at flush cadence, and a
        # key transform wraps the read and write callables: each is bound
        # only when the scenario overrides it, so plain runs pay nothing.
        scenario_type = type(self.scenario)
        self._interval_hook = (
            self.scenario.on_interval
            if scenario_type.on_interval is not Scenario.on_interval
            else None
        )
        self._transform = (
            self.scenario.transform_request
            if scenario_type.transform_request is not Scenario.transform_request
            else None
        )

    def _handlers(self):
        # The read policy is resolved once per run: routing and the node's
        # read path are one call per read, wrapped by the recorder and the
        # key transform alike.
        self._process_read = self.router.bind(
            self._route_map,
            self._route,
            self._factor,
            {node.node_id: node.handle_read for node in self._node_list},
        )
        handlers, transform = super()._handlers(), self._transform
        if transform is None:
            return handlers
        return tuple(
            lambda time, key, key_size, value_size, handle=handle: handle(
                time, transform(time, key, key_size, value_size), key_size, value_size
            )
            for handle in handlers
        )

    def _run_meta(self) -> Dict[str, Any]:
        return {"scenario": self.scenario.name}

    def _apply_event(self) -> None:
        """Apply the next scripted event, after the deliveries due by its time."""
        event = self._events.popleft()
        self._next_event = self._events[0].time if self._events else math.inf
        self._deliver(event.time)
        self.clock.advance_to(event.time)
        event.apply(self, event.time)
        self.event_log.append((event.time, event.label))
        self._event(event.time, "scenario", label=event.label, scenario=self.scenario.name)

    def _event(self, time: float, kind: str, **fields: Any) -> None:
        """Record a fleet-wide event when a recorder is attached."""
        if self.obs is not None:
            self.obs.event(time, kind, **fields)

    # ------------------------------------------------------------------ #
    # Persistence: checkpoint, crash, resume
    # ------------------------------------------------------------------ #
    def _checkpoint(self, time: float) -> None:
        """Write one durable snapshot of the datastore and the fleet.

        Live (reachable, in-ring) nodes are captured in full; failed or
        departed nodes get a stub — their local disk stopped at their last
        completed snapshot, which is exactly what a warm rejoin later
        restores, but their run counters and membership flags still belong
        to the checkpoint.
        """
        self._store.checkpoint(
            time,
            self.datastore,
            nodes={
                node.node_id: (
                    serialize_node(node)
                    if node.reachable and node.in_ring
                    else serialize_node_stub(node)
                )
                for node in self._node_list
            },
            extra_fn=lambda: {
                "time": time,
                "next_flush": self._next_flush if math.isfinite(self._next_flush) else None,
                "rebalances": self._rebalances,
                "event_log": [[when, label] for when, label in self.event_log],
                # Round-robin read routing is per-key volatile state too.
                "router": dict(self.router._round_robin),
            },
        )

    def restore_from_store(self) -> "RecoveryReport":
        """Resume from the last durable checkpoint in the configured store.

        Rebuilds the shared datastore (snapshot + WAL tail replay), every
        node's volatile state, the ring membership, the flush/snapshot
        schedules, and the persistence counters, then arms the run loop to
        skip everything already processed before the crash.  Call on a
        freshly constructed cluster with the same configuration and workload,
        then :meth:`run`.  Returns the recovery report.

        Exact-resume limits (the failure model is the recovery guide's
        table): the sketch E[W] estimators come back cold (a bounded cache's
        LRU order and the exact tracker are checkpointed); hot-key detectors
        are not snapshotted; and a node that was fail-silent at the
        checkpoint (unreachable but still serving its cache) is restored
        empty — its cache was volatile memory with no durable claim, so it
        died with the crash, whereas an uninterrupted run would have kept
        serving it.  Identical-counter resume therefore
        holds for checkpoints taken outside fail-silent windows, which is
        what the tests pin.
        """
        if self._store is None:
            raise ClusterError("restore_from_store needs a configured store")
        if self.concurrency is not None:
            raise ClusterError(
                "restore_from_store is incompatible with concurrency: "
                "in-flight fetch state is not checkpointed, resume would diverge"
            )
        if self._has_run:
            raise ClusterError("restore must happen before run()")
        if any(node.detector is not None for node in self._node_list):
            raise ClusterError("resume with hot-key detection is not supported")
        checkpoint = load_checkpoint(self._store.config.root)
        report = restore_checkpoint(self.datastore, self._store.config.root, checkpoint)
        if report.wal_records:
            # Any tail past the watermark — writes, read deltas, or even
            # message audit records — means the run advanced beyond the last
            # checkpoint before dying.  run(stop_at=...) always checkpoints
            # at the kill point, so a tail only appears on an out-of-band
            # crash; refuse rather than resume from a rewound state.
            raise StoreError(
                "WAL records found past the checkpoint watermark: the crash "
                "was not taken at a durable checkpoint, resume would diverge"
            )
        for node_id, node_data in checkpoint.nodes.items():
            node = self._nodes.get(node_id)
            if node is None:
                raise StoreError(f"{checkpoint.path} references unknown node {node_id!r}")
            with malformed(checkpoint.path, f"node {node_id!r}"):
                restore_node(node, node_data, checkpoint.time)
        # Ring membership follows the restored in_ring flags.
        for node in self._node_list:
            on_ring = node.node_id in self.ring
            if node.in_ring and not on_ring:
                self.ring.add_node(node.node_id)  # pragma: no cover - defensive
            elif not node.in_ring and on_ring:
                self.ring.remove_node(node.node_id)
        extra = checkpoint.extra
        with malformed(checkpoint.path, "extra"):
            next_flush = extra["next_flush"]
            self._next_flush = float(next_flush) if next_flush is not None else math.inf
            self._rebalances = int(extra["rebalances"])
            self.event_log = [(when, label) for when, label in extra["event_log"]]
            # In place: a read callable bound before the restore holds this dict.
            self.router._round_robin.clear()
            self.router._round_robin.update(
                (key, int(count)) for key, count in extra["router"].items()
            )
            next_snapshot = extra["next_snapshot"]
        self.clock.advance_to(checkpoint.time)
        self._resume_from = checkpoint.time
        with malformed(checkpoint.path, "journal"):
            self._store.restore(checkpoint.journal, next_snapshot, checkpoint.wal_lsn)
        if self.obs is not None:
            self.obs.event(
                checkpoint.time,
                "recovery",
                snapshot_seq=checkpoint.seq,
                keys=report.recovered_keys,
                versions=report.recovered_versions,
            )
        return report

    def _process_write(self, time: float, key: str, key_size: int, value_size: int) -> None:
        self.datastore.write(key, time, value_size)
        replicas = self._route_map.get(key)
        if replicas is None:
            replicas = self._route(key, self._factor)
        nodes = self._nodes
        owner = True
        for node_id in replicas:
            nodes[node_id].observe_write(time, key, key_size, value_size, owner)
            owner = False

    def _result(
        self, end_time: float, stats: Optional[Dict[str, Any]], interrupted: bool
    ) -> Tuple[ClusterResult, SimulationResult]:
        result = ClusterResult(
            policy_name=self.policy_name,
            workload_name=self.workload_name,
            staleness_bound=self.staleness_bound,
            duration=end_time,
            num_nodes=len(self._node_list),
            replication=self.replication.factor,
            read_policy=self.replication.read_policy,
            scenario=self.scenario.name,
            l1_capacity=self.tier.l1_capacity if self.tier is not None else 0,
            tier_mode=self.tier.mode if self.tier is not None else "write-through",
        )
        result.nodes = [node.result for node in self._node_list]
        result.rebalances = self._rebalances
        result.interrupted = interrupted
        result.store = stats
        result.finalize()
        # Scenario-owned outcome fields (elasticity lag/cost/staleness) land
        # after the counter fold so finalize() cannot zero them.
        fields = self.scenario.result_fields()
        for field_name, value in fields.items():
            setattr(result, field_name, value)
        if interrupted:
            self._event(end_time, "interrupted")
        if self.obs is not None:
            self.obs.add_totals(fields)
        return result, result.totals

    def _finalize(self, stop_at: Optional[float] = None) -> ClusterResult:
        result = super()._finalize(stop_at)
        if self.obs is not None:
            result.obs = self.obs.payload()
        return result
