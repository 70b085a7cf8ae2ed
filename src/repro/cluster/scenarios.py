"""Cluster failure and load scenarios.

A scenario is a deterministic script of timed control-plane events (node
failures, ring rebalances, partitions) plus an optional request transform
(key-skew shifts).  The cluster applies events as simulated time passes, so a
scenario cell replays identically for a fixed seed regardless of the worker
schedule.

Three scenarios ship, matching the fleet-scale questions the paper's single
cache cannot ask:

* ``node-failure`` — a node fails silently: it stops receiving freshness
  messages and can no longer re-fetch, but keeps serving its local cache
  until the failure detector fires and the ring rebalances around it; later
  it rejoins cold.  The detection window is where stale serves spike — the
  §5 lost-invalidate problem compounded by replication.
* ``flash-crowd`` — at a shift point, a slice of the traffic stampedes onto
  a handful of brand-new event keys (think a breaking-news object), moving
  the hot set onto shards that have never seen those keys.
* ``partition`` — the freshness channel to a subset of nodes turns lossy (or
  fully drops) for a window; fetches still work, so the nodes serve and fill
  normally while silently missing invalidates.
* ``kill-at-t`` — the whole fleet crashes at a point in time and restarts
  immediately: every node's volatile state (cache, buffers, in-flight
  messages) is lost.  With ``mode="warm"`` and a configured store
  (:mod:`repro.store`) each node rebuilds its cache from its last snapshot
  plus WAL-replayed validation; ``mode="cold"`` restarts empty — the pair
  quantifies what durability buys.
* ``l2-outage`` — the shared tier is partitioned away from a subset of nodes
  for a window: reads are served *degraded* straight from each node's L1
  (stale entries included — availability over freshness), L1 misses fail
  outright, and freshness messages are lost.  Requires the fleet to run with
  a tier (:class:`~repro.tier.TierConfig`).
* ``cold-l1`` — the fleet restarts with a warm L2 but empty L1s (a rolling
  binary deploy: the process-local tier dies, the shared tier survives),
  measuring the L1 warming transient.  Requires a tier as well.

``node-failure`` additionally accepts ``rejoin="warm"``: instead of coming
back cold, the recovered node restores its cache from the last snapshot its
local disk completed before the failure, invalidating exactly the keys the
backend wrote while it was away.

Two scenarios target the in-flight fetch model (:mod:`repro.concurrency`):

* ``stampede`` — at a point in time, a deterministic slice of every node's
  resident entries expires at once (a deploy flushing TTLs, a mass
  invalidation): the next wave of reads all miss together and, without a
  mitigation policy, dogpiles the backend.
* ``backend-saturation`` — the shared backend's fetch capacity is squeezed
  to a fraction of its configured slots for a window, then restored; misses
  queue, latency tails grow, and stale-serving policies show their value.
  Requires the fleet to run with ``concurrency=ConcurrencyConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.entry import EntryState
from repro.errors import ClusterError
from repro.sketch.hashing import stable_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ClusterSimulation


@dataclass(slots=True)
class ScenarioEvent:
    """One timed control-plane action applied to the cluster."""

    time: float
    label: str
    apply: Callable[["ClusterSimulation", float], None] = field(repr=False)


class Scenario:
    """Base class: no events, identity transform."""

    name = "none"

    def __init__(self) -> None:
        self.duration = 0.0
        self.staleness_bound = 0.0
        self.num_nodes = 0

    @property
    def requires_persistence(self) -> bool:
        """Whether the scenario needs the cluster to run with a store."""
        return False

    @property
    def requires_tier(self) -> bool:
        """Whether the scenario needs the fleet to run with an L1 tier."""
        return False

    @property
    def requires_concurrency(self) -> bool:
        """Whether the scenario needs the in-flight fetch model enabled."""
        return False

    @property
    def requires_full_fleet(self) -> bool:
        """Whether the scenario drives dynamic membership over the full fleet.

        Scenarios that decide membership from *global* runtime signals (the
        autoscaler) cannot be sharded: an ownership-masked shard sees only a
        slice of the load, so its decisions would diverge from the full
        fleet's.  Shard-parallel replay refuses such scenarios outright.
        """
        return False

    @property
    def min_zones(self) -> int:
        """Minimum number of distinct zone labels the fleet must carry."""
        return 1

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        """Resolve time defaults against the run's horizon and bound."""
        self.duration = float(duration)
        self.staleness_bound = float(staleness_bound)
        self.num_nodes = int(num_nodes)

    def check(self, cluster: "ClusterSimulation") -> None:
        """Validate the bound scenario against the concrete cluster.

        Called once by ``ClusterSimulation.run()`` after :meth:`bind`, before
        any request is replayed.  Scenarios that need fleet properties beyond
        the ``requires_*`` flags (zone labels, specific node counts) raise
        :class:`~repro.errors.ClusterError` here — a refusal up front instead
        of a mid-run surprise.
        """

    def events(self) -> List[ScenarioEvent]:
        """Return the timed events, sorted by time."""
        return []

    def on_interval(self, cluster: "ClusterSimulation", time: float) -> None:
        """Hook invoked after every background flush boundary.

        The default is a no-op.  Control-loop scenarios (the autoscaler)
        override this to observe the fleet at flush cadence and react in
        simulated time; the cluster only calls the hook when it is
        overridden, so plain scenarios pay nothing on the hot path.
        """

    def result_fields(self) -> Dict[str, Any]:
        """Extra scenario-owned fields merged into the cluster result.

        Whatever mapping this returns after the run is set verbatim on the
        :class:`~repro.cluster.results.ClusterResult` (and folded into the
        obs summary totals), making scenario-level outcomes — elasticity lag,
        scaling cost — first-class, SLO-gateable result fields.
        """
        return {}

    def transform_request(self, time: float, key: str, key_size: int, value_size: int) -> str:
        """Return the key a request is routed under (default: its own).

        Only the key can be rewritten: the arrival time fixes the request's
        place in the stream and the sizes belong to the object.
        """
        return key

    def describe(self) -> Dict[str, Any]:
        """Scenario coordinates recorded next to the results."""
        return {"name": self.name}


class NodeFailureScenario(Scenario):
    """Fail-silent node loss with delayed detection, rebalance, and rejoin.

    Timeline (defaults as fractions of the run):

    * ``fail_at`` (default ``0.4 * duration``) — the node loses its backend
      connection: in-flight freshness messages are dropped, new ones bounce,
      misses cannot re-fetch, but reads routed to it are still served from
      its cache.
    * ``detect_at`` (default ``fail_at + max(4 * T, 0.05 * duration)``) — the
      failure detector fires: the node leaves the ring (its cache is purged)
      and its keys move to the surviving nodes.
    * ``recover_at`` (default ``0.75 * duration``; ``None`` disables) — the
      node rejoins the ring: cold by default, or warm (restoring its cache
      from its last pre-failure snapshot, with keys written during the
      outage invalidated) when ``rejoin="warm"``.

    Args:
        node_index: Index of the node to fail (default 0).
        fail_at / detect_at / recover_at: Absolute times overriding the
            defaults above (``recover_at=None`` keeps the node out for good).
        rejoin: ``"cold"`` (empty cache) or ``"warm"`` (restore from the
            node's durable snapshot; requires the cluster to run with a
            :class:`~repro.store.StoreConfig`).
    """

    name = "node-failure"

    _AUTO = "auto"

    def __init__(
        self,
        node_index: int = 0,
        fail_at: Optional[float] = None,
        detect_at: Optional[float] = None,
        recover_at: Optional[float] | str = _AUTO,
        rejoin: str = "cold",
    ) -> None:
        super().__init__()
        if node_index < 0:
            raise ClusterError(f"node_index must be >= 0, got {node_index}")
        if rejoin not in ("cold", "warm"):
            raise ClusterError(f"rejoin must be 'cold' or 'warm', got {rejoin!r}")
        self.rejoin = rejoin
        self.node_index = int(node_index)
        # Constructor arguments stay untouched; bind() resolves them into the
        # ``fail_at``/``detect_at``/``recover_at`` timeline, so the same
        # scenario instance can be re-bound to a different run.
        self._fail_at_arg = fail_at
        self._detect_at_arg = detect_at
        self._recover_at_arg = recover_at
        self.fail_at: float = 0.0
        self.detect_at: float = 0.0
        self.recover_at: Optional[float] = None

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        if self.node_index >= num_nodes:
            raise ClusterError(
                f"node_index {self.node_index} out of range for {num_nodes} nodes"
            )
        self.fail_at = 0.4 * duration if self._fail_at_arg is None else self._fail_at_arg
        self.detect_at = (
            self.fail_at + max(4.0 * staleness_bound, 0.05 * duration)
            if self._detect_at_arg is None
            else self._detect_at_arg
        )
        if self._recover_at_arg == self._AUTO:
            self.recover_at = max(0.75 * duration, self.detect_at + staleness_bound)
        else:
            self.recover_at = self._recover_at_arg
        if self.recover_at is not None and self.recover_at <= self.detect_at:
            raise ClusterError("recover_at must be after detect_at")
        if not self.fail_at < self.detect_at:
            raise ClusterError("detect_at must be after fail_at")

    @property
    def requires_persistence(self) -> bool:
        return self.rejoin == "warm"

    def events(self) -> List[ScenarioEvent]:
        index = self.node_index
        warm = self.rejoin == "warm"

        def fail(cluster: "ClusterSimulation", time: float) -> None:
            cluster.fail_node(index)

        def detect(cluster: "ClusterSimulation", time: float) -> None:
            cluster.remove_node(index, time)

        def recover(cluster: "ClusterSimulation", time: float) -> None:
            cluster.rejoin_node(index, warm=warm, time=time)

        label = "recover-warm" if warm else "recover"
        events = [
            ScenarioEvent(time=self.fail_at, label="fail", apply=fail),
            ScenarioEvent(time=self.detect_at, label="detect", apply=detect),
        ]
        if self.recover_at is not None:
            events.append(ScenarioEvent(time=self.recover_at, label=label, apply=recover))
        return events

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "node_index": self.node_index,
            "fail_at": self.fail_at,
            "detect_at": self.detect_at,
            "recover_at": self.recover_at,
            "rejoin": self.rejoin,
        }


class FlashCrowdScenario(Scenario):
    """Sudden traffic concentration onto a few brand-new keys.

    After ``shift_at`` (default ``0.5 * duration``), each request is
    redirected with probability ``fraction`` onto one of ``hot_keys`` event
    keys.  Redirection is decided by a stable hash of the original key, so
    the same trace shifts the same way in every run.  The event keys are new
    to every shard: the crowd lands cold, concentrates load on the owning
    shards, and — because redirected writes come with the crowd — gives the
    per-shard hot-key detectors something real to catch.

    Args:
        shift_at: Absolute shift time (default half the run).
        fraction: Share of post-shift traffic redirected, in (0, 1].
        hot_keys: Number of event keys the crowd concentrates on.
    """

    name = "flash-crowd"

    def __init__(
        self,
        shift_at: Optional[float] = None,
        fraction: float = 0.3,
        hot_keys: int = 4,
    ) -> None:
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise ClusterError(f"fraction must be in (0, 1], got {fraction}")
        if hot_keys < 1:
            raise ClusterError(f"hot_keys must be >= 1, got {hot_keys}")
        self._shift_at_arg = shift_at
        self.shift_at: float = 0.0
        self.fraction = float(fraction)
        self.hot_keys = int(hot_keys)
        self._threshold = int(self.fraction * 2**32)

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.shift_at = 0.5 * duration if self._shift_at_arg is None else self._shift_at_arg

    def events(self) -> List[ScenarioEvent]:
        def note(cluster: "ClusterSimulation", time: float) -> None:
            # The transform does the work; the event only marks the shift in
            # the event log for debuggability.
            pass

        return [ScenarioEvent(time=self.shift_at, label="shift", apply=note)]

    def transform_request(self, time: float, key: str, key_size: int, value_size: int) -> str:
        if time < self.shift_at:
            return key
        fingerprint = stable_fingerprint(key + "#crowd")
        if (fingerprint & 0xFFFFFFFF) >= self._threshold:
            return key
        return f"flash-{fingerprint % self.hot_keys}"

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "shift_at": self.shift_at,
            "fraction": self.fraction,
            "hot_keys": self.hot_keys,
        }


class PartitionScenario(Scenario):
    """Lossy freshness channel to a subset of nodes for a time window.

    Between ``start_at`` and ``end_at`` the channel from the backend to each
    affected node drops messages with probability ``loss`` (1.0 = total
    outage).  Unlike ``node-failure``, fetches keep working: the nodes serve
    and fill normally while silently missing invalidates and updates — the
    paper's §5 guaranteed-delivery problem, scoped to part of the fleet.

    Args:
        node_indices: Indices of the affected nodes (default: node 0).
        start_at: Window start (default ``0.3 * duration``).
        end_at: Window end (default ``0.7 * duration``).
        loss: Message loss probability inside the window.
    """

    name = "partition"

    def __init__(
        self,
        node_indices: Sequence[int] = (0,),
        start_at: Optional[float] = None,
        end_at: Optional[float] = None,
        loss: float = 1.0,
    ) -> None:
        super().__init__()
        if not node_indices:
            raise ClusterError("partition needs at least one node index")
        if not 0.0 < loss <= 1.0:
            raise ClusterError(f"loss must be in (0, 1], got {loss}")
        self.node_indices = tuple(int(index) for index in node_indices)
        self._start_at_arg = start_at
        self._end_at_arg = end_at
        self.start_at: float = 0.0
        self.end_at: float = 0.0
        self.loss = float(loss)
        self._saved_loss: Dict[int, float] = {}

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        for index in self.node_indices:
            if not 0 <= index < num_nodes:
                raise ClusterError(f"node index {index} out of range for {num_nodes} nodes")
        self.start_at = 0.3 * duration if self._start_at_arg is None else self._start_at_arg
        self.end_at = 0.7 * duration if self._end_at_arg is None else self._end_at_arg
        if not self.start_at < self.end_at:
            raise ClusterError("partition end_at must be after start_at")
        self._saved_loss.clear()

    def events(self) -> List[ScenarioEvent]:
        indices = self.node_indices

        def start(cluster: "ClusterSimulation", time: float) -> None:
            for index in indices:
                channel = cluster.node_at(index).channel
                if self.loss >= 1.0:
                    channel.outage = True
                else:
                    self._saved_loss[index] = channel.loss_probability
                    channel.loss_probability = self.loss

        def end(cluster: "ClusterSimulation", time: float) -> None:
            for index in indices:
                channel = cluster.node_at(index).channel
                if self.loss >= 1.0:
                    channel.outage = False
                else:
                    channel.loss_probability = self._saved_loss.pop(index, 0.0)

        return [
            ScenarioEvent(time=self.start_at, label="partition-start", apply=start),
            ScenarioEvent(time=self.end_at, label="partition-end", apply=end),
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "node_indices": list(self.node_indices),
            "start_at": self.start_at,
            "end_at": self.end_at,
            "loss": self.loss,
        }


class CrashRestartScenario(Scenario):
    """Mid-run fleet crash with immediate restart (``kill-at-t``).

    At ``kill_at`` (default half the run) every node loses its volatile
    state — cache contents, write buffers, trackers, in-flight freshness
    messages — and restarts at once.  The shared datastore is authoritative
    and survives.  With ``mode="warm"`` each node restores its cache from its
    last durable snapshot, with keys written since the snapshot invalidated
    by WAL replay; with ``mode="cold"`` the fleet restarts empty.  Comparing
    the two quantifies the miss/stale spike durability avoids.

    Args:
        kill_at: Absolute crash time (default ``0.5 * duration``).
        mode: ``"warm"`` (requires a configured store) or ``"cold"``.
    """

    name = "kill-at-t"

    def __init__(self, kill_at: Optional[float] = None, mode: str = "warm") -> None:
        super().__init__()
        if mode not in ("warm", "cold"):
            raise ClusterError(f"mode must be 'warm' or 'cold', got {mode!r}")
        self._kill_at_arg = kill_at
        self.kill_at: float = 0.0
        self.mode = mode

    @property
    def requires_persistence(self) -> bool:
        return self.mode == "warm"

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.kill_at = 0.5 * duration if self._kill_at_arg is None else self._kill_at_arg
        if not 0.0 < self.kill_at < duration:
            raise ClusterError(
                f"kill_at must fall inside the run (0, {duration}), got {self.kill_at}"
            )

    def events(self) -> List[ScenarioEvent]:
        warm = self.mode == "warm"

        def crash(cluster: "ClusterSimulation", time: float) -> None:
            cluster.crash_restart(time, warm=warm)

        return [
            ScenarioEvent(time=self.kill_at, label=f"crash-restart-{self.mode}", apply=crash)
        ]

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "kill_at": self.kill_at, "mode": self.mode}


class L2OutageScenario(Scenario):
    """Partition the shared tier away from a subset of nodes for a window.

    Between ``start_at`` and ``end_at`` the affected nodes cannot reach the
    shared L2/backend: reads are answered *degraded* straight from the
    per-node L1 — stale entries included, counted honestly as staleness
    violations — L1 misses fail outright (``failed_fetches``), and freshness
    messages are lost at the channel.  This is the survivability question
    tiering exists to answer: how much of the traffic does the fast tier
    carry when the fleet behind it goes dark?

    Requires the cluster to run with an L1
    (:class:`~repro.tier.TierConfig` with ``l1_capacity > 0``).

    Args:
        node_indices: Indices of the partitioned nodes (``None`` = the whole
            fleet, the default — a shared-tier outage hits everyone).
        start_at: Window start (default ``0.4 * duration``).
        end_at: Window end (default ``0.7 * duration``).
    """

    name = "l2-outage"

    def __init__(
        self,
        node_indices: Optional[Sequence[int]] = None,
        start_at: Optional[float] = None,
        end_at: Optional[float] = None,
    ) -> None:
        super().__init__()
        if node_indices is not None and not node_indices:
            raise ClusterError("l2-outage needs at least one node index (or None for all)")
        self.node_indices = (
            tuple(int(index) for index in node_indices) if node_indices is not None else None
        )
        self._start_at_arg = start_at
        self._end_at_arg = end_at
        self.start_at: float = 0.0
        self.end_at: float = 0.0

    @property
    def requires_tier(self) -> bool:
        return True

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        for index in self.node_indices or ():
            if not 0 <= index < num_nodes:
                raise ClusterError(f"node index {index} out of range for {num_nodes} nodes")
        self.start_at = 0.4 * duration if self._start_at_arg is None else self._start_at_arg
        self.end_at = 0.7 * duration if self._end_at_arg is None else self._end_at_arg
        if not self.start_at < self.end_at:
            raise ClusterError("l2-outage end_at must be after start_at")
        if not 0.0 <= self.start_at or not self.end_at <= duration:
            # The end event must fire inside the run: the outage's no-charge
            # poll accounting depends on it.
            raise ClusterError(
                f"l2-outage window must fall inside the run [0, {duration}], "
                f"got [{self.start_at}, {self.end_at}]"
            )

    def _indices(self, cluster: "ClusterSimulation") -> Sequence[int]:
        if self.node_indices is not None:
            return self.node_indices
        return range(self.num_nodes)

    def events(self) -> List[ScenarioEvent]:
        def start(cluster: "ClusterSimulation", time: float) -> None:
            for index in self._indices(cluster):
                cluster.node_at(index).set_l2_outage(True, time)

        def end(cluster: "ClusterSimulation", time: float) -> None:
            for index in self._indices(cluster):
                cluster.node_at(index).set_l2_outage(False, time)

        return [
            ScenarioEvent(time=self.start_at, label="l2-outage-start", apply=start),
            ScenarioEvent(time=self.end_at, label="l2-outage-end", apply=end),
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "node_indices": list(self.node_indices) if self.node_indices is not None else None,
            "start_at": self.start_at,
            "end_at": self.end_at,
        }


class ColdL1Scenario(Scenario):
    """Fleet restart with a warm L2 but empty L1s (the deploy transient).

    At ``restart_at`` every node drops its L1 — a rolling binary deploy
    kills the process-local tier while the shared tier keeps its state.
    The L1 hit rate collapses and re-warms through admission; comparing the
    transient across admission policies and L1 sizes is the point.

    Requires the cluster to run with an L1
    (:class:`~repro.tier.TierConfig` with ``l1_capacity > 0``).

    Args:
        restart_at: Absolute restart time (default ``0.5 * duration``).
    """

    name = "cold-l1"

    def __init__(self, restart_at: Optional[float] = None) -> None:
        super().__init__()
        self._restart_at_arg = restart_at
        self.restart_at: float = 0.0

    @property
    def requires_tier(self) -> bool:
        return True

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.restart_at = (
            0.5 * duration if self._restart_at_arg is None else self._restart_at_arg
        )
        if not 0.0 < self.restart_at < duration:
            raise ClusterError(
                f"restart_at must fall inside the run (0, {duration}), got {self.restart_at}"
            )

    def events(self) -> List[ScenarioEvent]:
        def restart(cluster: "ClusterSimulation", time: float) -> None:
            for node in cluster.nodes():
                node.clear_l1(time)

        return [ScenarioEvent(time=self.restart_at, label="cold-l1-restart", apply=restart)]

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "restart_at": self.restart_at}


class StampedeScenario(Scenario):
    """Mass simultaneous expiry: a hot slice of the cache dies at once.

    At ``expire_at`` (default ``0.5 * duration``) every node walks its
    resident entries and expires the valid ones whose key falls in a stable
    ``fraction``-sized hash slice — the same keys on every node, the same
    keys in every run.  This is the classic stampede setup (a deploy
    flushing TTLs, a bulk invalidation): the next wave of reads for those
    keys all miss together, and without a mitigation policy each miss
    dogpiles the backend with its own fetch.

    The scenario itself is engine-agnostic (mass expiry also spikes the
    instant-fetch engines' refetch costs), but its point is the concurrent
    fetch model: pair it with ``concurrency=ConcurrencyConfig(...)`` and
    compare stampede policies by ``backend_fetches`` and tail latency.

    Args:
        expire_at: Absolute expiry time (default half the run).
        fraction: Share of resident keys expired, in (0, 1].
    """

    name = "stampede"

    def __init__(self, expire_at: Optional[float] = None, fraction: float = 0.8) -> None:
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise ClusterError(f"fraction must be in (0, 1], got {fraction}")
        self._expire_at_arg = expire_at
        self.expire_at: float = 0.0
        self.fraction = float(fraction)
        self._threshold = int(self.fraction * 2**32)

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.expire_at = (
            0.5 * duration if self._expire_at_arg is None else self._expire_at_arg
        )
        if not 0.0 < self.expire_at < duration:
            raise ClusterError(
                f"expire_at must fall inside the run (0, {duration}), got {self.expire_at}"
            )

    def _selects(self, key: str) -> bool:
        return (stable_fingerprint(key + "#stampede") & 0xFFFFFFFF) < self._threshold

    def events(self) -> List[ScenarioEvent]:
        def expire(cluster: "ClusterSimulation", time: float) -> None:
            selects = self._selects
            for node in cluster.nodes():
                for cache in (
                    (node.cache,) if node.l1 is None else (node.cache, node.l1.cache)
                ):
                    for entry in list(cache.entries()):
                        if entry.state is EntryState.VALID and selects(entry.key):
                            cache.expire(entry.key)

        return [ScenarioEvent(time=self.expire_at, label="stampede-expire", apply=expire)]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "expire_at": self.expire_at,
            "fraction": self.fraction,
        }


class BackendSaturationScenario(Scenario):
    """Squeeze the shared backend's fetch capacity for a window.

    Between ``squeeze_at`` (default ``0.4 * duration``) and ``recover_at``
    (default ``0.8 * duration``) the fleet-shared backend serves fetches
    with only ``capacity`` slots; slots above the squeeze retire as they
    drain, and the configured capacity returns at recovery.  Misses queue
    behind each other, read-latency tails grow, and the stampede policies
    that avoid fetches (coalescing, stale serving, early refresh) separate
    from the ones that do not.

    Requires the cluster to run with ``concurrency=ConcurrencyConfig(...)``
    — without the in-flight fetch model there is no backend queue to squeeze.

    Args:
        capacity: Fetch slots during the squeeze (default 1).
        squeeze_at: Window start (default ``0.4 * duration``).
        recover_at: Window end (default ``0.8 * duration``).
    """

    name = "backend-saturation"

    def __init__(
        self,
        capacity: int = 1,
        squeeze_at: Optional[float] = None,
        recover_at: Optional[float] = None,
    ) -> None:
        super().__init__()
        if capacity < 1:
            raise ClusterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._squeeze_at_arg = squeeze_at
        self._recover_at_arg = recover_at
        self.squeeze_at: float = 0.0
        self.recover_at: float = 0.0
        self._saved_capacity: int = 0

    @property
    def requires_concurrency(self) -> bool:
        return True

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.squeeze_at = (
            0.4 * duration if self._squeeze_at_arg is None else self._squeeze_at_arg
        )
        self.recover_at = (
            0.8 * duration if self._recover_at_arg is None else self._recover_at_arg
        )
        if not self.squeeze_at < self.recover_at:
            raise ClusterError("recover_at must be after squeeze_at")
        if not 0.0 <= self.squeeze_at or not self.recover_at <= duration:
            raise ClusterError(
                f"saturation window must fall inside the run [0, {duration}], "
                f"got [{self.squeeze_at}, {self.recover_at}]"
            )

    def events(self) -> List[ScenarioEvent]:
        def squeeze(cluster: "ClusterSimulation", time: float) -> None:
            self._saved_capacity = cluster.backend.capacity
            cluster.backend.set_capacity(self.capacity)

        def recover(cluster: "ClusterSimulation", time: float) -> None:
            cluster.backend.set_capacity(self._saved_capacity)

        return [
            ScenarioEvent(time=self.squeeze_at, label="saturation-start", apply=squeeze),
            ScenarioEvent(time=self.recover_at, label="saturation-end", apply=recover),
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "squeeze_at": self.squeeze_at,
            "recover_at": self.recover_at,
        }


SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    "node-failure": NodeFailureScenario,
    "flash-crowd": FlashCrowdScenario,
    "partition": PartitionScenario,
    "kill-at-t": CrashRestartScenario,
    "l2-outage": L2OutageScenario,
    "cold-l1": ColdL1Scenario,
    "stampede": StampedeScenario,
    "backend-saturation": BackendSaturationScenario,
}

# The resilience package (autoscaler, gray failures, zone outages, flapping)
# registers its scenarios into the same factory table so `make_scenario` and
# the CLI see one namespace.  Imported at the bottom because the resilience
# module subclasses `Scenario`.  When *this* module is reached through an
# import of `repro.resilience.scenarios` itself, the re-entrant import below
# raises ImportError against the half-initialized module — that is fine: the
# resilience module self-registers at its own bottom, so the table is always
# complete once either import finishes.
try:
    from repro.resilience.scenarios import RESILIENCE_SCENARIOS  # noqa: E402
except ImportError:  # pragma: no cover - re-entrant import order
    pass
else:
    SCENARIO_FACTORIES.update(RESILIENCE_SCENARIOS)


def make_scenario(
    name: str, params: Optional[Dict[str, Any] | Sequence[Tuple[str, Any]]] = None
) -> Scenario:
    """Build a scenario by registry name with keyword parameters.

    Raises:
        ClusterError: If the name is not registered.
    """
    if name in ("none", ""):
        return Scenario()
    try:
        factory = SCENARIO_FACTORIES[name]
    except KeyError as exc:
        raise ClusterError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIO_FACTORIES)}"
        ) from exc
    kwargs = dict(params or {})
    # Scenario parameters arriving from JSON/CLI use lists for sequences.
    if "node_indices" in kwargs and isinstance(kwargs["node_indices"], list):
        kwargs["node_indices"] = tuple(kwargs["node_indices"])
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ClusterError(f"invalid parameters for scenario {name!r}: {exc}") from exc
