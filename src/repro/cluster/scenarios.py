"""Cluster failure and load scenarios: the one catalog.

A scenario is a deterministic script of timed control-plane events (node
failures, ring rebalances, partitions) plus an optional request transform
(key-skew shifts).  The cluster applies events as simulated time passes, so a
scenario cell replays identically for a fixed seed regardless of the worker
schedule.

Every scripted scenario has one of three timeline shapes.  The shape resolves
the default times (fractions of the run), the order checks and the node-index
checks; a scenario keeps only its parameters, its event labels and what its
events do:

* :class:`InstantScenario`, one event: ``kill-at-t``, ``cold-l1``,
  ``stampede``, ``flash-crowd``;
* :class:`WindowScenario`, a start and an end: ``partition``,
  ``l2-outage``, ``backend-saturation``, ``gray-failure``, and the bounds of
  ``flapping``;
* :class:`OutageScenario`, fail → detect → recover: ``node-failure``, and
  ``zone-outage`` as the same timeline over one zone's members.

``autoscale`` (:mod:`repro.resilience.autoscale`) is a control loop rather
than a timeline; its factory imports it on first use.  ``docs/scenarios.md``
tabulates each scenario's shape and default times.
"""

from __future__ import annotations

import math
import numbers
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


def _time(name: str, value: Any, default: Any) -> Any:
    """A scenario time parameter: ``value``, or ``default`` when it is ``None``."""
    if value is None:
        return default
    if not isinstance(value, numbers.Real) or math.isnan(value):
        raise ClusterError(f"{name} must be a real number, got {value!r}")
    return value


def _after(later: str, later_at: float, earlier: str, earlier_at: float) -> None:
    if not earlier_at < later_at:
        raise ClusterError(f"{later} must be after {earlier}")


def _check_nodes(what: str, indices: Sequence[int], num_nodes: int) -> None:
    """Refuse a node index outside the fleet, or one named twice (its
    second start would save the first start's state as the original)."""
    for position, index in enumerate(indices):
        if not 0 <= index < num_nodes:
            raise ClusterError(f"{what} {index} out of range for {num_nodes} nodes")
        if index in indices[:position]:
            raise ClusterError(f"{what} {index} is named twice")


class InstantScenario(Scenario):
    """One event at one instant of the run.

    A subclass names the instant's parameter (:attr:`at_param`) and its
    default fraction of the run (:attr:`at_fraction`), and gives the
    event's :attr:`label` and what it does (:meth:`fire`).  The resolved
    instant is :attr:`at`, strictly inside the run: an instant at or past
    either end would label a row with an event that never acted.
    """

    at_param: str
    at_fraction = 0.5
    label: str

    def __init__(self, at: Optional[float]) -> None:
        super().__init__()
        self._at_arg = at
        self.at: float = 0.0

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.at = _time(self.at_param, self._at_arg, self.at_fraction * duration)
        if not 0.0 < self.at < duration:
            raise ClusterError(
                f"{self.at_param} must fall inside the run (0, {duration}), got {self.at}"
            )

    def events(self) -> List[ScenarioEvent]:
        return [ScenarioEvent(time=self.at, label=self.label, apply=self.fire)]

    def fire(self, cluster: "ClusterSimulation", time: float) -> None:
        """Apply the event."""


class WindowScenario(Scenario):
    """Something starts on a set of nodes and later ends.

    A subclass names the window's two parameters (:attr:`bounds`) and their
    default fractions of the run (:attr:`fractions`), and gives the two
    event :attr:`labels` and what they do (:meth:`begin`, :meth:`finish`).
    The resolved window is :attr:`start` to :attr:`end`, inside the run
    (a window that never ends, or starts before the run, is refused); the
    nodes it acts on are :attr:`nodes` (``node_indices=None`` is the whole
    fleet).
    """

    bounds = ("start_at", "end_at")
    fractions = (0.3, 0.7)
    labels: Tuple[str, str]

    def __init__(
        self,
        start_at: Optional[float],
        end_at: Optional[float],
        node_indices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        if node_indices is not None and not node_indices:
            raise ClusterError(f"{self.name} needs at least one node index")
        self.node_indices = (
            tuple(int(index) for index in node_indices) if node_indices is not None else None
        )
        self._window_args = (start_at, end_at)
        self.start: float = 0.0
        self.end: float = 0.0
        self.nodes: Sequence[int] = ()

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        _check_nodes("node index", self.node_indices or (), num_nodes)
        self.nodes = self.node_indices if self.node_indices is not None else range(num_nodes)
        (start_param, end_param), (start_at, end_at) = self.bounds, self._window_args
        self.start = _time(start_param, start_at, self.fractions[0] * duration)
        self.end = _time(end_param, end_at, self.fractions[1] * duration)
        _after(end_param, self.end, start_param, self.start)
        if not 0.0 <= self.start or not self.end <= duration:
            raise ClusterError(
                f"{self.name} window must fall inside the run [0, {duration}], "
                f"got [{self.start}, {self.end}]"
            )

    def events(self) -> List[ScenarioEvent]:
        start, end = self.labels
        return [
            ScenarioEvent(time=self.start, label=start, apply=self.begin),
            ScenarioEvent(time=self.end, label=end, apply=self.finish),
        ]

    def begin(self, cluster: "ClusterSimulation", time: float) -> None:
        """Apply the window's start."""

    def finish(self, cluster: "ClusterSimulation", time: float) -> None:
        """Apply the window's end."""


class OutageScenario(Scenario):
    """Fail → detect → recover over a set of member nodes.

    * ``fail_at`` (default ``0.4 * duration``) — the members lose their
      backend connection: in-flight freshness messages are dropped, new ones
      bounce, misses cannot re-fetch, but reads routed to them are still
      served from their caches.
    * ``detect_at`` (default ``fail_at + max(4 * T, 0.05 * duration)``) — the
      failure detector fires: the members leave the ring (their caches are
      purged) and their keys move to the surviving nodes.
    * ``recover_at`` (default ``"auto"``: ``max(0.75 * duration, detect_at +
      T)``; ``None`` keeps them out for good) — the members rejoin the ring:
      cold, or warm (restoring each cache from its last pre-failure snapshot,
      with keys written during the outage invalidated) when
      ``rejoin="warm"``.

    A subclass says who the :attr:`members` are and gives the three event
    :attr:`labels`.  A time given explicitly must fall inside the run,
    ``[0, D]``, as a window's bounds must; a default detect time or an
    ``"auto"`` recovery may land past the run's end, where it never fires.
    """

    _AUTO = "auto"
    labels: Tuple[str, str, str]

    def __init__(
        self,
        fail_at: Optional[float],
        detect_at: Optional[float],
        recover_at: Optional[float] | str,
        rejoin: str,
    ) -> None:
        super().__init__()
        if rejoin not in ("cold", "warm"):
            raise ClusterError(f"rejoin must be 'cold' or 'warm', got {rejoin!r}")
        self.rejoin = rejoin
        self._timeline_args = (fail_at, detect_at, recover_at)
        self.fail_at: float = 0.0
        self.detect_at: float = 0.0
        self.recover_at: Optional[float] = None
        self.members: Sequence[int] = ()

    @property
    def requires_persistence(self) -> bool:
        return self.rejoin == "warm"

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        fail_at, detect_at, recover_at = self._timeline_args
        for name, value in zip(("fail_at", "detect_at", "recover_at"), self._timeline_args):
            if value is not None and value != self._AUTO:
                value = _time(name, value, None)
                if not 0.0 <= value <= duration:
                    raise ClusterError(
                        f"{name} must fall inside the run [0, {duration}], got {value}"
                    )
        self.fail_at = _time("fail_at", fail_at, 0.4 * duration)
        self.detect_at = _time(
            "detect_at", detect_at, self.fail_at + max(4.0 * staleness_bound, 0.05 * duration)
        )
        self.recover_at = (
            max(0.75 * duration, self.detect_at + staleness_bound)
            if recover_at == self._AUTO
            else _time("recover_at", recover_at, None)
        )
        _after("detect_at", self.detect_at, "fail_at", self.fail_at)
        if self.recover_at is not None:
            _after("recover_at", self.recover_at, "detect_at", self.detect_at)

    def events(self) -> List[ScenarioEvent]:
        fail, detect, recover = self.labels
        events = [
            ScenarioEvent(time=self.fail_at, label=fail, apply=self._fail),
            ScenarioEvent(time=self.detect_at, label=detect, apply=self._detect),
        ]
        if self.recover_at is not None:
            events.append(ScenarioEvent(time=self.recover_at, label=recover, apply=self._recover))
        return events

    def _fail(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.members:
            cluster.fail_node(index)

    def _detect(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.members:
            cluster.remove_node(index, time)

    def _recover(self, cluster: "ClusterSimulation", time: float) -> None:
        warm = self.rejoin == "warm"
        for index in self.members:
            cluster.rejoin_node(index, warm=warm, time=time)


class NodeFailureScenario(OutageScenario):
    """Fail-silent loss of one node with delayed detection, rebalance, and rejoin.

    The :class:`OutageScenario` timeline over one node.

    Args:
        node_index: Index of the node to fail (default 0).
        fail_at / detect_at / recover_at: Absolute times overriding the
            defaults (``recover_at=None`` keeps the node out for good).
        rejoin: ``"cold"`` (empty cache) or ``"warm"`` (restore from the
            node's durable snapshot; requires the cluster to run with a
            :class:`~repro.store.StoreConfig`).
    """

    name = "node-failure"

    def __init__(
        self,
        node_index: int = 0,
        fail_at: Optional[float] = None,
        detect_at: Optional[float] = None,
        recover_at: Optional[float] | str = OutageScenario._AUTO,
        rejoin: str = "cold",
    ) -> None:
        if node_index < 0:
            raise ClusterError(f"node_index must be >= 0, got {node_index}")
        super().__init__(fail_at, detect_at, recover_at, rejoin)
        self.node_index = int(node_index)
        self.members = (self.node_index,)

    @property
    def labels(self) -> Tuple[str, str, str]:
        return ("fail", "detect", "recover-warm" if self.rejoin == "warm" else "recover")

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        _check_nodes("node_index", self.members, num_nodes)
        super().bind(duration, staleness_bound, num_nodes)


class ZoneOutageScenario(OutageScenario):
    """Correlated failure of every node in one failure domain.

    The fleet must be constructed with ``zones >= 2`` (nodes are labeled
    ``zone-{index % zones}`` on the ring).  The :class:`OutageScenario`
    timeline over every member of ``zone``: they fail silently together, are
    detected together (one correlated rebalance), and rejoin together.

    Args:
        zone: Zone label (``"zone-1"``) or index (``1``) to fail.
        fail_at / detect_at / recover_at: As for ``node-failure``.
        rejoin: ``"cold"`` or ``"warm"`` (warm requires a configured store).
    """

    name = "zone-outage"

    def __init__(
        self,
        zone: Any = 0,
        fail_at: Optional[float] = None,
        detect_at: Optional[float] = None,
        recover_at: Optional[float] | str = OutageScenario._AUTO,
        rejoin: str = "cold",
    ) -> None:
        super().__init__(fail_at, detect_at, recover_at, rejoin)
        self.zone = f"zone-{zone}" if isinstance(zone, int) else str(zone)

    @property
    def min_zones(self) -> int:
        return 2

    @property
    def labels(self) -> Tuple[str, str, str]:
        return (f"zone-fail:{self.zone}", f"zone-detect:{self.zone}", f"zone-recover:{self.zone}")

    def check(self, cluster: "ClusterSimulation") -> None:
        ring = cluster.ring
        members = [
            index
            for index, node in enumerate(cluster.nodes())
            if ring.zone_of(node.node_id) == self.zone
        ]
        if not members:
            raise ClusterError(
                f"zone {self.zone!r} has no members; fleet zones are {ring.zones}"
            )
        if len(members) == len(cluster.nodes()):
            raise ClusterError(
                f"zone {self.zone!r} covers the whole fleet; an outage would "
                "empty the ring"
            )
        self.members = members


class FlashCrowdScenario(InstantScenario):
    """Sudden traffic concentration onto a few brand-new keys.

    After ``shift_at`` (default ``0.5 * duration``), each request is
    redirected with probability ``fraction`` onto one of ``hot_keys`` event
    keys.  Redirection is decided by a stable hash of the original key, so
    the same trace shifts the same way in every run.  The event keys are new
    to every shard: the crowd lands cold, concentrates load on the owning
    shards, and — because redirected writes come with the crowd — gives the
    per-shard hot-key detectors something real to catch.  The ``shift`` event
    only marks the shift in the event log; the transform does the work.

    Args:
        shift_at: Absolute shift time (default half the run).
        fraction: Share of post-shift traffic redirected, in (0, 1].
        hot_keys: Number of event keys the crowd concentrates on.
    """

    name = "flash-crowd"
    at_param = "shift_at"
    label = "shift"

    def __init__(
        self,
        shift_at: Optional[float] = None,
        fraction: float = 0.3,
        hot_keys: int = 4,
    ) -> None:
        super().__init__(shift_at)
        if not 0.0 < fraction <= 1.0:
            raise ClusterError(f"fraction must be in (0, 1], got {fraction}")
        if hot_keys < 1:
            raise ClusterError(f"hot_keys must be >= 1, got {hot_keys}")
        self.fraction = float(fraction)
        self.hot_keys = int(hot_keys)
        self._threshold = int(self.fraction * 2**32)

    def transform_request(self, time: float, key: str, key_size: int, value_size: int) -> str:
        if time < self.at:
            return key
        fingerprint = stable_fingerprint(key + "#crowd")
        if (fingerprint & 0xFFFFFFFF) >= self._threshold:
            return key
        return f"flash-{fingerprint % self.hot_keys}"


class CrashRestartScenario(InstantScenario):
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
    at_param = "kill_at"

    def __init__(self, kill_at: Optional[float] = None, mode: str = "warm") -> None:
        super().__init__(kill_at)
        if mode not in ("warm", "cold"):
            raise ClusterError(f"mode must be 'warm' or 'cold', got {mode!r}")
        self.mode = mode

    @property
    def requires_persistence(self) -> bool:
        return self.mode == "warm"

    @property
    def label(self) -> str:
        return f"crash-restart-{self.mode}"

    def fire(self, cluster: "ClusterSimulation", time: float) -> None:
        cluster.crash_restart(time, warm=self.mode == "warm")


class ColdL1Scenario(InstantScenario):
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
    at_param = "restart_at"
    label = "cold-l1-restart"

    def __init__(self, restart_at: Optional[float] = None) -> None:
        super().__init__(restart_at)

    @property
    def requires_tier(self) -> bool:
        return True

    def fire(self, cluster: "ClusterSimulation", time: float) -> None:
        for node in cluster.nodes():
            node.clear_l1(time)


class StampedeScenario(InstantScenario):
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
    at_param = "expire_at"
    label = "stampede-expire"

    def __init__(self, expire_at: Optional[float] = None, fraction: float = 0.8) -> None:
        super().__init__(expire_at)
        if not 0.0 < fraction <= 1.0:
            raise ClusterError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self._threshold = int(self.fraction * 2**32)

    def _selects(self, key: str) -> bool:
        return (stable_fingerprint(key + "#stampede") & 0xFFFFFFFF) < self._threshold

    def fire(self, cluster: "ClusterSimulation", time: float) -> None:
        selects = self._selects
        for node in cluster.nodes():
            for cache in (node.cache,) if node.l1 is None else (node.cache, node.l1.cache):
                for entry in list(cache.entries()):
                    if entry.state is EntryState.VALID and selects(entry.key):
                        cache.expire(entry.key)


class PartitionScenario(WindowScenario):
    """Lossy freshness channel to a subset of nodes for a time window.

    Between ``start_at`` and ``end_at`` the channel from the backend to each
    affected node drops messages with probability ``loss`` (1.0 = total
    outage).  Unlike ``node-failure``, fetches keep working: the nodes serve
    and fill normally while silently missing invalidates and updates — the
    paper's §5 guaranteed-delivery problem, scoped to part of the fleet.

    Args:
        node_indices: Indices of the affected nodes (default: node 0), each
            named once.
        start_at: Window start (default ``0.3 * duration``).
        end_at: Window end (default ``0.7 * duration``).
        loss: Message loss probability inside the window.
    """

    name = "partition"
    labels = ("partition-start", "partition-end")

    def __init__(
        self,
        node_indices: Sequence[int] = (0,),
        start_at: Optional[float] = None,
        end_at: Optional[float] = None,
        loss: float = 1.0,
    ) -> None:
        super().__init__(start_at, end_at, node_indices)
        if not 0.0 < loss <= 1.0:
            raise ClusterError(f"loss must be in (0, 1], got {loss}")
        self.loss = float(loss)
        self._saved_loss: Dict[int, float] = {}

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self._saved_loss.clear()

    def begin(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            channel = cluster.node_at(index).channel
            if self.loss >= 1.0:
                channel.outage = True
            else:
                self._saved_loss[index] = channel.loss_probability
                channel.loss_probability = self.loss

    def finish(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            channel = cluster.node_at(index).channel
            if self.loss >= 1.0:
                channel.outage = False
            else:
                channel.loss_probability = self._saved_loss.pop(index, 0.0)


class L2OutageScenario(WindowScenario):
    """Partition the shared tier away from a subset of nodes for a window.

    Between ``start_at`` and ``end_at`` the affected nodes cannot reach the
    shared L2/backend: reads are answered *degraded* straight from the
    per-node L1 — stale entries included, counted honestly as staleness
    violations — L1 misses fail outright (``failed_fetches``), and freshness
    messages are lost at the channel.  This is the survivability question
    tiering exists to answer: how much of the traffic does the fast tier
    carry when the fleet behind it goes dark?

    Requires the cluster to run with an L1
    (:class:`~repro.tier.TierConfig` with ``l1_capacity > 0``).  Like every
    window it must fall inside the run, and here a row depends on it: the
    outage's no-charge poll accounting needs the end event to fire.

    Args:
        node_indices: Indices of the partitioned nodes (``None`` = the whole
            fleet, the default — a shared-tier outage hits everyone).
        start_at: Window start (default ``0.4 * duration``).
        end_at: Window end (default ``0.7 * duration``).
    """

    name = "l2-outage"
    fractions = (0.4, 0.7)
    labels = ("l2-outage-start", "l2-outage-end")

    def __init__(
        self,
        node_indices: Optional[Sequence[int]] = None,
        start_at: Optional[float] = None,
        end_at: Optional[float] = None,
    ) -> None:
        super().__init__(start_at, end_at, node_indices)

    @property
    def requires_tier(self) -> bool:
        return True

    def begin(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            cluster.node_at(index).set_l2_outage(True, time)

    def finish(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            cluster.node_at(index).set_l2_outage(False, time)


class BackendSaturationScenario(WindowScenario):
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
    bounds = ("squeeze_at", "recover_at")
    fractions = (0.4, 0.8)
    labels = ("saturation-start", "saturation-end")

    def __init__(
        self,
        capacity: int = 1,
        squeeze_at: Optional[float] = None,
        recover_at: Optional[float] = None,
    ) -> None:
        super().__init__(squeeze_at, recover_at)
        if capacity < 1:
            raise ClusterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._saved_capacity: int = 0

    @property
    def requires_concurrency(self) -> bool:
        return True

    def begin(self, cluster: "ClusterSimulation", time: float) -> None:
        self._saved_capacity = cluster.backend.capacity
        cluster.backend.set_capacity(self.capacity)

    def finish(self, cluster: "ClusterSimulation", time: float) -> None:
        cluster.backend.set_capacity(self._saved_capacity)


class GrayFailureScenario(WindowScenario):
    """Slow-but-alive nodes serving stale past the bound.

    Between ``degrade_at`` and ``recover_at`` each affected node's backend
    fetches take ``slowdown`` times their sampled service time and its
    freshness channel drops messages with probability ``loss`` (plus
    ``delay`` seconds of extra latency).  The node never leaves the ring:
    reads keep landing on it, stale-serving policies keep answering from the
    aging cache, and missed invalidates push those serves past the bound —
    the defining signature of a gray failure versus a detected fail-silent
    one.

    Args:
        node_indices: Indices of the gray nodes (default: node 0), each named
            once.
        degrade_at: Window start (default ``0.3 * duration``).
        recover_at: Window end (default ``0.85 * duration``).
        slowdown: Service-time multiplier inside the window (>= 1).
        loss: Freshness-message loss rate inside the window.
        delay: Extra freshness-message delay inside the window, seconds.
    """

    name = "gray-failure"
    bounds = ("degrade_at", "recover_at")
    fractions = (0.3, 0.85)
    labels = ("gray-start", "gray-end")

    def __init__(
        self,
        node_indices: Sequence[int] = (0,),
        degrade_at: Optional[float] = None,
        recover_at: Optional[float] = None,
        slowdown: float = 8.0,
        loss: float = 0.5,
        delay: float = 0.0,
    ) -> None:
        super().__init__(degrade_at, recover_at, node_indices)
        if slowdown < 1.0:
            raise ClusterError(f"slowdown must be >= 1, got {slowdown}")
        if not 0.0 <= loss <= 1.0:
            raise ClusterError(f"loss must be in [0, 1], got {loss}")
        if delay < 0:
            raise ClusterError(f"delay must be >= 0, got {delay}")
        self.slowdown = float(slowdown)
        self.loss = float(loss)
        self.delay = float(delay)

    @property
    def requires_concurrency(self) -> bool:
        # Slowness is service time, and service time only exists under the
        # in-flight fetch model.
        return True

    def begin(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            node = cluster.node_at(index)
            node.fetches.slowdown = self.slowdown
            node.channel.set_degraded(loss=self.loss, delay=self.delay)

    def finish(self, cluster: "ClusterSimulation", time: float) -> None:
        for index in self.nodes:
            node = cluster.node_at(index)
            node.fetches.slowdown = 1.0
            node.channel.clear_degraded()


class FlappingScenario(WindowScenario):
    """A node leaving and rejoining faster than detection converges.

    Between ``start_at`` and ``end_at`` the node cycles ``flaps`` times:
    down for the first half of each cycle, back for the second half — and
    every return is behind a degraded link (``degraded_loss`` /
    ``degraded_delay``) until the flapping ends.

    Two flavors:

    * ``mode="silent"`` (default) — each down-phase is a fail-silent window
      (unreachable, still serving its aging cache, still on the ring): the
      cycles are shorter than any detection timeout, so the ring never
      converges on removing it.
    * ``mode="ring"`` — each cycle is a real departure and cold rejoin: the
      ring rebalances twice per flap, churning exactly the flapper's keys
      each time (the minimal-movement property the tests pin).

    Args:
        node_index: The flapping node (default 0).
        flaps: Number of down/up cycles (>= 1).
        start_at: Default ``0.3 * duration``.
        end_at: Default ``0.9 * duration``.
        mode: ``"silent"`` or ``"ring"``.
        degraded_loss: Freshness-message loss rate while back-but-degraded.
        degraded_delay: Extra freshness-message delay while degraded.
    """

    name = "flapping"
    fractions = (0.3, 0.9)

    def __init__(
        self,
        node_index: int = 0,
        flaps: int = 3,
        start_at: Optional[float] = None,
        end_at: Optional[float] = None,
        mode: str = "silent",
        degraded_loss: float = 0.2,
        degraded_delay: float = 0.0,
    ) -> None:
        if node_index < 0:
            raise ClusterError(f"node_index must be >= 0, got {node_index}")
        super().__init__(start_at, end_at, (node_index,))
        if flaps < 1:
            raise ClusterError(f"flaps must be >= 1, got {flaps}")
        if mode not in ("silent", "ring"):
            raise ClusterError(f"mode must be 'silent' or 'ring', got {mode!r}")
        if not 0.0 <= degraded_loss <= 1.0:
            raise ClusterError(f"degraded_loss must be in [0, 1], got {degraded_loss}")
        if degraded_delay < 0:
            raise ClusterError(f"degraded_delay must be >= 0, got {degraded_delay}")
        self.node_index = int(node_index)
        self.flaps = int(flaps)
        self.mode = mode
        self.degraded_loss = float(degraded_loss)
        self.degraded_delay = float(degraded_delay)

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        if self.mode == "ring" and num_nodes < 2:
            raise ClusterError(
                "flapping mode='ring' needs at least 2 nodes: the flapper "
                "cannot be the only node on the ring"
            )

    def events(self) -> List[ScenarioEvent]:
        cycle = (self.end - self.start) / self.flaps
        events: List[ScenarioEvent] = []
        for flap in range(self.flaps):
            down_at = self.start + flap * cycle
            events.append(ScenarioEvent(time=down_at, label=f"flap-down:{flap}", apply=self._down))
            events.append(
                ScenarioEvent(time=down_at + cycle / 2, label=f"flap-back:{flap}", apply=self._back)
            )
        events.append(ScenarioEvent(time=self.end, label="flap-settle", apply=self._settle))
        return events

    def _down(self, cluster: "ClusterSimulation", time: float) -> None:
        cluster.node_at(self.node_index).channel.clear_degraded()
        if self.mode == "ring":
            cluster.remove_node(self.node_index, time)
        else:
            cluster.fail_node(self.node_index)

    def _back(self, cluster: "ClusterSimulation", time: float) -> None:
        node = cluster.node_at(self.node_index)
        if self.mode == "ring":
            cluster.rejoin_node(self.node_index, warm=False, time=time)
        else:
            node.reachable = True
            node.channel.outage = False
        node.channel.set_degraded(loss=self.degraded_loss, delay=self.degraded_delay)

    def _settle(self, cluster: "ClusterSimulation", time: float) -> None:
        cluster.node_at(self.node_index).channel.clear_degraded()


def _make_autoscale(**kwargs: Any) -> Scenario:
    """The autoscaler, imported on first use: its module subclasses
    :class:`Scenario` and embeds :class:`FlashCrowdScenario`, so it imports
    this one."""
    from repro.resilience.autoscale import AutoscaleScenario

    return AutoscaleScenario(**kwargs)


SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    "node-failure": NodeFailureScenario,
    "flash-crowd": FlashCrowdScenario,
    "partition": PartitionScenario,
    "kill-at-t": CrashRestartScenario,
    "l2-outage": L2OutageScenario,
    "cold-l1": ColdL1Scenario,
    "stampede": StampedeScenario,
    "backend-saturation": BackendSaturationScenario,
    "gray-failure": GrayFailureScenario,
    "zone-outage": ZoneOutageScenario,
    "flapping": FlappingScenario,
    "autoscale": _make_autoscale,
}


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
    try:
        return factory(**dict(params or {}))
    except TypeError as exc:
        raise ClusterError(f"invalid parameters for scenario {name!r}: {exc}") from exc
