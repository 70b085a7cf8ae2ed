"""The richer failure taxonomy: gray failures, zone outages, flapping.

These scenarios extend the clean fail-silent taxonomy of
:mod:`repro.cluster.scenarios` with the degraded regimes that dominate real
availability:

* ``gray-failure`` — nodes that are slow but alive: their backend fetches
  run ``slowdown`` times longer (via the in-flight fetch model) and their
  freshness channel turns partially lossy, so they keep answering reads —
  increasingly stale, past the bound — while every health signal that only
  checks liveness stays green.
* ``zone-outage`` — every node labeled with one failure-domain ``zone``
  fails together, is detected together, and rejoins together: correlated
  loss, the case replication factors are chosen against.
* ``flapping`` — one node repeatedly fails and recovers faster than
  detection converges (``mode="silent"``), or repeatedly leaves and rejoins
  the ring (``mode="ring"``), coming back each time behind a degraded link.

All three are pure timed-event scripts over seeded state, so they replay
byte-identically on every engine (the vector planner falls back to the
scalar loop for any scenario subclass) and at any sweep worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.cluster.scenarios import Scenario, ScenarioEvent
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ClusterSimulation


class GrayFailureScenario(Scenario):
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
        node_indices: Indices of the gray nodes (default: node 0).
        degrade_at: Window start (default ``0.3 * duration``).
        recover_at: Window end (default ``0.85 * duration``).
        slowdown: Service-time multiplier inside the window (>= 1).
        loss: Freshness-message loss rate inside the window.
        delay: Extra freshness-message delay inside the window, seconds.
    """

    name = "gray-failure"

    def __init__(
        self,
        node_indices: Sequence[int] = (0,),
        degrade_at: Optional[float] = None,
        recover_at: Optional[float] = None,
        slowdown: float = 8.0,
        loss: float = 0.5,
        delay: float = 0.0,
    ) -> None:
        super().__init__()
        if not node_indices:
            raise ClusterError("gray-failure needs at least one node index")
        if slowdown < 1.0:
            raise ClusterError(f"slowdown must be >= 1, got {slowdown}")
        if not 0.0 <= loss <= 1.0:
            raise ClusterError(f"loss must be in [0, 1], got {loss}")
        if delay < 0:
            raise ClusterError(f"delay must be >= 0, got {delay}")
        self.node_indices = tuple(int(index) for index in node_indices)
        self._degrade_at_arg = degrade_at
        self._recover_at_arg = recover_at
        self.degrade_at: float = 0.0
        self.recover_at: float = 0.0
        self.slowdown = float(slowdown)
        self.loss = float(loss)
        self.delay = float(delay)

    @property
    def requires_concurrency(self) -> bool:
        # Slowness is service time, and service time only exists under the
        # in-flight fetch model.
        return True

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        for index in self.node_indices:
            if not 0 <= index < num_nodes:
                raise ClusterError(
                    f"node index {index} out of range for {num_nodes} nodes"
                )
        self.degrade_at = (
            0.3 * duration if self._degrade_at_arg is None else self._degrade_at_arg
        )
        self.recover_at = (
            0.85 * duration if self._recover_at_arg is None else self._recover_at_arg
        )
        if not self.degrade_at < self.recover_at:
            raise ClusterError("gray-failure recover_at must be after degrade_at")

    def events(self) -> List[ScenarioEvent]:
        indices = self.node_indices

        def degrade(cluster: "ClusterSimulation", time: float) -> None:
            for index in indices:
                node = cluster.node_at(index)
                node.fetches.slowdown = self.slowdown
                node.channel.set_degraded(loss=self.loss, delay=self.delay)

        def recover(cluster: "ClusterSimulation", time: float) -> None:
            for index in indices:
                node = cluster.node_at(index)
                node.fetches.slowdown = 1.0
                node.channel.clear_degraded()

        return [
            ScenarioEvent(time=self.degrade_at, label="gray-start", apply=degrade),
            ScenarioEvent(time=self.recover_at, label="gray-end", apply=recover),
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "node_indices": list(self.node_indices),
            "degrade_at": self.degrade_at,
            "recover_at": self.recover_at,
            "slowdown": self.slowdown,
            "loss": self.loss,
            "delay": self.delay,
        }


class ZoneOutageScenario(Scenario):
    """Correlated failure of every node in one failure domain.

    The fleet must be constructed with ``zones >= 2`` (nodes are labeled
    ``zone-{index % zones}`` on the ring).  At ``fail_at`` every member of
    ``zone`` fails silently; at ``detect_at`` they all leave the ring (one
    correlated rebalance); at ``recover_at`` they rejoin — cold, or warm
    from their snapshots with ``rejoin="warm"``.

    Args:
        zone: Zone label (``"zone-1"``) or index (``1``) to fail.
        fail_at: Default ``0.4 * duration``.
        detect_at: Default ``fail_at + max(4 * T, 0.05 * duration)``.
        recover_at: Default ``max(0.75 * duration, detect_at + T)``;
            ``None`` keeps the zone out for good.
        rejoin: ``"cold"`` or ``"warm"`` (warm requires a configured store).
    """

    name = "zone-outage"

    _AUTO = "auto"

    def __init__(
        self,
        zone: Any = 0,
        fail_at: Optional[float] = None,
        detect_at: Optional[float] = None,
        recover_at: Optional[float] | str = _AUTO,
        rejoin: str = "cold",
    ) -> None:
        super().__init__()
        if rejoin not in ("cold", "warm"):
            raise ClusterError(f"rejoin must be 'cold' or 'warm', got {rejoin!r}")
        self.zone = f"zone-{zone}" if isinstance(zone, int) else str(zone)
        self.rejoin = rejoin
        self._fail_at_arg = fail_at
        self._detect_at_arg = detect_at
        self._recover_at_arg = recover_at
        self.fail_at: float = 0.0
        self.detect_at: float = 0.0
        self.recover_at: Optional[float] = None
        self._members: List[int] = []

    @property
    def requires_persistence(self) -> bool:
        return self.rejoin == "warm"

    @property
    def min_zones(self) -> int:
        return 2

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        self.fail_at = 0.4 * duration if self._fail_at_arg is None else self._fail_at_arg
        if self._detect_at_arg is None:
            self.detect_at = self.fail_at + max(
                4 * staleness_bound, 0.05 * duration
            )
        else:
            self.detect_at = self._detect_at_arg
        if self._recover_at_arg is self._AUTO:
            self.recover_at = max(0.75 * duration, self.detect_at + staleness_bound)
        else:
            self.recover_at = self._recover_at_arg
        if not self.fail_at < self.detect_at:
            raise ClusterError("zone-outage detect_at must be after fail_at")
        if self.recover_at is not None and not self.detect_at < self.recover_at:
            raise ClusterError("zone-outage recover_at must be after detect_at")
        self._members = []

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
        self._members = members

    def events(self) -> List[ScenarioEvent]:
        def fail(cluster: "ClusterSimulation", time: float) -> None:
            for index in self._members:
                cluster.fail_node(index)

        def detect(cluster: "ClusterSimulation", time: float) -> None:
            for index in self._members:
                cluster.remove_node(index, time)

        def recover(cluster: "ClusterSimulation", time: float) -> None:
            for index in self._members:
                cluster.rejoin_node(index, warm=self.rejoin == "warm", time=time)

        events = [
            ScenarioEvent(time=self.fail_at, label=f"zone-fail:{self.zone}", apply=fail),
            ScenarioEvent(
                time=self.detect_at, label=f"zone-detect:{self.zone}", apply=detect
            ),
        ]
        if self.recover_at is not None:
            events.append(
                ScenarioEvent(
                    time=self.recover_at,
                    label=f"zone-recover:{self.zone}",
                    apply=recover,
                )
            )
        return events

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "zone": self.zone,
            "fail_at": self.fail_at,
            "detect_at": self.detect_at,
            "recover_at": self.recover_at,
            "rejoin": self.rejoin,
        }


class FlappingScenario(Scenario):
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
        super().__init__()
        if node_index < 0:
            raise ClusterError(f"node_index must be >= 0, got {node_index}")
        if flaps < 1:
            raise ClusterError(f"flaps must be >= 1, got {flaps}")
        if mode not in ("silent", "ring"):
            raise ClusterError(f"mode must be 'silent' or 'ring', got {mode!r}")
        if not 0.0 <= degraded_loss <= 1.0:
            raise ClusterError(
                f"degraded_loss must be in [0, 1], got {degraded_loss}"
            )
        if degraded_delay < 0:
            raise ClusterError(
                f"degraded_delay must be >= 0, got {degraded_delay}"
            )
        self.node_index = int(node_index)
        self.flaps = int(flaps)
        self.mode = mode
        self.degraded_loss = float(degraded_loss)
        self.degraded_delay = float(degraded_delay)
        self._start_at_arg = start_at
        self._end_at_arg = end_at
        self.start_at: float = 0.0
        self.end_at: float = 0.0

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        if not 0 <= self.node_index < num_nodes:
            raise ClusterError(
                f"node index {self.node_index} out of range for {num_nodes} nodes"
            )
        if self.mode == "ring" and num_nodes < 2:
            raise ClusterError(
                "flapping mode='ring' needs at least 2 nodes: the flapper "
                "cannot be the only node on the ring"
            )
        self.start_at = (
            0.3 * duration if self._start_at_arg is None else self._start_at_arg
        )
        self.end_at = 0.9 * duration if self._end_at_arg is None else self._end_at_arg
        if not self.start_at < self.end_at:
            raise ClusterError("flapping end_at must be after start_at")

    def events(self) -> List[ScenarioEvent]:
        index = self.node_index
        ring_mode = self.mode == "ring"
        cycle = (self.end_at - self.start_at) / self.flaps

        def down(cluster: "ClusterSimulation", time: float) -> None:
            node = cluster.node_at(index)
            node.channel.clear_degraded()
            if ring_mode:
                cluster.remove_node(index, time)
            else:
                cluster.fail_node(index)

        def back(cluster: "ClusterSimulation", time: float) -> None:
            node = cluster.node_at(index)
            if ring_mode:
                cluster.rejoin_node(index, warm=False, time=time)
            else:
                node.reachable = True
                node.channel.outage = False
            node.channel.set_degraded(
                loss=self.degraded_loss, delay=self.degraded_delay
            )

        def settle(cluster: "ClusterSimulation", time: float) -> None:
            cluster.node_at(index).channel.clear_degraded()

        events: List[ScenarioEvent] = []
        for flap in range(self.flaps):
            down_at = self.start_at + flap * cycle
            back_at = down_at + cycle / 2
            events.append(
                ScenarioEvent(time=down_at, label=f"flap-down:{flap}", apply=down)
            )
            events.append(
                ScenarioEvent(time=back_at, label=f"flap-back:{flap}", apply=back)
            )
        events.append(
            ScenarioEvent(time=self.end_at, label="flap-settle", apply=settle)
        )
        return events

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "node_index": self.node_index,
            "flaps": self.flaps,
            "start_at": self.start_at,
            "end_at": self.end_at,
            "mode": self.mode,
            "degraded_loss": self.degraded_loss,
            "degraded_delay": self.degraded_delay,
        }


def _make_autoscale(**kwargs: Any) -> Scenario:
    """Lazy factory for the autoscaler.

    The autoscale module also subclasses :class:`Scenario`, so importing it
    at this module's top would close an import cycle through
    ``repro.cluster.scenarios`` whichever module is imported first; deferring
    to call time breaks the cycle without ordering constraints.
    """
    from repro.resilience.autoscale import AutoscaleScenario

    return AutoscaleScenario(**kwargs)


RESILIENCE_SCENARIOS = {
    "gray-failure": GrayFailureScenario,
    "zone-outage": ZoneOutageScenario,
    "flapping": FlappingScenario,
    "autoscale": _make_autoscale,
}

# Self-registration: when this module is imported first (before
# repro.cluster.scenarios finishes), the factory table update at the bottom
# of that module cannot see RESILIENCE_SCENARIOS yet — so register here,
# against the by-now fully initialized table.  Both sides updating is
# idempotent.
from repro.cluster.scenarios import SCENARIO_FACTORIES  # noqa: E402

SCENARIO_FACTORIES.update(RESILIENCE_SCENARIOS)
