"""The autoscaler scenario: elastic fleet sizing against an ideal baseline.

The fleet is constructed at its *maximum* size; the autoscaler parks every
node past ``min_nodes`` in standby (off the ring, never joined) at t=0 and
then runs a deterministic control loop at the flush cadence: when per-node
load crosses ``high_load`` requests/second — or hot-key pressure (the
queryable :meth:`~repro.cluster.hotkey.HotKeyDetector.pressure` signal)
crosses ``pressure_high`` — a standby node joins the ring (cold, or warm
from its snapshot with ``warm=True``); when load falls below ``low_load``
the highest active node drains back out via the ring's minimal-movement
rebalance.  Every transition is a lifecycle event (cluster event log + obs
``autoscale``/``rebalance`` events).

**Ideal-elasticity baseline.**  The yardstick is an imaginary autoscaler
that reacts the instant a watermark is breached and scales for free: its
elasticity lag, scaling cost, and breach-window staleness are all exactly
zero.  The real controller's gap to that baseline is therefore measured
directly by three first-class result fields:

* ``elasticity_lag`` — seconds the fleet spent in breach of its scale-up
  watermark (detection latency + cooldown + capacity ceiling),
* ``elasticity_cost`` — ``action_cost`` charged per node activated or
  drained,
* ``elasticity_staleness`` — staleness violations accrued during breach
  windows (the under-provisioned intervals the ideal fleet never has).

The controller reads fleet-global signals (total load, per-node pressure):
every node's counters, which the one process replaying the fleet holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cluster.scenarios import FlashCrowdScenario, Scenario, ScenarioEvent
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ClusterSimulation


class AutoscaleScenario(Scenario):
    """Grow and shrink the fleet mid-run from load and hot-key pressure.

    Args:
        min_nodes: Nodes active at t=0 and the scale-down floor; everything
            from ``min_nodes`` to the constructed fleet size starts in
            standby and is the scale-up headroom.
        high_load: Scale-up watermark in requests/second per active node
            (``None`` disables the load trigger).
        low_load: Scale-down watermark (``None`` disables scale-down).
        pressure_high: Scale-up watermark on the fleet's max per-shard
            hot-key pressure (``None`` disables; requires the cluster to run
            with hot-key detection).
        cooldown: Control intervals to wait after any scaling action before
            acting again (0 = act every interval).
        warm: Warm new nodes from the store (requires ``store=``); nodes
            without a snapshot yet join cold.
        action_cost: Cost charged per node activated or drained (the
            ``elasticity_cost`` unit).
        flash_at / flash_fraction / flash_keys: Optional embedded flash
            crowd (same semantics as the ``flash-crowd`` scenario), so the
            canonical elastic-vs-static experiment is a single scenario:
            ``flash_fraction > 0`` redirects that slice of post-``flash_at``
            traffic onto ``flash_keys`` hot keys.
    """

    name = "autoscale"

    def __init__(
        self,
        min_nodes: int = 1,
        high_load: Optional[float] = None,
        low_load: Optional[float] = None,
        pressure_high: Optional[float] = None,
        cooldown: int = 0,
        warm: bool = False,
        action_cost: float = 1.0,
        flash_at: Optional[float] = None,
        flash_fraction: float = 0.0,
        flash_keys: int = 4,
    ) -> None:
        super().__init__()
        if min_nodes < 1:
            raise ClusterError(f"min_nodes must be >= 1, got {min_nodes}")
        if high_load is None and pressure_high is None:
            raise ClusterError(
                "autoscale needs a scale-up trigger: set high_load and/or "
                "pressure_high"
            )
        if high_load is not None and high_load <= 0:
            raise ClusterError(f"high_load must be positive, got {high_load}")
        if low_load is not None and low_load <= 0:
            raise ClusterError(f"low_load must be positive, got {low_load}")
        if (
            high_load is not None
            and low_load is not None
            and low_load >= high_load
        ):
            raise ClusterError(
                f"low_load ({low_load}) must be below high_load ({high_load})"
            )
        if pressure_high is not None and not 0.0 < pressure_high <= 1.0:
            raise ClusterError(
                f"pressure_high must be in (0, 1], got {pressure_high}"
            )
        if cooldown < 0:
            raise ClusterError(f"cooldown must be >= 0, got {cooldown}")
        if action_cost < 0:
            raise ClusterError(f"action_cost must be >= 0, got {action_cost}")
        self.min_nodes = int(min_nodes)
        self.high_load = None if high_load is None else float(high_load)
        self.low_load = None if low_load is None else float(low_load)
        self.pressure_high = None if pressure_high is None else float(pressure_high)
        self.cooldown = int(cooldown)
        self.warm = bool(warm)
        self.action_cost = float(action_cost)
        self._flash: Optional[FlashCrowdScenario] = None
        if flash_fraction > 0.0:
            self._flash = FlashCrowdScenario(
                shift_at=flash_at, fraction=flash_fraction, hot_keys=flash_keys
            )
        # Controller state, reset on bind.
        self._active = 0
        self._cooldown_left = 0
        self._last_total = 0
        self._last_violations = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._lag = 0.0
        self._cost = 0.0
        self._staleness = 0

    @property
    def requires_persistence(self) -> bool:
        return self.warm

    def bind(self, duration: float, staleness_bound: float, num_nodes: int) -> None:
        super().bind(duration, staleness_bound, num_nodes)
        if self.min_nodes > num_nodes:
            raise ClusterError(
                f"min_nodes ({self.min_nodes}) exceeds the constructed fleet "
                f"size ({num_nodes}); the fleet is built at maximum scale"
            )
        if self._flash is not None:
            self._flash.bind(duration, staleness_bound, num_nodes)
        self._active = self.min_nodes
        self._cooldown_left = 0
        self._last_total = 0
        self._last_violations = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._lag = 0.0
        self._cost = 0.0
        self._staleness = 0

    def check(self, cluster: "ClusterSimulation") -> None:
        if self.pressure_high is not None and cluster.node_at(0).detector is None:
            raise ClusterError(
                "autoscale pressure_high needs hot-key detection: pass "
                "hotkey=HotKeyConfig(...)"
            )

    def events(self) -> List[ScenarioEvent]:
        def standby(cluster: "ClusterSimulation", time: float) -> None:
            for index in range(self.min_nodes, self.num_nodes):
                cluster.deactivate_node(index)
            if cluster.obs is not None:
                cluster.obs.event(
                    time,
                    "autoscale",
                    action="standby",
                    active=self.min_nodes,
                    standby=self.num_nodes - self.min_nodes,
                )

        return [ScenarioEvent(time=0.0, label="autoscale-standby", apply=standby)]

    def transform_request(self, time: float, key: str, key_size: int, value_size: int) -> str:
        if self._flash is not None:
            return self._flash.transform_request(time, key, key_size, value_size)
        return key

    def on_interval(self, cluster: "ClusterSimulation", time: float) -> None:
        interval = self.staleness_bound
        total = 0
        violations = 0
        for node in cluster.nodes():
            result = node.result
            total += result.reads + result.writes
            violations += result.staleness_violations
        delta = total - self._last_total
        self._last_total = total
        violations_delta = violations - self._last_violations
        self._last_violations = violations
        rate = delta / (interval * self._active) if interval > 0 else 0.0

        pressure = 0.0
        if self.pressure_high is not None:
            for node in cluster.nodes()[: self._active]:
                if node.detector is not None:
                    node_pressure = node.detector.pressure()
                    if node_pressure > pressure:
                        pressure = node_pressure

        breach = (self.high_load is not None and rate > self.high_load) or (
            self.pressure_high is not None and pressure >= self.pressure_high
        )
        if breach:
            # The ideal-elasticity baseline answered this breach instantly
            # and for free; every breached interval is lag and staleness the
            # real controller owes against it.
            self._lag += interval
            self._staleness += violations_delta

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return

        if breach and self._active < self.num_nodes:
            index = self._active
            node_id = cluster.node_at(index).node_id
            cluster.rejoin_node(index, warm=self.warm, time=time)
            cluster.event_log.append((time, f"scale-up:{node_id}"))
            if cluster.obs is not None:
                cluster.obs.event(
                    time, "autoscale", action="up", node=node_id,
                    rate=rate, pressure=pressure,
                )
            self._active += 1
            self._scale_ups += 1
            self._cost += self.action_cost
            self._cooldown_left = self.cooldown
        elif (
            not breach
            and self.low_load is not None
            and rate < self.low_load
            and self._active > self.min_nodes
        ):
            index = self._active - 1
            node_id = cluster.node_at(index).node_id
            cluster.remove_node(index, time)
            cluster.event_log.append((time, f"scale-down:{node_id}"))
            if cluster.obs is not None:
                cluster.obs.event(
                    time, "autoscale", action="down", node=node_id, rate=rate
                )
            self._active -= 1
            self._scale_downs += 1
            self._cost += self.action_cost
            self._cooldown_left = self.cooldown

    def result_fields(self) -> Dict[str, Any]:
        return {
            "scale_ups": self._scale_ups,
            "scale_downs": self._scale_downs,
            "elasticity_lag": self._lag,
            "elasticity_cost": self._cost,
            "elasticity_staleness": self._staleness,
        }
