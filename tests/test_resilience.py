"""Resilience: elasticity, the richer failure taxonomy, and seeded chaos.

Pins the PR's contract end to end:

* degraded-but-alive channels (partial loss, extra delay) and the sender-side
  retry schedule, including the outage-skips-retries stream discipline;
* the queryable hot-key ``pressure()`` signal and its consumers;
* ring zone labels as pure metadata and the minimal-movement property for
  every rebalance path (scale-up, scale-down, zone recovery);
* the three new failure scenarios with their headline comparisons —
  gray-failure serving *more* stale than fail-silent at equal outage budget,
  flapping's silent/ring bracket — and the autoscaler measured against the
  ideal-elasticity baseline (elastic strictly beats static under a flash
  crowd);
* deterministic chaos plans: seeded draws, overlap composition, refusals;
* byte-identity of every new scenario across both engines and any worker
  count.
"""

import json

import pytest

from repro.backend.channel import Channel
from repro.backend.messages import InvalidateMessage
from repro.cluster import (
    ClusterSimulation,
    VectorClusterSimulation,
    make_scenario,
    replay_cluster_parallel,
)
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.hotkey import HotKeyConfig, HotKeyDetector
from repro.concurrency.config import ConcurrencyConfig
from repro.errors import ClusterError, ConfigurationError
from repro.experiments import WorkloadSpec, run_experiment
from repro.experiments.spec import ChannelSpec, ExperimentSpec, ScenarioSpec
from repro.obs.recorder import ObsConfig
from repro.resilience import AutoscaleScenario, ChaosPlan, ChaosSpec, as_chaos_plan
from repro.resilience.chaos import _Fault
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 8.0
BOUND = 0.5

#: Shared in-flight fetch model for the scenarios that need service time.
CONCURRENCY = dict(service_time="exponential", mean=0.02, capacity=8, seed=5)


def fleet_workload(seed: int = 7, keys: int = 120, rate: float = 20.0) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(num_keys=keys, rate_per_key=rate, seed=seed)


def run_cluster(
    scenario=None,
    num_nodes: int = 6,
    duration: float = DURATION,
    workload: PoissonZipfWorkload = None,
    **kwargs,
):
    workload = workload if workload is not None else fleet_workload()
    simulation = ClusterSimulation(
        workload=workload.iter_requests(duration),
        policy="invalidate",
        num_nodes=num_nodes,
        staleness_bound=BOUND,
        duration=duration,
        workload_name="resil",
        seed=11,
        scenario=scenario,
        **kwargs,
    )
    return simulation, simulation.run()


def message(sent_at: float) -> InvalidateMessage:
    return InvalidateMessage(key="k", sent_at=sent_at)


# --------------------------------------------------------------------- #
# Channel: degraded overlay and retry schedule
# --------------------------------------------------------------------- #

class TestChannelDegraded:
    def test_degraded_loss_composes_independently_with_base(self) -> None:
        channel = Channel(loss_probability=0.5, seed=1)
        channel.set_degraded(loss=0.5)
        assert channel._effective_loss() == pytest.approx(0.75)
        channel.clear_degraded()
        assert channel._effective_loss() == pytest.approx(0.5)

    def test_degraded_delay_adds_and_clears_exactly(self) -> None:
        channel = Channel(delay=0.1, seed=1)
        channel.set_degraded(delay=0.25)
        record = channel.send(message(1.0))
        assert record.delivered
        assert record.deliver_at == pytest.approx(1.35)
        channel.clear_degraded()
        record = channel.send(message(2.0))
        assert record.deliver_at == pytest.approx(2.1)

    def test_delay_only_overlay_leaves_the_random_stream_untouched(self) -> None:
        plain = Channel(loss_probability=0.3, seed=4)
        degraded = Channel(loss_probability=0.3, seed=4)
        plain_records = [plain.send(message(float(i))) for i in range(2)]
        degraded_records = [degraded.send(message(float(i))) for i in range(2)]
        degraded.set_degraded(delay=0.5)
        excursion = degraded.send(message(2.0))
        mirror = plain.send(message(2.0))
        degraded.clear_degraded()
        plain_records += [plain.send(message(float(i))) for i in range(3, 6)]
        degraded_records += [degraded.send(message(float(i))) for i in range(3, 6)]
        assert [r.delivered for r in plain_records] == [
            r.delivered for r in degraded_records
        ]
        assert [r.deliver_at for r in plain_records] == [
            r.deliver_at for r in degraded_records
        ]
        if excursion.delivered:
            assert excursion.deliver_at == pytest.approx(mirror.deliver_at + 0.5)

    def test_degraded_validation(self) -> None:
        channel = Channel()
        with pytest.raises(ConfigurationError):
            channel.set_degraded(loss=1.5)
        with pytest.raises(ConfigurationError):
            channel.set_degraded(delay=-0.1)


class TestChannelRetries:
    def test_retries_recover_lost_messages_and_charge_the_schedule(self) -> None:
        lossy = Channel(loss_probability=0.4, seed=3)
        retrying = Channel(
            loss_probability=0.4, seed=3, retries=3, retry_timeout=0.2, retry_backoff=0.1
        )
        for i in range(200):
            lossy.send(message(float(i)))
        records = [retrying.send(message(float(i))) for i in range(200)]
        assert retrying.dropped < lossy.dropped
        assert retrying.recovered > 0
        assert retrying.retried >= retrying.recovered
        # A recovered message pays at least one timeout + backoff step.
        recovered_delays = [
            record.deliver_at - record.message.sent_at
            for record in records
            if record.delivered and record.deliver_at > record.message.sent_at
        ]
        assert recovered_delays
        assert min(recovered_delays) >= 0.3 - 1e-9

    def test_outage_skips_retries_without_consuming_randomness(self) -> None:
        interrupted = Channel(
            loss_probability=0.3, seed=9, retries=2, retry_timeout=0.1
        )
        control = Channel(loss_probability=0.3, seed=9, retries=2, retry_timeout=0.1)
        interrupted.outage = True
        record = interrupted.send(message(0.0))
        interrupted.outage = False
        assert not record.delivered
        assert interrupted.retried == 0
        follow = [interrupted.send(message(float(i))) for i in range(50)]
        mirror = [control.send(message(float(i))) for i in range(50)]
        assert [r.delivered for r in follow] == [r.delivered for r in mirror]
        assert [r.deliver_at for r in follow] == [r.deliver_at for r in mirror]

    def test_retry_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            Channel(retries=-1)
        with pytest.raises(ConfigurationError):
            Channel(retry_timeout=-0.1)
        # ChannelSpec stays a dumb coordinate record; invalid values fail
        # eagerly when the cluster builds the per-node Channel from it.
        with pytest.raises(ConfigurationError):
            Channel(retries=ChannelSpec(retries=-1).retries)

    def test_fleet_retries_reduce_message_loss(self) -> None:
        _, lossy = run_cluster(
            channel=ChannelSpec(loss_probability=0.4), num_nodes=3, duration=4.0
        )
        simulation, retrying = run_cluster(
            channel=ChannelSpec(loss_probability=0.4, retries=3, retry_timeout=0.01),
            num_nodes=3,
            duration=4.0,
        )
        dropped = lambda result: sum(
            row["messages_dropped"] for row in result.node_rows()
        )
        assert dropped(retrying) < dropped(lossy)
        assert any(node.channel.recovered > 0 for node in simulation.nodes())


# --------------------------------------------------------------------- #
# Hot-key pressure: the queryable per-window signal
# --------------------------------------------------------------------- #

class TestHotKeyPressure:
    def test_pressure_is_zero_before_min_observations(self) -> None:
        detector = HotKeyDetector(
            HotKeyConfig(hot_policy=None, min_observations=10), seed=1
        )
        for _ in range(9):
            detector.observe("k")
        assert detector.pressure() == 0.0

    def test_pressure_is_zero_until_a_key_is_flagged(self) -> None:
        config = HotKeyConfig(hot_policy=None, hot_fraction=0.3, min_observations=10)
        detector = HotKeyDetector(config, seed=1)
        for _ in range(30):
            detector.observe("hot")
        for i in range(10):
            detector.observe(f"cold-{i}")
        assert detector.pressure() == 0.0
        assert detector.is_hot("hot")
        # "hot" holds 30 of 40 observations; the sketch may only overcount.
        assert 0.5 <= detector.pressure() <= 1.0

    def test_pressure_lands_in_the_fleet_result(self) -> None:
        workload = PoissonZipfWorkload(num_keys=5, rate_per_key=40.0, seed=3)
        _, result = run_cluster(
            num_nodes=2,
            duration=4.0,
            workload=workload,
            hotkey=HotKeyConfig(
                hot_policy=None, hot_fraction=0.2, min_observations=50
            ),
        )
        assert result.hot_pressure > 0.0
        assert result.as_dict()["hot_pressure"] == result.hot_pressure


# --------------------------------------------------------------------- #
# Ring zones and the minimal-movement invariant
# --------------------------------------------------------------------- #

KEYS = [f"key-{index}" for index in range(1500)]


def route_map(ring: ConsistentHashRing) -> dict:
    return {key: ring.primary(key) for key in KEYS}


def make_ring(count: int = 5, zones: int = 0) -> ConsistentHashRing:
    ring = ConsistentHashRing(vnodes=16)
    for index in range(count):
        zone = f"zone-{index % zones}" if zones else None
        ring.add_node(f"node-{index:03d}", zone=zone)
    return ring


class TestRingZones:
    def test_zone_labels_are_queryable(self) -> None:
        ring = make_ring(5, zones=2)
        assert ring.zone_of("node-000") == "zone-0"
        assert ring.zone_of("node-001") == "zone-1"
        assert ring.zones == ["zone-0", "zone-1"]
        assert ring.zone_members("zone-0") == ["node-000", "node-002", "node-004"]

    def test_zone_labels_survive_remove_and_rejoin(self) -> None:
        ring = make_ring(4, zones=2)
        ring.remove_node("node-001")
        assert "node-001" not in ring.zone_members("zone-1")
        # The label is retained so the rejoin restores the failure domain
        # without re-stating it.
        ring.add_node("node-001")
        assert ring.zone_of("node-001") == "zone-1"
        assert "node-001" in ring.zone_members("zone-1")

    def test_zone_labels_never_affect_placement(self) -> None:
        labeled = make_ring(5, zones=3)
        unlabeled = make_ring(5, zones=0)
        assert route_map(labeled) == route_map(unlabeled)


class TestMinimalMovement:
    def test_scale_down_moves_exactly_the_departing_nodes_keys(self) -> None:
        ring = make_ring(5)
        before = route_map(ring)
        ring.remove_node("node-002")
        after = route_map(ring)
        moved = {key for key in KEYS if before[key] != after[key]}
        # Lower bound from the ring math: only keys the departed node owned
        # may move — and all of them must (their owner is gone).
        assert moved == {key for key in KEYS if before[key] == "node-002"}
        assert all(after[key] != "node-002" for key in moved)

    def test_scale_up_moves_exactly_the_new_nodes_keys(self) -> None:
        ring = make_ring(5)
        before = route_map(ring)
        ring.add_node("node-005")
        after = route_map(ring)
        moved = {key for key in KEYS if before[key] != after[key]}
        assert moved == {key for key in KEYS if after[key] == "node-005"}

    def test_rejoin_restores_routes_exactly(self) -> None:
        ring = make_ring(5)
        before = route_map(ring)
        ring.remove_node("node-003")
        ring.add_node("node-003")
        assert route_map(ring) == before

    def test_zone_recovery_restores_routes_exactly(self) -> None:
        ring = make_ring(6, zones=3)
        before = route_map(ring)
        members = ring.zone_members("zone-1")
        assert members == ["node-001", "node-004"]
        for node_id in members:
            ring.remove_node(node_id)
        outage = route_map(ring)
        moved = {key for key in KEYS if before[key] != outage[key]}
        assert moved == {key for key in KEYS if before[key] in set(members)}
        for node_id in members:
            ring.add_node(node_id)
        assert route_map(ring) == before
        assert ring.zone_members("zone-1") == members


# --------------------------------------------------------------------- #
# Gray failure: slow-but-alive beats fail-silent at staying stale
# --------------------------------------------------------------------- #

class TestGrayFailure:
    def test_gray_serves_more_stale_than_node_failure_at_equal_budget(self) -> None:
        # Same outage window on the same node; the fail-silent node gets
        # detected and drained, the gray node keeps serving stale.
        gray = make_scenario(
            "gray-failure",
            {"degrade_at": 2.0, "recover_at": 6.5, "loss": 0.9, "slowdown": 8.0},
        )
        silent = make_scenario(
            "node-failure", {"fail_at": 2.0, "detect_at": 2.5, "recover_at": 6.5}
        )
        _, gray_result = run_cluster(
            scenario=gray, concurrency=ConcurrencyConfig(**CONCURRENCY)
        )
        _, silent_result = run_cluster(
            scenario=silent, concurrency=ConcurrencyConfig(**CONCURRENCY)
        )
        assert (
            gray_result.totals.staleness_violations
            > silent_result.totals.staleness_violations
        )
        # Gray failure by definition never trips detection: no keys move.
        assert gray_result.rebalances == 0
        assert silent_result.rebalances == 2

    def test_gray_failure_requires_the_fetch_model(self) -> None:
        with pytest.raises(ClusterError, match="in-flight"):
            run_cluster(scenario=make_scenario("gray-failure", {}))

    def test_gray_failure_validation(self) -> None:
        with pytest.raises(ClusterError):
            make_scenario("gray-failure", {"node_indices": []})
        with pytest.raises(ClusterError):
            make_scenario("gray-failure", {"slowdown": 0.5})
        with pytest.raises(ClusterError):
            make_scenario("gray-failure", {"loss": 1.5})
        with pytest.raises(ClusterError, match="after"):
            run_cluster(
                scenario=make_scenario(
                    "gray-failure", {"degrade_at": 5.0, "recover_at": 2.0}
                ),
                concurrency=ConcurrencyConfig(**CONCURRENCY),
            )


# --------------------------------------------------------------------- #
# Zone outage: correlated loss of one failure domain
# --------------------------------------------------------------------- #

class TestZoneOutage:
    def test_zone_fails_drains_and_recovers_together(self) -> None:
        simulation, result = run_cluster(
            scenario=make_scenario("zone-outage", {"zone": 1}),
            num_nodes=6,
            zones=3,
        )
        labels = [label for _, label in simulation.event_log]
        assert "zone-fail:zone-1" in labels
        assert "zone-detect:zone-1" in labels
        assert "zone-recover:zone-1" in labels
        # zone-1 of a 6-node / 3-zone fleet is nodes 1 and 4: one correlated
        # drain and one correlated rejoin, one ring change per member each.
        assert result.rebalances == 4
        assert len(simulation.ring) == 6

    def test_zone_outage_needs_labeled_zones(self) -> None:
        with pytest.raises(ClusterError, match="zones"):
            run_cluster(scenario=make_scenario("zone-outage", {}), num_nodes=4)

    def test_unknown_zone_is_refused(self) -> None:
        with pytest.raises(ClusterError, match="no members"):
            run_cluster(
                scenario=make_scenario("zone-outage", {"zone": 7}),
                num_nodes=4,
                zones=2,
            )

    def test_zone_outage_validation(self) -> None:
        with pytest.raises(ClusterError):
            make_scenario("zone-outage", {"rejoin": "lukewarm"})
        with pytest.raises(ClusterError, match="after"):
            run_cluster(
                scenario=make_scenario(
                    "zone-outage", {"fail_at": 4.0, "detect_at": 2.0}
                ),
                num_nodes=4,
                zones=2,
            )


# --------------------------------------------------------------------- #
# Flapping: churn faster than detection
# --------------------------------------------------------------------- #

class TestFlapping:
    def test_silent_mode_never_touches_the_ring_but_hurts_freshness(self) -> None:
        simulation, flapped = run_cluster(
            scenario=make_scenario("flapping", {"flaps": 3, "degraded_loss": 0.5}),
            num_nodes=4,
        )
        _, baseline = run_cluster(num_nodes=4)
        assert flapped.rebalances == 0
        assert (
            flapped.totals.staleness_violations
            > baseline.totals.staleness_violations
        )
        labels = [label for _, label in simulation.event_log]
        assert labels.count("flap-settle") == 1
        for flap in range(3):
            assert f"flap-down:{flap}" in labels
            assert f"flap-back:{flap}" in labels

    def test_ring_mode_pays_a_rebalance_per_transition(self) -> None:
        _, result = run_cluster(
            scenario=make_scenario("flapping", {"flaps": 3, "mode": "ring"}),
            num_nodes=4,
        )
        # Each flap is a real departure plus a cold rejoin.
        assert result.rebalances == 6

    def test_flapping_validation(self) -> None:
        with pytest.raises(ClusterError):
            make_scenario("flapping", {"flaps": 0})
        with pytest.raises(ClusterError):
            make_scenario("flapping", {"mode": "loud"})
        with pytest.raises(ClusterError, match="ring"):
            run_cluster(
                scenario=make_scenario("flapping", {"mode": "ring"}), num_nodes=1
            )


# --------------------------------------------------------------------- #
# Autoscale: elasticity against the ideal baseline
# --------------------------------------------------------------------- #

class TestAutoscale:
    def test_scales_up_under_load_and_back_down_when_it_fades(self) -> None:
        # Requests stop at t=3 of a 10-second horizon: the controller must
        # ride the load up to the full fleet and drain back to the floor.
        scenario = AutoscaleScenario(min_nodes=2, high_load=50.0, low_load=20.0)
        workload = fleet_workload(seed=13, keys=100, rate=10.0)
        simulation = ClusterSimulation(
            workload=workload.iter_requests(3.0),
            policy="invalidate",
            num_nodes=4,
            staleness_bound=BOUND,
            duration=10.0,
            workload_name="resil",
            seed=11,
            scenario=scenario,
        )
        result = simulation.run()
        assert result.scale_ups == 2
        assert result.scale_downs == 2
        assert result.elasticity_cost == pytest.approx(4.0)
        assert result.elasticity_lag > 0.0
        assert len(simulation.ring) == 2
        labels = [label for _, label in simulation.event_log]
        assert any(label.startswith("scale-up:") for label in labels)
        assert any(label.startswith("scale-down:") for label in labels)

    def test_elastic_beats_static_fleet_under_a_flash_crowd(self) -> None:
        # Same controller, same workload, same flash crowd; the static
        # comparator is a fleet already at its ceiling (min_nodes == size),
        # so every breached interval runs its full course.  The ideal
        # baseline's lag/cost/staleness are identically zero, so the fields
        # ARE the gap — elastic must strictly shrink it.
        def run(num_nodes: int):
            scenario = AutoscaleScenario(
                min_nodes=2,
                high_load=200.0,
                flash_at=2.0,
                flash_fraction=0.5,
                flash_keys=2,
            )
            workload = fleet_workload(seed=13, keys=100, rate=10.0)
            simulation = ClusterSimulation(
                workload=workload.iter_requests(6.0),
                policy="invalidate",
                num_nodes=num_nodes,
                staleness_bound=BOUND,
                duration=6.0,
                workload_name="resil",
                seed=11,
                scenario=scenario,
                channel=ChannelSpec(loss_probability=0.3),
            )
            return simulation.run()

        elastic = run(8)
        static = run(2)
        assert elastic.scale_ups >= 1
        assert static.scale_ups == 0
        assert static.elasticity_cost == 0.0
        assert elastic.elasticity_lag < static.elasticity_lag
        assert elastic.elasticity_staleness < static.elasticity_staleness
        assert elastic.elasticity_cost == pytest.approx(
            float(elastic.scale_ups + elastic.scale_downs)
        )

    def test_pressure_trigger_scales_on_hot_keys(self) -> None:
        workload = PoissonZipfWorkload(num_keys=5, rate_per_key=40.0, seed=3)
        scenario = AutoscaleScenario(min_nodes=1, pressure_high=0.2)
        _, result = run_cluster(
            scenario=scenario,
            num_nodes=2,
            duration=4.0,
            workload=workload,
            hotkey=HotKeyConfig(
                hot_policy=None, hot_fraction=0.2, min_observations=50
            ),
        )
        assert result.scale_ups >= 1

    def test_pressure_trigger_requires_a_detector(self) -> None:
        with pytest.raises(ClusterError, match="hot-key"):
            run_cluster(
                scenario=AutoscaleScenario(min_nodes=1, pressure_high=0.5),
                num_nodes=2,
            )

    def test_warm_scaling_requires_a_store(self) -> None:
        with pytest.raises(ClusterError, match="store"):
            run_cluster(
                scenario=AutoscaleScenario(min_nodes=1, high_load=5.0, warm=True),
                num_nodes=2,
            )

    def test_min_nodes_cannot_exceed_the_fleet(self) -> None:
        with pytest.raises(ClusterError, match="min_nodes"):
            run_cluster(
                scenario=AutoscaleScenario(min_nodes=5, high_load=5.0), num_nodes=4
            )

    def test_constructor_validation(self) -> None:
        with pytest.raises(ClusterError, match="trigger"):
            AutoscaleScenario(min_nodes=1)
        with pytest.raises(ClusterError):
            AutoscaleScenario(min_nodes=0, high_load=5.0)
        with pytest.raises(ClusterError, match="below"):
            AutoscaleScenario(min_nodes=1, high_load=5.0, low_load=9.0)
        with pytest.raises(ClusterError):
            AutoscaleScenario(min_nodes=1, pressure_high=1.5)
        with pytest.raises(ClusterError):
            AutoscaleScenario(min_nodes=1, high_load=5.0, cooldown=-1)
        with pytest.raises(ClusterError):
            AutoscaleScenario(min_nodes=1, high_load=5.0, action_cost=-1.0)

    def test_parallel_replay_runs_the_autoscaler_in_one_process(self) -> None:
        """The controller reads the whole fleet's load, and the whole fleet is
        in the one process that replays it: ``workers`` changes nothing."""
        trace = compile_workload(fleet_workload(), 4.0)
        _, expected = run_cluster(
            scenario=AutoscaleScenario(min_nodes=2, high_load=50.0), num_nodes=4, duration=4.0
        )
        assert expected.scale_ups > 0
        for workers in (0, 1, 2, 8):
            result = replay_cluster_parallel(
                trace,
                workers=workers,
                policy="invalidate",
                num_nodes=4,
                staleness_bound=BOUND,
                duration=4.0,
                workload_name="resil",
                seed=11,
                scenario=AutoscaleScenario(min_nodes=2, high_load=50.0),
            )
            assert json.dumps(result.as_dict(), sort_keys=True) == json.dumps(
                expected.as_dict(), sort_keys=True
            )

    def test_elasticity_fields_fold_into_obs_totals(self) -> None:
        scenario = AutoscaleScenario(min_nodes=2, high_load=50.0, low_load=20.0)
        _, result = run_cluster(
            scenario=scenario, num_nodes=4, duration=4.0, obs=ObsConfig(window=1.0)
        )
        totals = result.obs["meta"]["totals"]
        assert totals["scale_ups"] == result.scale_ups
        assert totals["elasticity_lag"] == pytest.approx(result.elasticity_lag)
        assert totals["elasticity_cost"] == pytest.approx(result.elasticity_cost)


# --------------------------------------------------------------------- #
# Chaos: seeded fault plans
# --------------------------------------------------------------------- #

def fault_key(plan: ChaosPlan):
    return [(f.kind, f.node_index, f.at, f.until) for f in plan.faults]


class TestChaos:
    def test_plans_are_deterministic_and_seed_sensitive(self) -> None:
        spec = ChaosSpec(seed=3, faults=6)
        first, second = ChaosPlan(spec), ChaosPlan(spec)
        first.bind(10.0, 4)
        second.bind(10.0, 4)
        assert fault_key(first) == fault_key(second)
        first.bind(10.0, 4)  # re-binding re-draws the same schedule
        assert fault_key(first) == fault_key(second)
        other = ChaosPlan(ChaosSpec(seed=4, faults=6))
        other.bind(10.0, 4)
        assert fault_key(other) != fault_key(first)

    def test_events_require_bind(self) -> None:
        with pytest.raises(ClusterError, match="bind"):
            ChaosPlan(ChaosSpec(seed=1)).events()

    def test_spec_validation(self) -> None:
        with pytest.raises(ClusterError):
            ChaosSpec(faults=0)
        with pytest.raises(ClusterError):
            ChaosSpec(kinds=())
        with pytest.raises(ClusterError, match="unknown"):
            ChaosSpec(kinds=("meteor",))
        with pytest.raises(ClusterError):
            ChaosSpec(start=0.8, end=0.2)
        with pytest.raises(ClusterError):
            ChaosSpec(window=0.0)
        with pytest.raises(ClusterError):
            ChaosSpec(loss=1.5)
        with pytest.raises(ClusterError):
            ChaosSpec(slowdown=0.5)

    def test_slow_node_kinds_are_refused_without_concurrency(self) -> None:
        # The refusal is on the spec, not the draw: even a plan whose dice
        # might avoid slow-node is rejected up front.
        with pytest.raises(ClusterError, match="slow-node"):
            run_cluster(chaos=ChaosSpec(seed=1, kinds=("slow-node", "delay")))

    def test_other_chaos_types_are_rejected(self) -> None:
        with pytest.raises(ClusterError, match="ChaosSpec"):
            as_chaos_plan(object())

    def test_overlapping_windows_compose_instead_of_clobbering(self) -> None:
        calls = []

        class SpyChannel:
            def set_degraded(self, loss=0.0, delay=0.0, jitter=0.0):
                calls.append(("set", round(loss, 9), round(delay, 9)))

            def clear_degraded(self):
                calls.append(("clear",))

        class SpyNode:
            channel = SpyChannel()

        class SpyCluster:
            def node_at(self, index):
                return SpyNode()

        plan = ChaosPlan(
            ChaosSpec(seed=0, faults=2, kinds=("drop", "delay"), loss=0.5, delay=0.5)
        )
        plan.bind(10.0, 1)
        plan.faults = [
            _Fault(kind="drop", node_index=0, at=1.0, until=3.0),
            _Fault(kind="delay", node_index=0, at=2.0, until=4.0),
        ]
        cluster = SpyCluster()
        for event in plan.events():
            event.apply(cluster, event.time)
        assert calls == [
            ("set", 0.5, 0.0),  # drop opens
            ("set", 0.5, 0.5),  # delay joins; the drop survives
            ("set", 0.0, 0.5),  # drop closes; the delay survives
            ("clear",),  # both windows closed
        ]

    def test_chaos_composes_with_a_scenario_and_bites(self) -> None:
        spec = ChaosSpec(
            seed=5, faults=6, kinds=("delay", "drop", "crash"), window=0.3, loss=0.6
        )
        simulation, chaotic = run_cluster(
            scenario=make_scenario("node-failure", {}), num_nodes=4, chaos=spec
        )
        _, clean = run_cluster(scenario=make_scenario("node-failure", {}), num_nodes=4)
        labels = [label for _, label in simulation.event_log]
        assert any(label.startswith("chaos-") for label in labels)
        assert json.dumps(chaotic.as_dict(), sort_keys=True) != json.dumps(
            clean.as_dict(), sort_keys=True
        )


# --------------------------------------------------------------------- #
# Byte-identity across engines (and the differential-style reproducers)
# --------------------------------------------------------------------- #

ENGINE_CELLS = [
    # (scenario name, params, extra cluster kwargs, parallel workers)
    (
        "gray-failure",
        {"degrade_at": 1.0, "recover_at": 3.5, "loss": 0.8},
        {"concurrency": True},
        1,
    ),
    ("zone-outage", {"zone": 1}, {"zones": 2}, 2),
    ("flapping", {"flaps": 2, "mode": "ring"}, {}, 2),
    ("flapping", {"flaps": 2, "degraded_loss": 0.5}, {}, 2),
    ("autoscale", {"min_nodes": 2, "high_load": 30.0, "low_load": 5.0}, {}, 1),
]


def engine_kwargs(name, params, extra):
    kwargs = dict(
        policy="invalidate",
        num_nodes=4,
        staleness_bound=BOUND,
        duration=4.0,
        workload_name="rescheck",
        seed=9,
        scenario=make_scenario(name, dict(params)) if name else None,
    )
    for key, value in extra.items():
        if key == "concurrency":
            kwargs["concurrency"] = ConcurrencyConfig(**CONCURRENCY)
        else:
            kwargs[key] = value
    return kwargs


@pytest.mark.parametrize("name,params,extra,workers", ENGINE_CELLS)
def test_resilience_scenarios_are_byte_identical_across_engines(
    name, params, extra, workers
) -> None:
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=15.0, seed=21)
    scalar = ClusterSimulation(
        workload=workload.iter_requests(4.0), **engine_kwargs(name, params, extra)
    ).run()
    trace = compile_workload(workload, 4.0)
    vector_simulation = VectorClusterSimulation(
        trace, **engine_kwargs(name, params, extra)
    )
    vector = vector_simulation.run()
    # Every resilience scenario must force the scalar fallback.
    assert not vector_simulation.used_vector_path
    parallel = replay_cluster_parallel(
        trace, workers=workers, **engine_kwargs(name, params, extra)
    )
    rows = {
        "scalar": json.dumps(scalar.as_dict(), sort_keys=True),
        "vector": json.dumps(vector.as_dict(), sort_keys=True),
        f"parallel[workers={workers}]": json.dumps(parallel.as_dict(), sort_keys=True),
    }
    reference_name, reference = next(iter(rows.items()))
    for engine, row in rows.items():
        assert row == reference, (
            f"{engine} diverged from {reference_name}.\n"
            f"Reproducer: scenario={name!r} params={params} extra={extra} "
            f"workers={workers}"
        )


def test_chaos_plans_are_byte_identical_across_engines() -> None:
    spec = ChaosSpec(
        seed=5, faults=6, kinds=("delay", "drop", "crash"), window=0.3, loss=0.6
    )
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=15.0, seed=21)

    def kwargs():
        return dict(
            policy="invalidate",
            num_nodes=4,
            staleness_bound=BOUND,
            duration=4.0,
            workload_name="rescheck",
            seed=9,
            chaos=spec,
        )

    scalar = ClusterSimulation(workload=workload.iter_requests(4.0), **kwargs()).run()
    trace = compile_workload(workload, 4.0)
    vector_simulation = VectorClusterSimulation(trace, **kwargs())
    vector = vector_simulation.run()
    assert not vector_simulation.used_vector_path
    parallel = replay_cluster_parallel(trace, workers=2, **kwargs())
    a = json.dumps(scalar.as_dict(), sort_keys=True)
    b = json.dumps(vector.as_dict(), sort_keys=True)
    c = json.dumps(parallel.as_dict(), sort_keys=True)
    assert a == b == c, f"Reproducer: chaos={spec.describe()}"


def test_zones_without_a_zone_scenario_are_byte_identical_to_unlabeled() -> None:
    _, labeled = run_cluster(num_nodes=4, duration=4.0, zones=2)
    _, unlabeled = run_cluster(num_nodes=4, duration=4.0)
    assert json.dumps(labeled.as_dict(), sort_keys=True) == json.dumps(
        unlabeled.as_dict(), sort_keys=True
    )


def test_obs_recording_does_not_change_resilience_rows() -> None:
    scenario = {"flaps": 2, "degraded_loss": 0.5}
    _, plain = run_cluster(
        scenario=make_scenario("flapping", dict(scenario)), num_nodes=4, duration=4.0
    )
    _, observed = run_cluster(
        scenario=make_scenario("flapping", dict(scenario)),
        num_nodes=4,
        duration=4.0,
        obs=ObsConfig(window=1.0),
    )
    plain_row = plain.as_dict()
    observed_row = observed.as_dict()
    observed_row.pop("obs")
    assert json.dumps(plain_row, sort_keys=True) == json.dumps(
        observed_row, sort_keys=True
    )


# --------------------------------------------------------------------- #
# ExperimentSpec: zones and chaos as cell coordinates
# --------------------------------------------------------------------- #

def experiment_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="resil",
        policies=["invalidate"],
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 30, "rate_per_key": 8.0})],
        staleness_bounds=[0.5],
        duration=2.0,
        base_seed=3,
        num_nodes=[3],
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExperimentIntegration:
    def test_cells_carry_zones_and_chaos(self) -> None:
        spec = experiment_spec(zones=3, chaos=ChaosSpec(seed=2, kinds=("delay",)))
        cells = spec.expand()
        assert all(cell.zones == 3 for cell in cells)
        described = cells[0].describe()
        assert described["zones"] == 3
        assert described["chaos"]["seed"] == 2

    def test_zones_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            experiment_spec(zones=0)
        with pytest.raises(ConfigurationError, match="smallest fleet"):
            experiment_spec(zones=4, num_nodes=[3])
        with pytest.raises(ConfigurationError, match="cluster"):
            experiment_spec(zones=2, num_nodes=[None])
        with pytest.raises(ConfigurationError, match="failure domains"):
            experiment_spec(scenarios=[ScenarioSpec.of("zone-outage")])

    def test_chaos_validation(self) -> None:
        with pytest.raises(ConfigurationError, match="ChaosSpec"):
            experiment_spec(chaos={"seed": 1})
        with pytest.raises(ConfigurationError, match="slow-node"):
            experiment_spec(chaos=ChaosSpec(seed=1, kinds=("slow-node",)))

    def test_resilience_cells_run_deterministically(self) -> None:
        spec = experiment_spec(
            scenarios=[ScenarioSpec.of("flapping", {"flaps": 2})],
            zones=2,
            chaos=ChaosSpec(seed=2, faults=2, kinds=("delay", "drop")),
        )
        first = run_experiment(spec, processes=1)
        second = run_experiment(spec, processes=1)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert first[0]["scenario"] == "flapping"

    def test_autoscale_cells_report_elasticity_fields(self) -> None:
        spec = experiment_spec(
            scenarios=[
                ScenarioSpec.of(
                    "autoscale", {"min_nodes": 1, "high_load": 10.0}
                )
            ],
            num_nodes=[3],
        )
        rows = run_experiment(spec, processes=1)
        assert {"scale_ups", "elasticity_lag", "elasticity_cost"} <= set(rows[0])
