"""Scenario engine: node failure, partition, flash crowd, and the grid axes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterSimulation, ReplicationConfig, make_scenario
from repro.cluster.hashring import ConsistentHashRing
from repro.errors import ClusterError
from repro.experiments import ExperimentSpec, ScenarioSpec, run_experiment
from repro.store import StoreConfig
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 12.0
BOUND = 0.5


def run_scenario(scenario_name, policy: str = "invalidate", store_root=None, **scenario_params):
    workload = PoissonZipfWorkload(num_keys=300, rate_per_key=20.0, seed=7)
    scenario = (
        make_scenario(scenario_name, scenario_params) if scenario_name else None
    )
    cluster = ClusterSimulation(
        workload=workload.iter_requests(DURATION),
        policy=policy,
        num_nodes=8,
        staleness_bound=BOUND,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        scenario=scenario,
        duration=DURATION,
        workload_name="poisson",
        seed=7,
        store=(
            StoreConfig(str(store_root), snapshot_interval=1.0)
            if store_root is not None
            else None
        ),
    )
    return cluster.run()


def test_node_failure_produces_stale_serve_spike_vs_ideal_baseline() -> None:
    """The acceptance check: failed-but-undetected nodes serve stale data."""
    baseline = run_scenario(None)
    failure = run_scenario("node-failure")
    # Ideal channels + write-reactive invalidation keep the baseline clean.
    assert baseline.totals.staleness_violations == 0
    assert failure.totals.staleness_violations > 0
    # The spike is attributable to the failure machinery: dropped freshness
    # messages, fetches that could not reach the backend, and a rebalance
    # when the detector fired plus one when the node rejoined.
    assert failure.totals.messages_dropped > 0
    assert failure.failed_fetches > 0
    assert failure.rebalances == 2


def ring_state(ring) -> tuple:
    """Everything a ring holds but its route caches, dict orders included."""
    return (
        ring.vnodes, ring._points, list(ring._nodes.items()), list(ring._zones.items()),
        ring._point_hashes, ring._point_owners,
    )


def test_a_fleet_that_loses_a_node_leaves_the_next_of_its_shape_a_fresh_ring() -> None:
    """Fleets of one shape start on copies of one ring: a node-failure cell
    takes a node off its copy and puts it back (last, in the ring's node
    order), and the next fleet of the shape starts on a ring equal to one
    built node by node — its node-failure run rebalances as the first did."""
    def fleet(scenario):
        workload = PoissonZipfWorkload(num_keys=100, rate_per_key=10.0, seed=3)
        return ClusterSimulation(
            workload=workload.iter_requests(DURATION),
            policy="invalidate",
            num_nodes=4,
            zones=2,
            vnodes=16,
            staleness_bound=BOUND,
            replication=ReplicationConfig(factor=2),
            scenario=scenario,
            duration=DURATION,
            seed=3,
        )

    fresh = ConsistentHashRing(vnodes=16)
    for index in range(4):
        fresh.add_node(f"node-{index:03d}", zone=f"zone-{index % 2}")
    first = fleet(make_scenario("node-failure", {}))
    first_result = first.run()
    assert first_result.rebalances == 2
    assert list(first.ring._nodes) == ["node-001", "node-002", "node-003", "node-000"]
    assert ring_state(first.ring) != ring_state(fresh)
    second = fleet(make_scenario("node-failure", {}))
    assert ring_state(second.ring) == ring_state(fresh)
    assert not any(second.ring._route_caches.values())
    assert second.ring is not first.ring
    assert second.run().as_dict() == first_result.as_dict()


def test_node_failure_concentrates_staleness_on_the_failed_node() -> None:
    failure = run_scenario("node-failure", node_index=2)
    failed_node = failure.nodes[2]
    others = [node for index, node in enumerate(failure.nodes) if index != 2]
    assert failed_node.staleness_violations > max(
        node.staleness_violations for node in others
    )
    assert failed_node.departures == 1
    assert failed_node.joins == 1


def test_partition_loses_invalidates_but_keeps_serving() -> None:
    baseline = run_scenario(None)
    partition = run_scenario("partition", node_indices=(0, 1))
    assert partition.totals.messages_dropped > 0
    assert partition.totals.staleness_violations > baseline.totals.staleness_violations
    # Unlike node-failure, fetches keep working: no failed fetches, no churn.
    assert partition.failed_fetches == 0
    assert partition.rebalances == 0


def test_flash_crowd_moves_traffic_onto_event_keys() -> None:
    baseline = run_scenario(None)
    crowd = run_scenario("flash-crowd", fraction=0.4, hot_keys=2)
    # The event keys are new to every shard: the crowd lands cold.
    assert crowd.totals.cold_misses > baseline.totals.cold_misses
    # Redirected requests are conserved, just re-keyed.
    assert crowd.totals.reads == baseline.totals.reads
    assert crowd.totals.writes == baseline.totals.writes


def test_warm_rejoin_cuts_the_miss_spike_versus_cold_rejoin(tmp_path) -> None:
    """The acceptance check: a snapshot-restored rejoin beats a cold one."""
    cold = run_scenario("node-failure", store_root=tmp_path / "cold")
    warm = run_scenario("node-failure", store_root=tmp_path / "warm", rejoin="warm")
    # The rejoining node actually restored durable state...
    assert warm.warm_restored > 0
    rejoined = warm.nodes[0]
    assert rejoined.warm_restored > 0
    assert rejoined.warm_invalidated < rejoined.warm_restored
    # ...and the restore measurably shrinks the rejoin spike: keys untouched
    # during the outage serve as hits instead of cold misses, while entries
    # written during the outage came back invalidated, so the stale-serve
    # count does not grow.
    assert warm.totals.misses < cold.totals.misses
    assert warm.totals.hits > cold.totals.hits
    assert warm.totals.cold_misses < cold.totals.cold_misses
    assert warm.totals.staleness_violations <= cold.totals.staleness_violations
    # Cold rejoin restores nothing, by definition.
    assert cold.warm_restored == 0


def test_kill_at_t_warm_restart_beats_cold_restart(tmp_path) -> None:
    cold = run_scenario("kill-at-t", store_root=tmp_path / "cold", mode="cold")
    warm = run_scenario("kill-at-t", store_root=tmp_path / "warm", mode="warm")
    # Every node crashed once, in both modes.
    assert cold.crashes == warm.crashes == 8
    assert all(node.crashes == 1 for node in warm.nodes)
    # Warm restart refills every cache from its snapshot...
    assert warm.warm_restored > 0
    assert cold.warm_restored == 0
    # ...and turns a fleet-wide cold-miss storm into mostly hits.
    assert warm.totals.misses < cold.totals.misses
    assert warm.totals.staleness_violations <= cold.totals.staleness_violations


def test_warm_scenarios_require_a_store() -> None:
    with pytest.raises(ClusterError):
        run_scenario("node-failure", rejoin="warm")
    with pytest.raises(ClusterError):
        run_scenario("kill-at-t", mode="warm")
    # Cold kill-at-t also journals nothing, so it needs no store... but the
    # crash itself is storeless: it must run fine without one.
    result = run_scenario("kill-at-t", mode="cold")
    assert result.crashes == 8


def test_scenario_instances_can_be_rebound_to_a_different_run() -> None:
    scenario = make_scenario("node-failure")
    scenario.bind(duration=20.0, staleness_bound=0.5, num_nodes=4)
    first_fail_at = scenario.fail_at
    scenario.bind(duration=5.0, staleness_bound=0.5, num_nodes=4)
    # Relative defaults are recomputed from the new horizon, not baked in.
    assert first_fail_at == pytest.approx(8.0)
    assert scenario.fail_at == pytest.approx(2.0)
    assert scenario.detect_at < 5.0


@pytest.mark.parametrize("name", ["node-failure", "zone-outage"])
def test_recover_at_auto_is_compared_by_value(name) -> None:
    # Built at run time, as the command line builds it: not the interned
    # literal, so a comparison by identity would miss it.
    auto = "".join(["au", "to"])
    scenario = make_scenario(name, {"recover_at": auto})
    scenario.bind(duration=10.0, staleness_bound=0.5, num_nodes=4)
    assert scenario.recover_at == 7.5


@pytest.mark.parametrize(
    "name, param",
    [
        ("partition", "start_at"),
        ("backend-saturation", "recover_at"),
        ("node-failure", "detect_at"),
        ("zone-outage", "recover_at"),
        ("kill-at-t", "kill_at"),
        ("flash-crowd", "shift_at"),
    ],
)
@pytest.mark.parametrize("value", ["soon", float("nan")])
def test_a_scenario_time_that_is_not_a_real_number_is_refused_by_name(name, param, value) -> None:
    scenario = make_scenario(name, {param: value})
    with pytest.raises(ClusterError, match=f"^{param} must be a real number, got {value!r}$"):
        scenario.bind(duration=10.0, staleness_bound=0.5, num_nodes=4)


@pytest.mark.parametrize("name", ["partition", "l2-outage", "gray-failure"])
def test_a_node_named_twice_is_refused(name) -> None:
    """A partition over [0, 0] saved the channel's loss twice, the second
    time over the first start's value, and restored the wrong loss."""
    scenario = make_scenario(name, {"node_indices": [0, 0]})
    with pytest.raises(ClusterError, match="^node index 0 is named twice$"):
        scenario.bind(duration=10.0, staleness_bound=0.5, num_nodes=4)


def test_registry_is_one_table_whatever_is_imported_first() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    registries = []
    for first in ("repro.resilience", "repro.cluster"):
        probe = (
            f"import {first}\n"
            "from repro.cluster.scenarios import SCENARIO_FACTORIES\n"
            "print(sorted((name, factory.__qualname__) for name, factory"
            " in SCENARIO_FACTORIES.items()))"
        )
        registries.append(
            subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                check=True,
            ).stdout
        )
    assert registries[0] == registries[1]
    assert len(ast.literal_eval(registries[0])) == 12


def test_no_scenario_describes_itself() -> None:
    """Rows carry the scenario's name and parameters (``RunCell.describe``);
    a scenario's resolved coordinates are its attributes."""
    from repro.cluster.scenarios import SCENARIO_FACTORIES, Scenario
    from repro.resilience import AutoscaleScenario, ChaosPlan

    classes = [Scenario, AutoscaleScenario, ChaosPlan]
    classes += [factory for factory in SCENARIO_FACTORIES.values() if isinstance(factory, type)]
    assert [cls.__name__ for cls in classes if hasattr(cls, "describe")] == []


def test_fleet_cache_stats_ratios_are_recomputed_not_summed() -> None:
    result = run_scenario(None)
    stats = result.totals.cache_stats
    assert 0.0 <= stats["hit_ratio"] <= 1.0
    assert 0.0 <= stats["miss_ratio"] <= 1.0
    assert stats["hit_ratio"] == pytest.approx(stats["hits"] / stats["lookups"])


def test_scenarios_validate_their_timelines() -> None:
    with pytest.raises(ClusterError):
        make_scenario("no-such-scenario")
    with pytest.raises(ClusterError):
        # Wrong parameter for this scenario: a clean error, not a TypeError.
        make_scenario("node-failure", {"loss": 0.5})
    with pytest.raises(ClusterError):
        run_scenario("node-failure", fail_at=5.0, detect_at=4.0)
    with pytest.raises(ClusterError):
        run_scenario("partition", start_at=8.0, end_at=2.0)
    with pytest.raises(ClusterError):
        run_scenario("node-failure", node_index=99)
    with pytest.raises(ClusterError):
        make_scenario("node-failure", {"rejoin": "lukewarm"})
    with pytest.raises(ClusterError):
        make_scenario("kill-at-t", {"mode": "tepid"})
    with pytest.raises(ClusterError):
        run_scenario("kill-at-t", mode="cold", kill_at=99.0)


def test_cluster_grid_axes_expand_and_run_identically_across_processes() -> None:
    spec = ExperimentSpec(
        name="fleet",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[BOUND],
        num_nodes=[4, 8],
        replications=[2],
        scenarios=[None, ScenarioSpec.of("node-failure")],
        duration=6.0,
        base_seed=7,
    )
    assert spec.num_cells == 4
    serial = run_experiment(spec, processes=1)
    parallel = run_experiment(spec, processes=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    by_coords = {(row["num_nodes"], row["scenario"]): row for row in serial}
    assert set(by_coords) == {(4, "none"), (4, "node-failure"), (8, "none"), (8, "node-failure")}
    for nodes in (4, 8):
        assert (
            by_coords[(nodes, "node-failure")]["staleness_violations"]
            > by_coords[(nodes, "none")]["staleness_violations"]
        )


def test_spec_rejects_replication_exceeding_the_smallest_fleet() -> None:
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ExperimentSpec(
            name="bad",
            policies=["invalidate"],
            workloads=["poisson"],
            staleness_bounds=[1.0],
            num_nodes=[4, 8],
            replications=[2, 8],
        )


@pytest.mark.parametrize(
    "axes, complaint",
    [
        # Valid on the 8-node cells, out of range on the 2-node ones: used to
        # validate, replay the 8-node cell and die in the 2-node cell.
        (
            dict(num_nodes=[8, 2], scenarios=[ScenarioSpec.of("node-failure", {"node_index": 5})]),
            "node_index 5 out of range for 2 nodes",
        ),
        (
            dict(num_nodes=[4], scenarios=[ScenarioSpec.of("partition", {"node_indices": [1, 6]})]),
            "node index 6 out of range for 4 nodes",
        ),
        # The default detection lag is 4 bounds: fine at T=0.5, past the
        # requested recovery at T=2.
        (
            dict(
                num_nodes=[4],
                staleness_bounds=[0.5, 2.0],
                scenarios=[ScenarioSpec.of("node-failure", {"fail_at": 1.0, "recover_at": 6.0})],
            ),
            "recover_at must be after detect_at",
        ),
    ],
    ids=["node_index", "node_indices", "recover_at"],
)
def test_spec_binds_every_scenario_to_every_fleet_it_will_run_on(axes, complaint) -> None:
    """A cell that cannot run is refused with the grid, not found mid-sweep."""
    from repro.errors import ConfigurationError

    base = dict(
        name="unbindable",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[0.5],
        duration=12.0,
    )
    with pytest.raises(ConfigurationError) as refusal:
        ExperimentSpec(**{**base, **axes})
    message = str(refusal.value)
    assert message.startswith(complaint + " (cluster cells with scenario=")
    # ... naming the combination that cannot run, not the first one checked.
    smallest = min(axes["num_nodes"])
    assert f"num_nodes={smallest}," in message
    assert f"staleness_bound={max(axes.get('staleness_bounds', [0.5]))}," in message


def test_spec_rejects_cluster_features_on_single_cache_cells() -> None:
    from repro.errors import ConfigurationError

    base = dict(
        name="bad",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[1.0],
    )
    # A scenario without a cluster axis would produce rows labeled with a
    # scenario that never ran.
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, scenarios=["node-failure"])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, num_nodes=[None, 4], scenarios=["node-failure"])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, hot_policy="update")
    # Clairvoyant policies are rejected before the sweep, not mid-run.
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**{**base, "policies": ["optimal"]}, num_nodes=[4])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, num_nodes=[4], hot_policy="optimal")


def test_single_cache_cells_are_unchanged_by_the_new_axes() -> None:
    spec = ExperimentSpec(
        name="single",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[1.0],
        duration=2.0,
        base_seed=1,
    )
    (row,) = run_experiment(spec, processes=1)
    assert row["num_nodes"] is None
    assert row["scenario"] == "none"
    assert "nodes" not in row  # no per-node breakdown on single-cache rows
