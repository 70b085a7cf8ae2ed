"""Cluster simulation: single-node equivalence, replication, determinism."""

import json

import pytest

from repro.cluster import (
    ClusterSimulation,
    HotKeyConfig,
    ReplicationConfig,
)
from repro.errors import ClusterError
from repro.experiments.registry import make_policy
from repro.obs.recorder import ObsConfig
from repro.sim.simulation import Simulation
from repro.store.snapshot import StoreConfig
from repro.workload.poisson import PoissonZipfWorkload


def workload(seed: int = 3, num_keys: int = 60) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(num_keys=num_keys, rate_per_key=20.0, seed=seed)


def run_cluster(policy: str = "adaptive", **overrides):
    kwargs = dict(
        workload=workload().iter_requests(6.0),
        policy=policy,
        num_nodes=4,
        staleness_bound=0.5,
        duration=6.0,
        workload_name="poisson",
        seed=11,
    )
    kwargs.update(overrides)
    return ClusterSimulation(**kwargs).run()


@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"])
def test_one_node_cluster_matches_single_cache_simulation(policy: str) -> None:
    """Both drivers run the same CacheNode; a one-node fleet is the single cache."""
    simulation = Simulation(
        workload=workload().iter_requests(6.0),
        policy=make_policy(policy),
        staleness_bound=0.5,
        duration=6.0,
        workload_name="poisson",
    )
    single = simulation.run().as_dict()
    clustered = run_cluster(policy=policy, num_nodes=1).totals.as_dict()
    assert clustered == single


POLICIES = ["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"]

#: What the one driver does beside the plain replay, each a path both the
#: single cache and the fleet take: eviction and a store with a snapshot cadence.
ONE_NODE_CONFIGS = {
    "capacity": lambda root: dict(cache_capacity=20),
    "store": lambda root: dict(store=StoreConfig(str(root), snapshot_interval=1.0)),
}


def one_node_pair(tmp_path, policy: str, config=lambda root: {}):
    """The single cache and a one-node fleet, each run with ``config(root)``."""
    simulation = Simulation(
        workload=workload().iter_requests(6.0),
        policy=make_policy(policy),
        staleness_bound=0.5,
        duration=6.0,
        workload_name="poisson",
        **config(tmp_path / "single"),
    )
    simulation.run()
    return simulation, run_cluster(policy=policy, num_nodes=1, **config(tmp_path / "fleet"))


@pytest.mark.parametrize("config", sorted(ONE_NODE_CONFIGS))
@pytest.mark.parametrize("policy", POLICIES)
def test_one_node_cluster_matches_single_cache_under(tmp_path, policy: str, config: str) -> None:
    """The same pin on every path the shared driver owns, store counters included."""
    simulation, fleet = one_node_pair(tmp_path, policy, ONE_NODE_CONFIGS[config])
    assert fleet.totals.as_dict() == simulation.result.as_dict()
    assert fleet.store == simulation.store_stats()
    assert config != "store" or fleet.store["snapshots"] == 6


@pytest.mark.parametrize("policy", POLICIES)
def test_one_node_cluster_obs_windows_match_single_cache_modulo_host_id(tmp_path, policy) -> None:
    simulation, fleet = one_node_pair(
        tmp_path, policy, lambda root: dict(obs=ObsConfig(window=1.0))
    )
    single = json.dumps(simulation.obs.payload()["windows"]).replace('"cache"', '"node-000"')
    assert json.loads(single) == fleet.obs["windows"]
    assert len(fleet.obs["windows"]["rows"]) == 6


def test_fleet_totals_count_every_request_once_despite_replication() -> None:
    requests = list(workload().iter_requests(6.0))
    reads = sum(1 for request in requests if request.is_read)
    writes = len(requests) - reads
    result = run_cluster(replication=ReplicationConfig(factor=3, read_policy="round-robin"))
    assert result.totals.reads == reads
    assert result.totals.writes == writes


def test_replication_fans_invalidates_out_to_every_replica() -> None:
    single = run_cluster(policy="invalidate", replication=1)
    replicated = run_cluster(policy="invalidate", replication=3)
    # Each dirty key produces one message per replica holding it, so the
    # fan-out grows with the factor (not necessarily 3x: replicas that never
    # cached a key still get invalidates, but suppression dedupes repeats).
    assert replicated.totals.invalidates_sent > single.totals.invalidates_sent


def test_replica_reads_spread_load_across_nodes() -> None:
    primary = run_cluster(replication=ReplicationConfig(factor=2, read_policy="primary"))
    spread = run_cluster(replication=ReplicationConfig(factor=2, read_policy="round-robin"))
    assert spread.load_imbalance <= primary.load_imbalance


def test_same_seed_is_byte_identical() -> None:
    first = run_cluster(replication=2, hotkey=HotKeyConfig(hot_policy="update"))
    second = run_cluster(replication=2, hotkey=HotKeyConfig(hot_policy="update"))
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


def test_per_node_results_sum_to_fleet_totals() -> None:
    result = run_cluster(replication=2)
    for field in ("reads", "writes", "hits", "stale_misses", "cold_misses"):
        assert getattr(result.totals, field) == sum(
            getattr(node, field) for node in result.nodes
        )
    assert len(result.nodes) == 4
    assert [node.node_id for node in result.nodes] == [f"node-{i:03d}" for i in range(4)]


def test_hot_key_detector_switches_policy_on_skewed_traffic() -> None:
    # Zipf 1.3 over few keys: the head keys dominate every shard's traffic.
    result = run_cluster(
        policy="invalidate",
        hotkey=HotKeyConfig(hot_policy="update", hot_fraction=0.05, min_observations=50),
    )
    assert result.hot_keys_flagged > 0
    assert result.hot_decisions > 0
    # Hot keys decided by the update policy actually produced updates even
    # though the base policy never updates.
    assert result.totals.updates_sent > 0


def test_clairvoyant_policies_are_rejected() -> None:
    with pytest.raises(ClusterError):
        ClusterSimulation(
            workload=[],
            policy="optimal",
            num_nodes=2,
            staleness_bound=1.0,
            duration=1.0,
        )
    # ... also as the hot-key policy: it would silently decide NOTHING.
    with pytest.raises(ClusterError):
        ClusterSimulation(
            workload=[],
            policy="invalidate",
            num_nodes=2,
            staleness_bound=1.0,
            duration=1.0,
            hotkey=HotKeyConfig(hot_policy="optimal"),
        )


def test_detection_only_hotkey_config_still_reports_flagged_keys() -> None:
    result = run_cluster(
        policy="invalidate",
        hotkey=HotKeyConfig(hot_policy=None, hot_fraction=0.05, min_observations=50),
    )
    assert result.hot_keys_flagged > 0
    assert result.hot_decisions == 0  # detection without switching


def test_replication_factor_cannot_exceed_fleet() -> None:
    with pytest.raises(ClusterError):
        ClusterSimulation(
            workload=[],
            policy="invalidate",
            num_nodes=2,
            staleness_bound=1.0,
            replication=3,
            duration=1.0,
        )


def test_cluster_runs_once_only() -> None:
    cluster = ClusterSimulation(
        workload=workload().iter_requests(1.0),
        policy="invalidate",
        num_nodes=2,
        staleness_bound=0.5,
        duration=1.0,
    )
    cluster.run()
    with pytest.raises(ClusterError):
        cluster.run()
