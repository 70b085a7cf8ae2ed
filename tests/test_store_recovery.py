"""Crash recovery: byte-identical datastore rebuild and exact run resume."""

import json

import pytest

from repro.cluster import ClusterSimulation, ReplicationConfig
from repro.core.write_reactive import AlwaysInvalidatePolicy
from repro.errors import ClusterError, StoreError
from repro.sim.simulation import Simulation
from repro.store import (
    StoreConfig,
    canonical_datastore_bytes,
    latest_snapshot,
    recover_datastore,
)
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 12.0
BOUND = 0.5


def make_cluster(root, num_nodes=3, snapshot_interval=2.0, **kwargs):
    workload = PoissonZipfWorkload(num_keys=80, rate_per_key=20.0, seed=11)
    return ClusterSimulation(
        workload=workload.iter_requests(DURATION),
        policy="invalidate",
        num_nodes=num_nodes,
        staleness_bound=BOUND,
        replication=(
            ReplicationConfig(factor=2, read_policy="round-robin") if num_nodes > 1 else None
        ),
        duration=DURATION,
        workload_name="poisson",
        seed=11,
        store=StoreConfig(str(root), snapshot_interval=snapshot_interval),
        **kwargs,
    )


def test_simulation_datastore_recovers_byte_for_byte(tmp_path) -> None:
    workload = PoissonZipfWorkload(num_keys=50, rate_per_key=20.0, seed=3)
    simulation = Simulation(
        workload=workload.iter_requests(6.0),
        policy=AlwaysInvalidatePolicy(),
        staleness_bound=BOUND,
        duration=6.0,
        store=StoreConfig(str(tmp_path / "store"), snapshot_interval=2.0),
    )
    result = simulation.run()
    recovered, report = recover_datastore(tmp_path / "store")
    assert canonical_datastore_bytes(recovered) == canonical_datastore_bytes(
        simulation.datastore
    )
    assert recovered.total_writes == simulation.datastore.total_writes
    assert recovered.total_reads == simulation.datastore.total_reads
    assert report.recovered_keys == len(simulation.datastore.known_keys())
    # The run reported its persistence activity.
    assert result.wal_appends > 0
    assert result.wal_flushes > 0
    assert result.snapshots_taken == 3
    assert result.persistence_cost > 0


def test_wal_tail_replays_past_the_last_snapshot(tmp_path) -> None:
    """Kill between snapshots: the WAL tail carries the state forward."""
    root = tmp_path / "store"
    # No compaction, so the log survives alongside the snapshots and a
    # recovery from (snapshot at t=4) + (tail after it) can be exercised.
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=20.0, seed=9)
    simulation = Simulation(
        workload=workload.iter_requests(6.0),
        policy=AlwaysInvalidatePolicy(),
        staleness_bound=BOUND,
        duration=6.0,
        store=StoreConfig(str(root), snapshot_interval=4.0, compact=False, flush_every=1),
    )
    simulation.run()
    # Drop the final checkpoint so the newest snapshot predates the WAL tip.
    snapshots = sorted(root.glob("snapshot-*.json"))
    assert len(snapshots) == 2
    snapshots[-1].unlink()
    recovered, report = recover_datastore(root)
    assert report.snapshot_time == pytest.approx(4.0)
    assert report.writes_replayed > 0
    assert canonical_datastore_bytes(recovered) == canonical_datastore_bytes(
        simulation.datastore
    )


def test_wal_replay_under_retention_prunes_like_the_original_run(tmp_path) -> None:
    """Retention travels with the snapshot, so tail replay stays byte-exact."""
    root = tmp_path / "store"
    workload = PoissonZipfWorkload(num_keys=30, rate_per_key=30.0, seed=5)
    simulation = Simulation(
        workload=workload.iter_requests(9.0),
        policy=AlwaysInvalidatePolicy(),
        staleness_bound=BOUND,
        duration=9.0,
        history_retention=2.0,
        store=StoreConfig(str(root), snapshot_interval=3.0, compact=False, flush_every=1),
    )
    simulation.run()
    sorted(root.glob("snapshot-*.json"))[-1].unlink()  # force a tail replay
    recovered, report = recover_datastore(root)
    assert report.writes_replayed > 0
    assert recovered.retention == 2.0
    assert recovered.pruned_writes == simulation.datastore.pruned_writes
    assert canonical_datastore_bytes(recovered) == canonical_datastore_bytes(
        simulation.datastore
    )


@pytest.mark.parametrize("num_nodes", [1, 3])
def test_recovered_cluster_finishes_with_identical_counters(tmp_path, num_nodes) -> None:
    """The acceptance check: crash at a checkpoint, resume, identical run."""
    uninterrupted = make_cluster(tmp_path / "a", num_nodes).run()

    crashed = make_cluster(tmp_path / "b", num_nodes)
    partial = crashed.run(stop_at=6.0)
    assert partial.interrupted
    assert partial.duration == pytest.approx(6.0)

    resumed = make_cluster(tmp_path / "b", num_nodes)
    resumed.restore_from_store()
    final = resumed.run()

    # Identical aggregate counters, per-node rows, and store counters —
    # the whole flattened result row matches field for field.
    assert json.dumps(final.as_dict(), sort_keys=True) == json.dumps(
        uninterrupted.as_dict(), sort_keys=True
    )
    assert final.totals.as_dict() == uninterrupted.totals.as_dict()


RESUME_POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]


def resume(tmp_path, policy, capacity, tier=None):
    """Kill a 3-node run (~2 k requests) at 6.0 s and resume it from its store:
    ``(simulation, row)`` of the uninterrupted run and of the resumed one.

    The restore brings the read router's counters back into the dict the
    router already had, which a read callable bound before it would hold."""

    def build(root):
        workload = PoissonZipfWorkload(num_keys=80, rate_per_key=2.0, seed=11)
        return ClusterSimulation(
            workload=workload.iter_requests(DURATION),
            policy=policy,
            num_nodes=3,
            staleness_bound=BOUND,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            cache_capacity=capacity,
            duration=DURATION,
            workload_name="poisson",
            seed=11,
            store=StoreConfig(str(root), snapshot_interval=2.0),
            tier=tier,
        )

    def row(result) -> str:
        return json.dumps(result.as_dict(), sort_keys=True)

    uninterrupted = build(tmp_path / "a")
    expected = row(uninterrupted.run())
    build(tmp_path / "b").run(stop_at=6.0)
    resumed = build(tmp_path / "b")
    counters = resumed.router._round_robin
    resumed.restore_from_store()
    assert resumed.router._round_robin is counters
    return (uninterrupted, expected), (resumed, row(resumed.run()))


def resume_matches(tmp_path, policy, capacity, tier=None) -> bool:
    """Whether the resumed run's whole row equals the uninterrupted run's."""
    (_, expected), (_, row) = resume(tmp_path, policy, capacity, tier)
    return row == expected


@pytest.mark.parametrize("capacity", [10, 40, None])
@pytest.mark.parametrize("policy", RESUME_POLICIES)
def test_every_policy_and_capacity_resumes_exactly(tmp_path, policy, capacity) -> None:
    """The snapshot carries a bounded cache's LRU order and the adaptive
    policy's E[W] counters, so no resumed row drifts from the uninterrupted
    one (without them, 11 of these 15 cells did)."""
    assert resume_matches(tmp_path, policy, capacity)


@pytest.mark.parametrize("policy", RESUME_POLICIES)
def test_a_write_back_tier_over_a_bounded_l2_resumes_exactly(tmp_path, policy) -> None:
    from repro.tier.config import TierConfig

    assert resume_matches(tmp_path, policy, 10, TierConfig(l1_capacity=6, mode="write-back"))


@pytest.mark.parametrize("policy", RESUME_POLICIES)
def test_a_write_through_tier_resumes_its_read_router_in_place(tmp_path, policy) -> None:
    """Round-robin reads over a write-through L1: the resumed run ends with the
    uninterrupted run's row and the same per-key read counters."""
    from repro.tier.config import TierConfig

    tier = TierConfig(l1_capacity=6, mode="write-through")
    (whole, expected), (resumed, row) = resume(tmp_path, policy, None, tier)
    assert row == expected
    assert resumed.router._round_robin == whole.router._round_robin
    assert whole.router._round_robin


def test_snapshots_carry_eviction_order_and_counters_only_where_they_exist(tmp_path) -> None:
    """An unbounded cache keeps no eviction order and a policy without the
    exact tracker has no counters: those snapshots carry neither field."""
    for policy, capacity, fields in [
        ("invalidate", None, set()),
        ("invalidate", 10, {"eviction_order"}),
        ("adaptive", None, {"estimator"}),
        ("adaptive", 10, {"eviction_order", "estimator"}),
    ]:
        root = tmp_path / f"{policy}-{capacity}"
        ClusterSimulation(
            workload=PoissonZipfWorkload(num_keys=30, rate_per_key=4.0, seed=2).iter_requests(4.0),
            policy=policy,
            num_nodes=2,
            staleness_bound=BOUND,
            cache_capacity=capacity,
            duration=4.0,
            store=StoreConfig(str(root), snapshot_interval=2.0),
        ).run()
        for node in latest_snapshot(root).nodes.values():
            assert {"eviction_order", "estimator"} & set(node) == fields
            if "eviction_order" in node:
                assert sorted(node["eviction_order"]) == sorted(
                    entry["key"] for entry in node["entries"]
                )


def test_resume_skips_scenario_events_already_applied(tmp_path) -> None:
    from repro.cluster import make_scenario

    def build(root):
        workload = PoissonZipfWorkload(num_keys=80, rate_per_key=20.0, seed=5)
        return ClusterSimulation(
            workload=workload.iter_requests(DURATION),
            policy="invalidate",
            num_nodes=4,
            staleness_bound=BOUND,
            scenario=make_scenario("node-failure"),
            duration=DURATION,
            seed=5,
            store=StoreConfig(str(root), snapshot_interval=2.0),
        )

    uninterrupted = build(tmp_path / "a").run()
    # Crash after fail (4.8) and detect (~6.8): both events must not re-fire.
    build(tmp_path / "b").run(stop_at=8.0)
    resumed = build(tmp_path / "b")
    resumed.restore_from_store()
    final = resumed.run()
    assert final.rebalances == uninterrupted.rebalances == 2
    assert [n.as_dict() for n in final.nodes] == [n.as_dict() for n in uninterrupted.nodes]


def test_recovery_of_an_empty_store_directory(tmp_path) -> None:
    recovered, report = recover_datastore(tmp_path)
    assert recovered.total_writes == 0
    assert report.wal_records == 0
    assert report.snapshot_seq == 0


def test_snapshots_stub_out_failed_nodes(tmp_path) -> None:
    from repro.store import warm_state

    cluster = make_cluster(tmp_path / "s", num_nodes=3)
    cluster.fail_node(0)
    cluster._checkpoint(1.0)
    snapshot = latest_snapshot(tmp_path / "s")
    assert sorted(snapshot.nodes) == ["node-000", "node-001", "node-002"]
    assert snapshot.nodes["node-000"].get("partial") is True
    assert "entries" not in snapshot.nodes["node-000"]
    assert "entries" in snapshot.nodes["node-001"]
    # A stub is not a restorable cache: warm rejoin ignores it.
    assert warm_state(tmp_path / "s", "node-000", 2.0) is None


def test_stop_at_without_store_is_rejected(tmp_path) -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=1)
    cluster = ClusterSimulation(
        workload=workload.iter_requests(2.0),
        policy="invalidate",
        num_nodes=1,
        staleness_bound=BOUND,
        duration=2.0,
    )
    with pytest.raises(ClusterError):
        cluster.run(stop_at=1.0)


def test_restore_needs_a_checkpoint_and_a_store(tmp_path) -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=1)
    cluster = ClusterSimulation(
        workload=workload.iter_requests(2.0),
        policy="invalidate",
        num_nodes=1,
        staleness_bound=BOUND,
        duration=2.0,
    )
    with pytest.raises(ClusterError):
        cluster.restore_from_store()
    empty = make_cluster(tmp_path / "empty", num_nodes=1)
    with pytest.raises(StoreError):
        empty.restore_from_store()


def test_persistence_grid_cells_record_store_counters(tmp_path) -> None:
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        name="durable",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[1.0],
        num_nodes=[None, 2],
        persistence=[True],
        snapshot_intervals=[2.0],
        duration=4.0,
        base_seed=3,
    )
    assert spec.num_cells == 2
    serial = run_experiment(spec, processes=1)
    parallel = run_experiment(spec, processes=2)
    # Scratch store directories must not leak into the rows: byte-identical
    # regardless of the worker schedule (and of where the tempdirs lived).
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    for row in serial:
        assert row["persistence"] is True
        assert row["snapshot_interval"] == 2.0
        assert row["wal_appends"] > 0
        assert row["persistence_cost"] > 0
        assert row["store"]["writes_logged"] > 0
        assert "root" not in row["store"]


def test_spec_rejects_snapshot_intervals_without_persistence() -> None:
    from repro.errors import ConfigurationError
    from repro.experiments import ExperimentSpec

    base = dict(
        name="bad",
        policies=["invalidate"],
        workloads=["poisson"],
        staleness_bounds=[1.0],
    )
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, snapshot_intervals=[2.0])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, persistence=[True, False], snapshot_intervals=[2.0])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, persistence=[True], snapshot_intervals=[-1.0])
    # Warm scenarios need both the persistence axis and a snapshot cadence.
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, num_nodes=[4], scenarios=["kill-at-t"], persistence=[True])
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, num_nodes=[4], scenarios=["kill-at-t"])


def test_boundary_coinciding_final_flush_leaves_a_resumable_store(tmp_path) -> None:
    """A flush at the last snapshot instant must not strand a WAL tail.

    With the bound off the snapshot grid, the final flush at the horizon
    journals messages *after* the interval snapshot taken at the same
    instant; the final checkpoint must cover them with a fresh snapshot or
    the store ends past its own watermark and refuses to resume.
    """
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=20.0, seed=2)
    cluster = ClusterSimulation(
        workload=workload.iter_requests(8.0),
        policy="invalidate",
        num_nodes=2,
        staleness_bound=0.75,
        duration=8.0,
        seed=2,
        store=StoreConfig(str(tmp_path / "s"), snapshot_interval=2.0),
    )
    cluster.run()
    _recovered, report = recover_datastore(tmp_path / "s")
    assert report.wal_records == 0  # nothing past the last snapshot's watermark


def test_history_pruning_keeps_versions_exact_above_the_watermark() -> None:
    from repro.backend.datastore import DataStore

    pruned = DataStore(retention=5.0)
    exact = DataStore()
    for i in range(2000):
        time = i * 0.01
        pruned.write("hot", time)
        exact.write("hot", time)
    assert pruned.total_writes == exact.total_writes == 2000
    # Version numbers never renumber...
    assert pruned.latest_version("hot") == exact.latest_version("hot") == 2000
    # ...and queries at or above the watermark stay exact.
    now = 19.99
    for probe in (now, now - 1.0, now - 4.9):
        assert pruned.version_at("hot", probe) == exact.version_at("hot", probe)
    assert pruned.writes_between("hot", now - 4.0, now) == exact.writes_between(
        "hot", now - 4.0, now
    )
    assert pruned.is_fresh("hot", now - 0.005, now, 0.5) == exact.is_fresh(
        "hot", now - 0.005, now, 0.5
    )
    # The RSS win: retained timestamps stay bounded by the window.
    assert pruned.pruned_writes > 0
    assert pruned.retained_write_times() <= 5.0 / 0.01 + 1
    assert exact.retained_write_times() == 2000


def test_long_run_history_stays_flat_with_retention() -> None:
    """A multi-interval run under retention holds a bounded history."""
    from repro.backend.datastore import DataStore

    store = DataStore(retention=2.0)
    for i in range(50_000):
        store.write(f"k{i % 20}", i * 0.001)
    assert store.retained_write_times() <= 20 * (2.0 / 0.02 + 2)
    assert store.latest_version("k0") == 2500
