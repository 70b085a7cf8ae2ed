"""Crash recovery: byte-identical datastore rebuild and exact run resume."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cluster import ClusterSimulation, ReplicationConfig
from repro.core.write_reactive import AlwaysInvalidatePolicy
from repro.errors import ClusterError, StoreError
from repro.sim.simulation import Simulation
from repro.store import (
    StoreConfig,
    WalStats,
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


#: A one-node store killed at t=3 (``store snapshot --duration 4
#: --snapshot-interval 2 --kill-at 3 --param num_keys=50``), written in
#: format 0: its snapshots still carry the retention and bounded-tracker
#: fields, all null or zero.
LEGACY_STORE = Path(__file__).parent / "data" / "stores" / "format-0"


def legacy_store(tmp_path, tamper=None) -> Path:
    """A copy of :data:`LEGACY_STORE`; ``tamper(snapshot)`` edits its newest snapshot."""
    root = tmp_path / "legacy-store"
    shutil.copytree(LEGACY_STORE, root)
    if tamper is not None:
        path = sorted(root.glob("snapshot-*.json"))[-1]
        snapshot = json.loads(path.read_text())
        tamper(snapshot)
        path.write_text(json.dumps(snapshot, sort_keys=True))
    return root


def _first_history(snapshot) -> dict:
    return next(iter(snapshot["datastore"]["histories"].values()))


def _only_node(snapshot) -> dict:
    (node,) = snapshot["nodes"].values()
    return node


def test_the_legacy_store_carries_the_old_fields_null_or_zero(tmp_path) -> None:
    snapshot = json.loads(sorted(LEGACY_STORE.glob("snapshot-*.json"))[-1].read_text())
    assert snapshot["datastore"]["retention"] is None
    assert snapshot["datastore"]["pruned_writes"] == 0
    assert {history["pruned"] for history in snapshot["datastore"]["histories"].values()} == {0}
    assert _only_node(snapshot)["tracker"]["forgotten"] == 0
    recovered, report = recover_datastore(legacy_store(tmp_path))
    assert report.snapshot_seq == 2
    assert recovered.total_writes == snapshot["datastore"]["total_writes"] > 0


@pytest.mark.parametrize(
    "field, tamper",
    [
        ("retention", lambda snapshot: snapshot["datastore"].update(retention=2.0)),
        ("pruned_writes", lambda snapshot: snapshot["datastore"].update(pruned_writes=3)),
        ("pruned", lambda snapshot: _first_history(snapshot).update(pruned=1)),
    ],
    ids=["retention", "pruned_writes", "history-pruned"],
)
def test_a_snapshot_of_pruned_history_is_refused_naming_the_field(
    tmp_path, field, tamper
) -> None:
    with pytest.raises(StoreError, match=rf"snapshot field \S*\b{field} is "):
        recover_datastore(legacy_store(tmp_path, tamper))


def test_a_snapshot_of_a_tracker_that_forgot_keys_is_refused(tmp_path) -> None:
    root = legacy_store(
        tmp_path, lambda snapshot: _only_node(snapshot)["tracker"].update(forgotten=2)
    )
    cluster = make_cluster(root, num_nodes=1)
    with pytest.raises(StoreError, match=r"snapshot field tracker\.forgotten is 2"):
        cluster.restore_from_store()


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


def test_a_resume_recovers_the_datastore_as_recover_datastore_does(tmp_path) -> None:
    """One recovery pass: a resume's report and datastore are the ones a
    datastore-only recovery of the same store gives."""
    root = tmp_path / "store"
    make_cluster(root).run(stop_at=6.0)
    recovered, report = recover_datastore(root)
    resumed = make_cluster(root)
    assert resumed.restore_from_store().as_dict() == report.as_dict()
    assert report.snapshot_seq > 0 and report.recovered_versions > 0
    assert canonical_datastore_bytes(resumed.datastore) == canonical_datastore_bytes(recovered)


def test_wal_counters_refuse_a_name_they_do_not_have() -> None:
    stats = WalStats()
    stats.load({"appends": 3, "flushes": 1})
    assert (stats.appends, stats.flushes) == (3, 1)
    with pytest.raises(StoreError, match="WalStats has no counter 'bogus'"):
        stats.load({"bogus": 1})


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
