"""Shard-parallel cluster replay: byte-identity for any worker count.

``replay_cluster_parallel`` must return the exact ``ClusterResult`` a
single-process ``ClusterSimulation`` produces — same per-node rows, same
fleet totals, same serialised floats — for any ``--workers`` value,
including configurations the columnar engine cannot vectorize (scenarios,
lossy channels, tiers), where each shard falls back to the ownership-
filtered scalar loop.
"""

import json
import multiprocessing
import os
import re
import signal
import time

import pytest

from repro.cluster import (
    ClusterSimulation,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
    partition_nodes,
    replay_cluster_parallel,
)
from repro.cluster import parallel as parallel_module
from repro.cluster.cluster import FLEET_REFUSALS
from repro.concurrency.config import ConcurrencyConfig
from repro.errors import ClusterError, ConfigurationError
from repro.experiments.spec import ChannelSpec, ExperimentSpec, ScenarioSpec
from repro.fanout import fork_each
from repro.resilience import ChaosSpec
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 5.0


def make_workload(seed: int = 17) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(num_keys=90, rate_per_key=25.0, seed=seed)


def scalar_result(policy: str, **kwargs) -> dict:
    simulation = ClusterSimulation(
        workload=make_workload().iter_requests(DURATION),
        policy=policy,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
        **kwargs,
    )
    return simulation.run().as_dict()


def parallel_result(policy: str, workers: int, **kwargs) -> dict:
    trace = compile_workload(make_workload(), DURATION)
    result = replay_cluster_parallel(
        trace,
        workers=workers,
        policy=policy,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
        **kwargs,
    )
    return result.as_dict()


def assert_identical(scalar: dict, parallel: dict) -> None:
    assert scalar == parallel
    assert json.dumps(scalar, sort_keys=True) == json.dumps(parallel, sort_keys=True)


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #

def test_partition_nodes_strides_and_covers_every_node() -> None:
    partitions = partition_nodes(7, 3)
    assert partitions == [(0, 3, 6), (1, 4), (2, 5)]
    covered = sorted(index for owned in partitions for index in owned)
    assert covered == list(range(7))
    # Shard 0 must own node 0: the merge uses its result as the template.
    assert partitions[0][0] == 0


def test_partition_nodes_clamps_workers_to_fleet_size() -> None:
    assert partition_nodes(2, 8) == [(0,), (1,)]


def test_partition_nodes_validates_inputs() -> None:
    with pytest.raises(ClusterError):
        partition_nodes(0, 2)
    with pytest.raises(ClusterError):
        partition_nodes(4, 0)


# --------------------------------------------------------------------- #
# Vector fleet engine (in-process)
# --------------------------------------------------------------------- #

def test_vector_cluster_replay_matches_scalar_fleet() -> None:
    kwargs = dict(
        num_nodes=4,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
    )
    for policy in ("invalidate", "update", "adaptive", "ttl-polling"):
        scalar = scalar_result(policy, **kwargs)
        trace = compile_workload(make_workload(), DURATION)
        simulation = VectorClusterSimulation(
            trace,
            policy=policy,
            staleness_bound=1.0,
            duration=DURATION,
            workload_name="parcheck",
            seed=9,
            **kwargs,
        )
        vector = simulation.run().as_dict()
        assert simulation.used_vector_path, policy
        assert_identical(scalar, vector)


def test_memoised_round_robin_plan_leaves_every_router_where_the_scalar_loop_does() -> None:
    """One trace, one plan, many replays: the plan is memoised on the trace,
    so the read router's end-of-run counters must travel with it."""
    kwargs = dict(
        policy="invalidate",
        num_nodes=4,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
    )
    scalar = ClusterSimulation(workload=make_workload().iter_requests(DURATION), **kwargs)
    expected = scalar.run().as_dict()
    assert scalar.router._round_robin
    trace = compile_workload(make_workload(), DURATION)
    for _ in range(2):
        simulation = VectorClusterSimulation(trace, **kwargs)
        assert_identical(expected, simulation.run().as_dict())
        assert simulation.used_vector_path
        assert simulation.router._round_robin == scalar.router._round_robin
    assert len(trace.index().plans) == 1
    parallel = replay_cluster_parallel(trace, workers=2, **kwargs)
    assert_identical(expected, parallel.as_dict())
    assert len(trace.index().plans) == 1


def test_scalar_fallback_fleet_replays_never_index_the_trace() -> None:
    kwargs = dict(
        policy="invalidate",
        num_nodes=4,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        scenario=make_scenario("node-failure"),
        tier=TierConfig(l1_capacity=16),
        staleness_bound=0.5,
        duration=DURATION,
        seed=9,
    )
    trace = compile_workload(make_workload(), DURATION)
    simulation = VectorClusterSimulation(trace, **kwargs)
    simulation.run()
    assert not simulation.used_vector_path
    kwargs["scenario"] = make_scenario("node-failure")
    replay_cluster_parallel(trace, workers=2, **kwargs)
    assert trace._index is None


def test_vector_cluster_requires_a_compiled_trace() -> None:
    with pytest.raises(ConfigurationError):
        VectorClusterSimulation(
            make_workload().iter_requests(DURATION),
            policy="invalidate",
            num_nodes=2,
            staleness_bound=1.0,
        )


# --------------------------------------------------------------------- #
# Shard-parallel identity
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_replay_identical_for_any_worker_count(workers: int) -> None:
    kwargs = dict(num_nodes=4)
    scalar = scalar_result("invalidate", **kwargs)
    assert_identical(scalar, parallel_result("invalidate", workers, **kwargs))


@pytest.mark.parametrize("read_policy", ["primary", "round-robin", "hash"])
def test_parallel_replay_identical_under_replication(read_policy: str) -> None:
    kwargs = dict(
        num_nodes=5,
        replication=ReplicationConfig(factor=3, read_policy=read_policy),
    )
    scalar = scalar_result("adaptive", **kwargs)
    for workers in (2, 4):
        assert_identical(scalar, parallel_result("adaptive", workers, **kwargs))


def test_parallel_replay_identical_with_scenario_fallback() -> None:
    """Scenario runs are not vectorizable; shards replay the scalar loop."""
    kwargs = dict(num_nodes=4)
    scalar = scalar_result("update", scenario=make_scenario("node-failure"), **kwargs)
    for workers in (1, 3):
        got = parallel_result(
            "update", workers, scenario=make_scenario("node-failure"), **kwargs
        )
        assert_identical(scalar, got)


def test_parallel_replay_identical_with_lossy_channel() -> None:
    kwargs = dict(
        num_nodes=3, channel=ChannelSpec(loss_probability=0.15, delay=0.05, jitter=0.02)
    )
    scalar = scalar_result("invalidate", **kwargs)
    assert_identical(scalar, parallel_result("invalidate", 2, **kwargs))


def test_parallel_replay_identical_with_tiered_nodes() -> None:
    kwargs = dict(num_nodes=3, tier=TierConfig(l1_capacity=16))
    scalar = scalar_result("invalidate", **kwargs)
    assert_identical(scalar, parallel_result("invalidate", 3, **kwargs))


# --------------------------------------------------------------------- #
# Refusals and ownership validation
# --------------------------------------------------------------------- #

def test_parallel_replay_refuses_store_with_multiple_workers(tmp_path) -> None:
    from repro.store.snapshot import StoreConfig

    trace = compile_workload(make_workload(), DURATION)
    with pytest.raises(ClusterError, match="store"):
        replay_cluster_parallel(
            trace,
            workers=2,
            policy="invalidate",
            num_nodes=2,
            staleness_bound=1.0,
            duration=DURATION,
            store=StoreConfig(root=str(tmp_path)),
        )


def test_parallel_replay_refuses_policy_objects_and_owned_nodes() -> None:
    from repro.experiments.registry import make_policy

    trace = compile_workload(make_workload(), DURATION)
    with pytest.raises(ClusterError, match="registry name"):
        replay_cluster_parallel(
            trace,
            workers=2,
            policy=make_policy("invalidate"),
            num_nodes=2,
            staleness_bound=1.0,
            duration=DURATION,
        )
    with pytest.raises(ClusterError, match="owned_nodes"):
        replay_cluster_parallel(
            trace,
            workers=2,
            policy="invalidate",
            num_nodes=2,
            staleness_bound=1.0,
            duration=DURATION,
            owned_nodes=(0,),
        )
    with pytest.raises(ClusterError, match="num_nodes"):
        replay_cluster_parallel(
            trace, workers=2, policy="invalidate", staleness_bound=1.0
        )


def test_owned_nodes_validation_on_the_cluster_simulation(tmp_path) -> None:
    from repro.store.snapshot import StoreConfig

    def build(**kwargs):
        return ClusterSimulation(
            workload=make_workload().iter_requests(DURATION),
            policy="invalidate",
            num_nodes=3,
            staleness_bound=1.0,
            duration=DURATION,
            **kwargs,
        )

    with pytest.raises(ClusterError, match="at least one"):
        build(owned_nodes=())
    with pytest.raises(ClusterError, match="must be in"):
        build(owned_nodes=(0, 3))
    with pytest.raises(ClusterError, match="must be in"):
        build(owned_nodes=(-1,))
    with pytest.raises(ClusterError, match="whole fleet"):
        build(owned_nodes=(0,), store=StoreConfig(root=str(tmp_path)))


def _warm_kill(as_spec: bool):
    params = {"mode": "warm"}
    return ScenarioSpec.of("kill-at-t", params) if as_spec else make_scenario("kill-at-t", params)


#: rule -> (fleet arguments tripping that rule, the same cell on the spec's
#: axes or None where no spec can express it).  Stateful values are built
#: per call: ``fleet(root)`` gets a scratch store directory.
REFUSAL_WALK = {
    "zones": (lambda root: dict(zones=4), dict(zones=4)),
    "replication": (lambda root: dict(replication=4), dict(replications=[4])),
    "clairvoyant": (lambda root: dict(policy="optimal"), dict(policies=["optimal"])),
    # A spec always has a duration.
    "duration": (lambda root: dict(duration=None, chaos=ChaosSpec(seed=1, kinds=("delay",))), None),
    "chaos-concurrency": (
        lambda root: dict(chaos=ChaosSpec(seed=1, kinds=("slow-node",))),
        dict(chaos=ChaosSpec(seed=1, kinds=("slow-node",))),
    ),
    "scenario-tier": (
        lambda root: dict(scenario=make_scenario("cold-l1")),
        dict(scenarios=["cold-l1"]),
    ),
    "scenario-store": (
        lambda root: dict(scenario=_warm_kill(False)),
        dict(scenarios=[_warm_kill(True)]),
    ),
    "scenario-snapshots": (
        lambda root: dict(scenario=_warm_kill(False), store=StoreConfig(root=root)),
        dict(scenarios=[_warm_kill(True)], persistence=[True]),
    ),
    "scenario-concurrency": (
        lambda root: dict(scenario=make_scenario("backend-saturation")),
        dict(scenarios=["backend-saturation"]),
    ),
    "scenario-zones": (
        lambda root: dict(scenario=make_scenario("zone-outage")),
        dict(scenarios=["zone-outage"]),
    ),
    # Sharding is not on a spec's axes: its cells replay whole fleets.
    "shard-scenario": (
        lambda root: dict(scenario=make_scenario("autoscale", {"min_nodes": 1, "high_load": 50.0})),
        None,
    ),
    "shard-store": (lambda root: dict(store=StoreConfig(root=root)), None),
    "shard-concurrency": (lambda root: dict(concurrency=ConcurrencyConfig()), None),
}


def test_the_refusal_walk_covers_the_inventory() -> None:
    assert set(REFUSAL_WALK) == set(FLEET_REFUSALS)


@pytest.mark.parametrize("rule", list(REFUSAL_WALK))
def test_every_entry_point_refuses_with_the_same_reason(rule: str, tmp_path, monkeypatch) -> None:
    """One rulebook: the fleet, the shard-parallel replay and the spec give
    the reason in the same words — the fleet before a request is read, the
    parallel replay before a worker exists, the spec before a cell runs."""
    fleet, spec = REFUSAL_WALK[rule]

    def arguments() -> dict:
        base = dict(policy="invalidate", num_nodes=3, staleness_bound=1.0, duration=DURATION)
        base.update(fleet(str(tmp_path / "store")))
        return base

    def untouched():
        raise AssertionError("a refused fleet read its workload")
        yield

    sharded = dict(owned_nodes=(0,)) if rule.startswith("shard-") else {}
    with pytest.raises(ClusterError) as refusal:
        ClusterSimulation(untouched(), **arguments(), **sharded)
    reason = str(refusal.value)
    pattern = re.sub(r"\\\{\w+(!r)?\\\}", ".+", re.escape(FLEET_REFUSALS[rule]))
    assert re.fullmatch(pattern, reason), (reason, FLEET_REFUSALS[rule])
    assert not (tmp_path / "store").exists(), "refused after the store opened its log"

    def no_fork(*args, **kwargs):
        raise AssertionError("a refused replay reached the worker pool")

    monkeypatch.setattr(parallel_module, "fork_each", no_fork)
    with pytest.raises(ClusterError) as parallel_refusal:
        replay_cluster_parallel(
            compile_workload(make_workload(), DURATION), workers=2, **arguments()
        )
    assert str(parallel_refusal.value) == reason

    if spec is not None:
        axes = dict(
            name="refused",
            policies=["invalidate"],
            workloads=["poisson"],
            staleness_bounds=[1.0],
            num_nodes=[3],
            duration=DURATION,
        )
        with pytest.raises(ConfigurationError) as spec_refusal:
            ExperimentSpec(**{**axes, **spec})
        assert str(spec_refusal.value).startswith(reason + " (cluster cells with ")
        assert "num_nodes=3" in str(spec_refusal.value)


def test_ownership_filtered_rows_match_the_full_run() -> None:
    """An owned node's result row is byte-identical to the full fleet's."""
    full = ClusterSimulation(
        workload=make_workload().iter_requests(DURATION),
        policy="adaptive",
        num_nodes=3,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
    )
    full_result = full.run()
    shard = ClusterSimulation(
        workload=make_workload().iter_requests(DURATION),
        policy="adaptive",
        num_nodes=3,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
        owned_nodes=(1,),
    )
    shard_result = shard.run()
    assert json.dumps(full_result.nodes[1].as_dict(), sort_keys=True) == json.dumps(
        shard_result.nodes[1].as_dict(), sort_keys=True
    )


def test_parallel_timings_report_merge_seconds() -> None:
    trace = compile_workload(make_workload(), DURATION)
    timings: dict = {}
    replay_cluster_parallel(
        trace,
        workers=2,
        timings=timings,
        policy="invalidate",
        num_nodes=2,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
    )
    assert timings["merge_seconds"] >= 0.0
    timings.clear()
    replay_cluster_parallel(
        trace,
        workers=1,
        timings=timings,
        policy="invalidate",
        num_nodes=2,
        staleness_bound=1.0,
        duration=DURATION,
        workload_name="parcheck",
        seed=9,
    )
    assert timings["merge_seconds"] == 0.0


# --------------------------------------------------------------------- #
# A shard worker that fails
# --------------------------------------------------------------------- #

def wrap_shard_body(monkeypatch, around) -> None:
    """Run ``around(replay, owned)`` wherever a shard replays: the body
    ``replay_cluster_parallel`` hands :func:`fork_each` is wrapped before the
    fork, so the forked workers inherit the wrapper with it."""
    monkeypatch.setattr(
        parallel_module,
        "fork_each",
        lambda body, *rest: fork_each(lambda owned: around(body, owned), *rest),
    )


def shard_killed_on_node_one(replay, owned):
    if 1 in owned:
        os.kill(os.getpid(), signal.SIGKILL)
    return replay(owned)


def shard_refusing_node_zero(replay, owned):
    if 0 in owned:
        raise ConfigurationError("shard says no")
    return replay(owned)


def shard_refusing_node_two(replay, owned):
    if 2 in owned:
        raise ConfigurationError("forked shard says no")
    return replay(owned)


def run_three_shards():
    return parallel_result("invalidate", workers=3, num_nodes=3)


def test_a_killed_shard_worker_is_a_typed_error_not_a_hang(monkeypatch, wall_clock_limit) -> None:
    """SIGKILL (or the OOM killer) gives the worker no chance to answer: a
    worker pool replaced it silently and ``map`` waited for ever."""
    wrap_shard_body(monkeypatch, shard_killed_on_node_one)
    started = time.perf_counter()
    with wall_clock_limit(20.0), pytest.raises(ClusterError) as death:
        run_three_shards()
    assert time.perf_counter() - started < 10.0
    assert str(death.value) == (
        "the shard worker replaying nodes [1] died without a result "
        f"(exit code {-signal.SIGKILL})"
    )
    assert multiprocessing.active_children() == [], "a shard worker outlived the replay"


def test_a_shard_workers_exception_is_raised_as_its_own_type(monkeypatch, wall_clock_limit) -> None:
    """Shard 0 is the caller's own: its exception must still terminate and
    join the forked shards."""
    wrap_shard_body(monkeypatch, shard_refusing_node_zero)
    with wall_clock_limit(20.0), pytest.raises(ConfigurationError, match="shard says no"):
        run_three_shards()
    assert multiprocessing.active_children() == [], "a shard worker outlived the replay"


def test_a_forked_shards_exception_crosses_the_pipe_as_its_own_type(
    monkeypatch, wall_clock_limit
) -> None:
    wrap_shard_body(monkeypatch, shard_refusing_node_two)
    with wall_clock_limit(20.0), pytest.raises(ConfigurationError, match="forked shard says no"):
        run_three_shards()
    assert multiprocessing.active_children() == [], "a shard worker outlived the replay"


def test_the_caller_replays_shard_zero_and_forks_the_rest(monkeypatch) -> None:
    """``workers`` shards cost ``workers - 1`` forks: partition 0 runs on the
    caller's warm pages, with every cut of the replay already in the table."""
    pids = multiprocessing.get_context("fork").Queue()
    trace = compile_workload(make_workload(), DURATION)

    def shard_reporting_pid(replay, owned):
        pids.put((owned, {"pid": os.getpid(), "cuts": set(trace.index().table)}))
        return replay(owned)

    wrap_shard_body(monkeypatch, shard_reporting_pid)
    replay_cluster_parallel(
        trace, workers=3, policy="invalidate", num_nodes=3, staleness_bound=1.0,
        duration=DURATION, workload_name="parcheck", seed=9,
    )
    seen = dict(pids.get(timeout=10.0) for _ in range(3))
    assert seen[(0,)]["pid"] == os.getpid()
    assert len({report["pid"] for report in seen.values()}) == 3
    cuts = set(trace.index().table)
    assert cuts and all(report["cuts"] == cuts for report in seen.values())


def test_a_negative_worker_count_is_refused_not_replayed_in_process() -> None:
    """``workers <= 1`` short-circuits before ``partition_nodes`` can object:
    ``-3`` used to replay in-process without a word."""
    with pytest.raises(ClusterError, match="workers must be >= 0, got -3"):
        parallel_result("invalidate", workers=-3, num_nodes=3)
    assert parallel_result("invalidate", workers=0, num_nodes=3) == parallel_result(
        "invalidate", workers=1, num_nodes=3
    )


def test_no_share_or_one_never_forks() -> None:
    """The helper's edge: nothing to run is an empty answer (not an
    ``IndexError``), and a lone share is the caller's."""
    def name_the_process(share):
        return share, os.getpid()

    assert fork_each(name_the_process, [], str, ClusterError) == []
    assert fork_each(name_the_process, ["all"], str, ClusterError) == [("all", os.getpid())]
    assert multiprocessing.active_children() == []
