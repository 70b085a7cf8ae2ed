"""Fleet replay in one process: byte-identity for any worker count.

``replay_cluster_parallel`` must return the exact ``ClusterResult`` a
single-process ``ClusterSimulation`` produces — same per-node rows, same
fleet totals, same serialised floats — for any ``workers`` value, including
configurations the columnar engine cannot vectorize (scenarios, lossy
channels, tiers), where it falls back to the scalar fleet loop.  ``workers``
is validated and otherwise ignored: the replay never forks.
"""

import json
import multiprocessing
import os
import re

import pytest

from repro.cluster import (
    ClusterSimulation,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
    replay_cluster_parallel,
)
from repro.cluster.cluster import FLEET_REFUSALS
from repro.concurrency.config import ConcurrencyConfig
from repro.errors import ClusterError, ConfigurationError
from repro.experiments.registry import make_policy
from repro.experiments.spec import ChannelSpec, ExperimentSpec, ScenarioSpec
from repro.fanout import fork_each
from repro.obs.recorder import ObsConfig, ObsRecorder
from repro.resilience import AutoscaleScenario, ChaosSpec
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
# One process for any worker count
# --------------------------------------------------------------------- #

WORKER_COUNTS = (0, 1, 2, 8)


@pytest.fixture
def no_fork(monkeypatch):
    """A replay that forks fails the test instead."""

    def refuse(*args, **kwargs):
        raise AssertionError("a fleet replay forked")

    monkeypatch.setattr(os, "fork", refuse)


def canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "policy", ["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"]
)
def test_every_worker_count_replays_in_caller_forks_nothing(policy: str, no_fork) -> None:
    trace = compile_workload(make_workload(), DURATION)
    fleet = dict(
        policy=policy, num_nodes=3, staleness_bound=1.0, duration=DURATION,
        workload_name="parcheck", seed=9,
    )
    vector = VectorClusterSimulation(trace, **fleet)
    expected = canonical(vector.run())
    assert vector.used_vector_path
    for workers in WORKER_COUNTS:
        assert canonical(replay_cluster_parallel(trace, workers=workers, **fleet)) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, 1, 2, 4, 8])
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
    """Scenario runs are not vectorizable; they replay the scalar loop."""
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


#: name -> the fleet arguments of a configuration a split of the nodes over
#: processes could not replay, built per call (``root`` is a fresh scratch
#: directory): a controller reading the whole fleet's load, a checkpoint of
#: the whole fleet, one fetch queue shared by every node, a policy factory
#: (no registry name to ship), a live recorder.
FLEET_WIDE = {
    "autoscale": lambda root: dict(
        scenario=AutoscaleScenario(min_nodes=1, high_load=50.0, low_load=10.0)
    ),
    "store": lambda root: dict(store=StoreConfig(root=root, snapshot_interval=1.0)),
    "concurrency": lambda root: dict(concurrency=ConcurrencyConfig(mean=0.01, capacity=2)),
    "policy-factory": lambda root: dict(policy=lambda: make_policy("adaptive")),
    "obs-recorder": lambda root: dict(obs=ObsRecorder(ObsConfig(window=1.0))),
}


@pytest.mark.parametrize("name", list(FLEET_WIDE))
def test_fleet_wide_configs_replay_at_any_worker_count(
    name: str, tmp_path, no_fork
) -> None:
    """What a split over worker processes used to refuse is the one process's
    replay at every worker count."""
    trace = compile_workload(make_workload(), DURATION)
    runs = iter(range(len(WORKER_COUNTS) + 1))

    def fleet() -> dict:
        base = dict(
            policy="invalidate", num_nodes=3, staleness_bound=1.0, duration=DURATION,
            workload_name="parcheck", seed=9,
        )
        base.update(FLEET_WIDE[name](str(tmp_path / f"store-{next(runs)}")))
        return base

    expected = VectorClusterSimulation(trace, **fleet()).run()
    for workers in WORKER_COUNTS:
        assert canonical(replay_cluster_parallel(trace, workers=workers, **fleet())) == canonical(
            expected
        )
    if name == "obs-recorder":
        assert expected.obs["trace"], "the recorder observed the run"


def test_parallel_replay_runs_a_store_in_one_process(tmp_path, no_fork) -> None:
    """A checkpoint covers the whole fleet, and the whole fleet is in the one
    process: at every worker count the store's log is written in the caller
    and the row is the single-process one."""
    trace = compile_workload(make_workload(), DURATION)

    def fleet(root) -> dict:
        return dict(
            policy="invalidate", num_nodes=2, staleness_bound=1.0, duration=DURATION,
            workload_name="parcheck", seed=9, store=StoreConfig(root=str(root)),
        )

    expected = canonical(VectorClusterSimulation(trace, **fleet(tmp_path / "one")).run())
    for workers in WORKER_COUNTS:
        root = tmp_path / f"workers-{workers}"
        assert canonical(replay_cluster_parallel(trace, workers=workers, **fleet(root))) == expected
        assert any(root.iterdir()), f"workers={workers}: the store wrote nothing"


def test_a_policy_instance_or_no_fleet_size_is_refused_at_any_worker_count() -> None:
    """Every node needs its own policy state, and a fleet needs a size."""
    trace = compile_workload(make_workload(), DURATION)
    for workers in WORKER_COUNTS:
        with pytest.raises(ClusterError, match="not an instance"):
            replay_cluster_parallel(
                trace, workers=workers, policy=make_policy("invalidate"), num_nodes=2,
                staleness_bound=1.0, duration=DURATION,
            )
        with pytest.raises(ClusterError, match="num_nodes"):
            replay_cluster_parallel(trace, workers=workers, policy="invalidate", staleness_bound=1.0)


def test_a_negative_worker_count_is_refused_not_replayed_in_process() -> None:
    """``-3`` used to replay in-process without a word."""
    with pytest.raises(ClusterError, match="workers must be >= 0, got -3"):
        parallel_result("invalidate", workers=-3, num_nodes=3)
    assert parallel_result("invalidate", workers=0, num_nodes=3) == parallel_result(
        "invalidate", workers=1, num_nodes=3
    )


def test_parallel_timings_report_merge_seconds() -> None:
    """Nothing merges: ``merge_seconds`` is zero for every worker count."""
    trace = compile_workload(make_workload(), DURATION)
    for workers in WORKER_COUNTS:
        timings: dict = {}
        replay_cluster_parallel(
            trace, workers=workers, timings=timings, policy="invalidate", num_nodes=2,
            staleness_bound=1.0, duration=DURATION, workload_name="parcheck", seed=9,
        )
        assert timings == {"merge_seconds": 0.0}


# --------------------------------------------------------------------- #
# Refusals
# --------------------------------------------------------------------- #

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
}


def test_the_refusal_walk_covers_the_inventory() -> None:
    assert set(REFUSAL_WALK) == set(FLEET_REFUSALS)


@pytest.mark.parametrize("rule", list(REFUSAL_WALK))
def test_every_entry_point_refuses_with_the_same_reason(rule: str, tmp_path, no_fork) -> None:
    """One rulebook: the fleet, ``replay_cluster_parallel`` and the spec give
    the reason in the same words — the fleet before a request is read, the
    spec before a cell runs."""
    fleet, spec = REFUSAL_WALK[rule]

    def arguments() -> dict:
        base = dict(policy="invalidate", num_nodes=3, staleness_bound=1.0, duration=DURATION)
        base.update(fleet(str(tmp_path / "store")))
        return base

    def untouched():
        raise AssertionError("a refused fleet read its workload")
        yield

    with pytest.raises(ClusterError) as refusal:
        ClusterSimulation(untouched(), **arguments())
    reason = str(refusal.value)
    pattern = re.sub(r"\\\{\w+(!r)?\\\}", ".+", re.escape(FLEET_REFUSALS[rule]))
    assert re.fullmatch(pattern, reason), (reason, FLEET_REFUSALS[rule])
    assert not (tmp_path / "store").exists(), "refused after the store opened its log"

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


def test_no_share_or_one_never_forks() -> None:
    """The fan-out helper's edge: nothing to run is an empty answer (not an
    ``IndexError``), and a lone share is the caller's."""
    def name_the_process(share):
        return share, os.getpid()

    assert fork_each(name_the_process, [], str, ClusterError) == []
    assert fork_each(name_the_process, ["all"], str, ClusterError) == [("all", os.getpid())]
    assert multiprocessing.active_children() == []
