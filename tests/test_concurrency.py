"""The in-flight fetch model: invariants, physics, and refusals.

Three families of pins:

* **The off invariant** — ``concurrency=None`` (the default) must leave every
  pipeline byte-identical to the instant-fetch engine: same rows from the
  scalar and vector paths at any worker count, and no shadowed methods on the
  instances (the concurrent handlers bind as *instance* attributes, so with
  the model off the plain class methods must resolve untouched).
* **The physics** — misses occupy the backend, stampedes dogpile without a
  policy and coalesce with one, stale serves and early refreshes happen when
  (and only when) their policy is on, and every read records exactly one
  latency sample.
* **The refusals** — combinations the model cannot replay honestly
  (checkpoints, mid-run stops) raise instead of approximating.
"""

import itertools
import json
import math
import random

import pytest

from repro.cluster import (
    ClusterSimulation,
    VectorClusterSimulation,
    make_scenario,
    replay_cluster_parallel,
)
from repro.concurrency.backend import BackendServer
from repro.concurrency.config import (
    STAMPEDE_POLICIES,
    ConcurrencyConfig,
    as_concurrency,
)
from repro.concurrency.coordinator import FetchCoordinator
from repro.errors import ClusterError, ConfigurationError
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.store.snapshot import StoreConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 5.0


def make_workload(seed: int = 23) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(num_keys=80, rate_per_key=20.0, seed=seed)


def concurrency(policy: str = "none", **overrides) -> ConcurrencyConfig:
    settings = dict(
        service_time="exponential", mean=0.05, capacity=4, policy=policy, seed=23
    )
    settings.update(overrides)
    return ConcurrencyConfig(**settings)


def run_single(config=None, engine: str = "scalar") -> dict:
    shared = dict(
        policy=make_policy("invalidate"),
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
        concurrency=config,
    )
    if engine == "vector":
        simulation = VectorSimulation(
            compile_workload(make_workload(), DURATION), **shared
        )
    else:
        simulation = Simulation(
            workload=make_workload().iter_requests(DURATION), **shared
        )
    return simulation.run().as_dict()


def fleet_result(config=None, scenario=None, **kwargs):
    simulation = ClusterSimulation(
        workload=make_workload().iter_requests(DURATION),
        policy="invalidate",
        num_nodes=4,
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
        seed=23,
        concurrency=config,
        scenario=scenario,
        **kwargs,
    )
    return simulation.run()


def run_fleet(config=None, scenario=None, **kwargs) -> dict:
    return fleet_result(config, scenario, **kwargs).as_dict()


# --------------------------------------------------------------------- #
# Config object
# --------------------------------------------------------------------- #

def test_config_rejects_bad_values() -> None:
    with pytest.raises(ConfigurationError):
        ConcurrencyConfig(service_time="uniform")
    with pytest.raises(ConfigurationError):
        ConcurrencyConfig(policy="lock-free")
    with pytest.raises(ConfigurationError):
        ConcurrencyConfig(mean=0.0)
    with pytest.raises(ConfigurationError):
        ConcurrencyConfig(capacity=0)
    with pytest.raises(TypeError):
        as_concurrency({"policy": "none"})


def test_config_as_dict_excludes_seed() -> None:
    flat = concurrency(seed=99).as_dict()
    assert "seed" not in flat
    assert flat["policy"] == "none"


# --------------------------------------------------------------------- #
# The off invariant: concurrency=None is byte-identical on every pipeline
# --------------------------------------------------------------------- #

def test_disabled_leaves_scalar_engine_untouched() -> None:
    simulation = Simulation(
        workload=make_workload().iter_requests(DURATION),
        policy=make_policy("invalidate"),
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
    )
    result = simulation.run()
    # No shadowed handlers: the concurrent path binds instance attributes,
    # so with the model off the instance dict must not carry any.
    assert not any(name.startswith("_process") for name in vars(simulation))
    assert "handle_read" not in vars(simulation.node)
    assert result.as_dict() == run_single(config=None)
    assert result.backend_fetches == 0
    assert result.latency_count == 0


def test_disabled_vector_engine_matches_scalar() -> None:
    assert run_single(None, engine="vector") == run_single(None, engine="scalar")


def test_disabled_cluster_row_identical_with_and_without_kwarg() -> None:
    simulation = ClusterSimulation(
        workload=make_workload().iter_requests(DURATION),
        policy="invalidate",
        num_nodes=4,
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
        seed=23,
    )
    baseline = simulation.run().as_dict()
    for node in simulation.nodes():
        assert "handle_read" not in vars(node)
    row = run_fleet(config=None)
    assert json.dumps(baseline, sort_keys=True) == json.dumps(row, sort_keys=True)


def test_disabled_shard_parallel_identical_for_any_worker_count() -> None:
    trace = compile_workload(make_workload(), DURATION)
    shared = dict(
        policy="invalidate",
        num_nodes=4,
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
        seed=23,
        concurrency=None,
    )
    single = replay_cluster_parallel(trace, workers=1, **shared).as_dict()
    sharded = replay_cluster_parallel(trace, workers=3, **shared).as_dict()
    assert json.dumps(single, sort_keys=True) == json.dumps(sharded, sort_keys=True)
    assert single == run_fleet(config=None)


def test_vector_engine_falls_back_to_scalar_when_enabled() -> None:
    config = concurrency("single-flight")
    assert run_single(config, engine="vector") == run_single(config, engine="scalar")
    trace = compile_workload(make_workload(), DURATION)
    fleet = VectorClusterSimulation(
        trace,
        policy="invalidate",
        num_nodes=4,
        staleness_bound=0.5,
        duration=DURATION,
        workload_name="conccheck",
        seed=23,
        concurrency=config,
    )
    assert not fleet.vector_eligible()
    assert fleet.run().as_dict() == run_fleet(config)


# --------------------------------------------------------------------- #
# Physics: stampedes, coalescing, stale serves, early refresh, latency
# --------------------------------------------------------------------- #

def stampede_row(policy: str) -> dict:
    return run_fleet(
        concurrency(policy),
        scenario=make_scenario("stampede", {"fraction": 0.8}),
    )


def test_stampede_single_flight_fetches_strictly_fewer_than_none() -> None:
    dogpiled = stampede_row("none")
    coalesced = stampede_row("single-flight")
    # The acceptance pin: same workload, same staleness bound, strictly
    # fewer backend fetches once duplicate misses coalesce.
    assert coalesced["backend_fetches"] < dogpiled["backend_fetches"]
    assert coalesced["coalesced_reads"] > 0
    assert dogpiled["coalesced_reads"] == 0


def test_every_read_records_exactly_one_latency_sample() -> None:
    for policy in STAMPEDE_POLICIES:
        result = fleet_result(
            concurrency(policy),
            scenario=make_scenario("stampede", {"fraction": 0.8}),
        )
        assert result.totals.latency_count == result.totals.reads, policy
        assert sum(result.totals.latency_buckets.values()) == result.totals.reads


def test_stale_serves_only_with_stale_serving_policies() -> None:
    rows = {policy: stampede_row(policy) for policy in STAMPEDE_POLICIES}
    assert rows["stale-while-revalidate"]["stale_serves"] > 0
    assert rows["dogpile-lock"]["stale_serves"] > 0
    for policy in ("none", "single-flight", "early-expiry"):
        assert rows[policy]["stale_serves"] == 0, policy
    # Serving stale hides the fetch wait: the tail must sit below the
    # dogpiled baseline.
    assert (
        rows["stale-while-revalidate"]["read_latency_p99"]
        < rows["none"]["read_latency_p99"]
    )


def test_early_expiry_refreshes_before_misses() -> None:
    rows = {policy: stampede_row(policy) for policy in ("single-flight", "early-expiry")}
    assert rows["early-expiry"]["early_refreshes"] > 0
    assert rows["single-flight"]["early_refreshes"] == 0


def test_saturation_squeeze_stretches_the_tail() -> None:
    config = concurrency("none", capacity=8)
    calm = run_fleet(config)
    squeezed = run_fleet(
        config,
        scenario=make_scenario("backend-saturation", {"capacity": 1}),
    )
    assert squeezed["read_latency_p999"] > calm["read_latency_p999"]


def test_backend_saturation_scenario_requires_the_model() -> None:
    with pytest.raises(ClusterError):
        run_fleet(config=None, scenario=make_scenario("backend-saturation", {}))


def test_results_report_latency_percentiles() -> None:
    row = stampede_row("none")
    assert row["read_latency_p50"] <= row["read_latency_p99"] <= row["read_latency_p999"]
    assert row["read_latency_p999"] > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_next_done_is_the_earliest_outstanding_completion(seed: int) -> None:
    """``next_done`` is a slot the coordinator keeps, not a look at its heap:
    after every issue, every completion a drain yields (drains are cut short
    at random) and every discard it equals the smallest ``done`` of the
    fetches still outstanding, ``inf`` when there are none."""
    rng = random.Random(seed)
    fetches = FetchCoordinator(
        concurrency("single-flight", mean=0.02, capacity=2), BackendServer(2), seed
    )
    outstanding = []

    def check() -> None:
        assert fetches.next_done == min(outstanding, default=math.inf)
        assert fetches.pending == len(outstanding)

    check()
    now = 0.0
    for _ in range(400):
        step = rng.random()
        if step < 0.5:
            now += rng.expovariate(50.0)
            fetch = fetches.issue(f"k{rng.randrange(5)}", now, 0, 1, 1)
            outstanding.append(fetch.done)
        elif step < 0.95:
            now += rng.uniform(0.0, 0.05)
            for fetch in itertools.islice(fetches.drain(now), rng.randrange(4)):
                assert fetch.done == min(outstanding) <= now
                outstanding.remove(fetch.done)
                check()
        else:
            fetches.discard_pending()
            outstanding.clear()
        check()


# --------------------------------------------------------------------- #
# Refusals
# --------------------------------------------------------------------- #

def test_parallel_replay_runs_concurrency_in_one_process() -> None:
    """The shared fetch queue couples every node, and every node is in the
    one process that replays the fleet: ``workers`` changes nothing."""
    trace = compile_workload(make_workload(), DURATION)
    expected = run_fleet(concurrency("single-flight"))
    assert expected["backend_fetches"] > 0
    for workers in (0, 1, 2, 8):
        row = replay_cluster_parallel(
            trace,
            workers=workers,
            policy="invalidate",
            num_nodes=4,
            staleness_bound=0.5,
            duration=DURATION,
            workload_name="conccheck",
            seed=23,
            concurrency=concurrency("single-flight"),
        ).as_dict()
        assert json.dumps(row, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_stop_at_and_restore_refuse_concurrency(tmp_path) -> None:
    def build():
        return ClusterSimulation(
            workload=make_workload().iter_requests(DURATION),
            policy="invalidate",
            num_nodes=2,
            staleness_bound=0.5,
            duration=DURATION,
            workload_name="conccheck",
            seed=23,
            store=StoreConfig(root=str(tmp_path / "store")),
            concurrency=concurrency(),
        )

    with pytest.raises(ClusterError, match="stop_at"):
        build().run(stop_at=2.0)
    with pytest.raises(ClusterError):
        build().restore_from_store()
