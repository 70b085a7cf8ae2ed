"""Differential/property harness: three engines, one answer, many configs.

A seeded generator draws randomized-but-valid configurations across the
workload x policy x fleet-size x tier x channel x scenario x concurrency
space, and every configuration is replayed on all three pipelines:

* the streamed scalar :class:`ClusterSimulation`,
* the columnar :class:`VectorClusterSimulation` (which falls back to the
  scalar loop for ineligible configs — the fallback is part of the contract),
* :func:`replay_cluster_parallel` with up to three ``workers`` (validated
  and ignored: the fleet replays in one process).

The assertion is **byte-identity**: the full result row — fleet totals and
every per-node row — serialized with ``json.dumps`` must match exactly.  On
failure the assert message carries the complete reproducer config, so one
paste rebuilds the failing cell.

The default run covers the first :data:`FAST_CONFIGS` draws to keep tier-1
fast; ``pytest --run-slow`` sweeps all :data:`TOTAL_CONFIGS`.

A second, separately seeded block draws **tight-bound** configurations —
the regime the paper argues for, where a run is hundreds of spans of a few
requests each: every config is inside the vector envelope, so all three
pipelines run the span kernels, across all five kernel policies and every
read-routing policy.

A third, separately seeded block draws **single-cache** configurations — one
node, no scenario, tier or chaos — and replays each on the one-node
:class:`ClusterSimulation`, on :class:`Simulation` and on
:class:`VectorSimulation`, the single cache seeded like node 0 of the fleet.
Both drivers run the same :class:`~repro.sim.node.CacheNode`; what this
block pins is that they *drive* it identically (the order deliveries, fetch
completions and flushes land in), including the concurrency x non-ideal
channel corner where two hand-kept copies once disagreed.

Draws come in pairs that share a workload: draw ``2k + 1`` of each block
replays the compiled trace *object* draw ``2k`` left behind, under another
policy, bound and fleet shape, with scalar fallbacks in between.  Whatever the
first replays memoised on the trace (its index, routing plans, span table)
is there for the later ones, so a fact that leaked one configuration's state
into the next would show as a diverging row.

Every columnar replay also says which path it took: ``fallback_reason`` is
``None`` exactly when the kernels ran and a row name of the envelope table
otherwise.  ``--run-slow`` prints the histogram of those answers over the
whole harness — the measured traffic quoted in "What runs where" of
docs/guides/performance.md.
"""

import json
import random
from collections import Counter
from functools import lru_cache
from typing import Any, Callable, Dict, Optional

import pytest

from repro.backend.channel import Channel
from repro.cluster import (
    ClusterSimulation,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
    replay_cluster_parallel,
)
from repro.concurrency.config import (
    SERVICE_TIME_DISTRIBUTIONS,
    STAMPEDE_POLICIES,
    ConcurrencyConfig,
)
from repro.cluster.cluster import _NODE_SEED_STRIDE
from repro.cluster.vector import FLEET_ENVELOPE
from repro.experiments.registry import make_policy
from repro.experiments.spec import ChannelSpec
from repro.resilience import ChaosSpec
from repro.sim import Simulation, VectorSimulation
from repro.tier.config import TierConfig
from repro.workload.compiled import CompiledTrace, compile_workload
from repro.workload.poisson import PoissonZipfWorkload

BASE_SEED = 0xD1FF
TOTAL_CONFIGS = 50
FAST_CONFIGS = 12

POLICIES = ("ttl-expiry", "invalidate", "update", "adaptive")
BOUNDS = (0.25, 0.5, 1.0, 2.0)
DURATION = 3.0

# The tight-bound block draws from its own stream, so adding to it never
# shifts a draw of the block above.
TIGHT_SEED = 0x71647
TIGHT_TOTAL = 10
TIGHT_FAST = 3
TIGHT_POLICIES = ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive")
TIGHT_BOUNDS = (0.01, 0.02, 0.05, 0.1)
READ_POLICIES = ("primary", "hash", "round-robin")

# The single-cache block, on its own stream for the same reason.  The seed
# is picked so that the tier-1 prefix holds a draw (index 4) on which the two
# hand-kept copies of the state machine disagreed before they became one;
# draws 14 and 18 of the full sweep are two more.
SINGLE_SEED = 0x51C0E0
SINGLE_TOTAL = 30
SINGLE_FAST = 6
SINGLE_BOUNDS = (0.05, 0.1, 0.25, 0.5, 1.0)
# Longer than DURATION: a delivery and a completion falling due in the same
# gap is a rare coincidence per flush, so the block buys itself more flushes.
SINGLE_DURATION = 12.0


#: Path each columnar replay of the harness took: ``"vector"`` or the name of
#: the envelope row that sent it to the scalar loop.
PATHS: "Counter[str]" = Counter()


def record_path(simulation) -> None:
    reason = simulation.fallback_reason
    assert (reason is None) == simulation.used_vector_path
    assert reason is None or reason in {row.name for row in FLEET_ENVELOPE}
    PATHS[reason or "vector"] += 1


@pytest.fixture(scope="module", autouse=True)
def path_histogram(request):
    """After a ``--run-slow`` sweep, print which path every config took."""
    yield
    if request.config.getoption("--run-slow"):
        capture = request.config.pluginmanager.get_plugin("capturemanager")
        with capture.global_and_fixture_disabled():
            print(f"\npath histogram, {sum(PATHS.values())} columnar replays:")
            for path, count in PATHS.most_common():
                print(f"  {path:<18}{count:>3}")


WORKLOAD_FIELDS = ("workload_keys", "workload_rate", "workload_seed")


def paired(draw: Callable[[int], Dict[str, Any]]) -> Callable[[int], Dict[str, Any]]:
    """Give every odd draw the workload of the even draw before it.

    Every other axis keeps its own draw (the workload fields are still taken
    from the stream), so the path histogram does not move; the even draws —
    the ones the single-cache seed was picked for — keep their workload too.
    """

    def draw_pair_member(index: int) -> Dict[str, Any]:
        config = draw(index)
        if index % 2:
            leader = draw(index - 1)
            config.update({field: leader[field] for field in WORKLOAD_FIELDS})
        return config

    draw_pair_member.__name__ = draw.__name__
    return draw_pair_member


@paired
def draw_config(index: int) -> Dict[str, Any]:
    """Deterministically draw the ``index``-th randomized configuration."""
    rng = random.Random(BASE_SEED + index)
    num_nodes = rng.randint(1, 6)
    config: Dict[str, Any] = {
        "index": index,
        "workload_keys": rng.randint(40, 80),
        "workload_rate": rng.choice((10.0, 15.0, 20.0)),
        "workload_seed": rng.randint(0, 2**16),
        "policy": rng.choice(POLICIES),
        "bound": rng.choice(BOUNDS),
        "num_nodes": num_nodes,
        "replication": rng.randint(1, min(2, num_nodes)),
        "seed": rng.randint(0, 2**16),
        "l1_capacity": rng.choice((0, 0, 32, 64)),
        "tier_mode": rng.choice(("write-through", "write-back")),
        "channel": None,
        "scenario": None,
        "zones": 1,
        "chaos": None,
        "concurrency": None,
    }
    if rng.random() < 0.3:
        config["channel"] = {
            "loss_probability": rng.choice((0.0, 0.05)),
            "delay": rng.choice((0.0, 0.05)),
            "jitter": rng.choice((0.0, 0.02)),
        }
    if rng.random() < 0.3:
        # node-failure/zone-outage/flapping churn ring membership, so they
        # need survivors.
        choices = (
            ("node-failure", "stampede", "flapping", "zone-outage")
            if num_nodes >= 2
            else ("stampede",)
        )
        config["scenario"] = rng.choice(choices)
        if config["scenario"] == "zone-outage":
            config["zones"] = 2
    if rng.random() < 0.25:
        # Fault plans draw from their own seeded stream; slow-node is left
        # out so chaos cells stay valid without the fetch model.
        config["chaos"] = {
            "seed": rng.randint(0, 2**16),
            "faults": rng.randint(2, 5),
            "kinds": ("delay", "drop", "crash"),
            "window": rng.choice((0.1, 0.3)),
            "loss": rng.choice((0.3, 0.6)),
        }
    if rng.random() < 0.4:
        config["concurrency"] = {
            "service_time": rng.choice(SERVICE_TIME_DISTRIBUTIONS),
            "mean": rng.choice((0.02, 0.05, 0.1)),
            "capacity": rng.randint(1, 6),
            "policy": rng.choice(STAMPEDE_POLICIES),
            "seed": rng.randint(0, 2**16),
        }
    return config


@paired
def draw_tight_config(index: int) -> Dict[str, Any]:
    """The ``index``-th tight-bound configuration: steady state, ideal
    channels, no tier — inside the vector envelope by construction."""
    rng = random.Random(TIGHT_SEED + index)
    num_nodes = rng.randint(1, 4)
    return {
        "index": index,
        "workload_keys": rng.randint(40, 80),
        "workload_rate": rng.choice((10.0, 15.0, 20.0)),
        "workload_seed": rng.randint(0, 2**16),
        # Cycle, so that ten draws cover every policy and every bound twice
        # over whatever the stream says.
        "policy": TIGHT_POLICIES[index % len(TIGHT_POLICIES)],
        "bound": TIGHT_BOUNDS[(index // 2) % len(TIGHT_BOUNDS)],
        "num_nodes": num_nodes,
        "replication": rng.randint(1, min(2, num_nodes)),
        "read_policy": READ_POLICIES[index % len(READ_POLICIES)],
        "seed": rng.randint(0, 2**16),
        "l1_capacity": 0,
        "tier_mode": "write-through",
        "channel": None,
        "scenario": None,
        "zones": 1,
        "chaos": None,
        "concurrency": None,
    }


@paired
def draw_single_config(index: int) -> Dict[str, Any]:
    """The ``index``-th single-cache configuration: one node, steady state,
    no tier or chaos; capacity, tracker, channel and concurrency drawn."""
    rng = random.Random(SINGLE_SEED + index)
    config: Dict[str, Any] = {
        "index": index,
        "workload_keys": rng.randint(40, 80),
        "workload_rate": rng.choice((10.0, 15.0, 20.0)),
        "workload_seed": rng.randint(0, 2**16),
        # Cycle, so a handful of draws already covers every policy.
        "policy": TIGHT_POLICIES[index % len(TIGHT_POLICIES)],
        # Down to tight bounds: every flush is a batch of messages, and the
        # more of them are in flight the more often a delivery and a fetch
        # completion fall due between the same two requests.
        "bound": rng.choice(SINGLE_BOUNDS),
        "seed": rng.randint(0, 2**16),
        "cache_capacity": rng.choice((None, 10, 20, 40)),
        "tracker_capacity": rng.choice((None, None, 8)),
        "channel": None,
        "concurrency": None,
    }
    if rng.random() < 0.6:
        config["channel"] = {
            "loss_probability": rng.choice((0.0, 0.05, 0.1)),
            "delay": rng.choice((0.02, 0.05, 0.1)),
            "jitter": rng.choice((0.0, 0.02)),
        }
    if rng.random() < 0.6:
        config["concurrency"] = {
            "service_time": rng.choice(SERVICE_TIME_DISTRIBUTIONS),
            "mean": rng.choice((0.02, 0.05, 0.1)),
            "capacity": rng.randint(1, 4),
            "policy": rng.choice(STAMPEDE_POLICIES),
        }
    return config


def build_kwargs(config: Dict[str, Any]) -> Dict[str, Any]:
    """Shared engine kwargs for one drawn configuration."""
    return dict(
        policy=config["policy"],
        num_nodes=config["num_nodes"],
        replication=ReplicationConfig(
            factor=config["replication"], read_policy=config.get("read_policy", "primary")
        ),
        staleness_bound=config["bound"],
        duration=DURATION,
        workload_name="diffcheck",
        seed=config["seed"],
        tier=TierConfig(l1_capacity=config["l1_capacity"], mode=config["tier_mode"]),
        channel=ChannelSpec(**config["channel"]) if config["channel"] else None,
        scenario=make_scenario(config["scenario"], {}) if config["scenario"] else None,
        zones=config["zones"],
        chaos=ChaosSpec(**config["chaos"]) if config["chaos"] else None,
        concurrency=(
            ConcurrencyConfig(**config["concurrency"])
            if config["concurrency"]
            else None
        ),
    )


def make_workload(config: Dict[str, Any]) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(
        num_keys=config["workload_keys"],
        rate_per_key=config["workload_rate"],
        seed=config["workload_seed"],
    )


@lru_cache(maxsize=2)
def _compiled(keys: int, rate: float, seed: int, duration: float) -> CompiledTrace:
    return compile_workload(PoissonZipfWorkload(num_keys=keys, rate_per_key=rate, seed=seed), duration)


def compiled_trace(config: Dict[str, Any], duration: float) -> CompiledTrace:
    """The config's compiled trace: one object per ``(workload, seed,
    duration)``, so the second draw of a pair replays the first one's."""
    return _compiled(*(config[field] for field in WORKLOAD_FIELDS), duration)


def run_engines(config: Dict[str, Any], expect_vector_path: bool = False) -> Dict[str, str]:
    """Replay one config on every pipeline; rows as canonical JSON."""
    scalar = ClusterSimulation(
        workload=make_workload(config).iter_requests(DURATION), **build_kwargs(config)
    ).run()
    trace = compiled_trace(config, DURATION)
    simulation = VectorClusterSimulation(trace, **build_kwargs(config))
    vector = simulation.run()
    record_path(simulation)
    if expect_vector_path:
        assert simulation.used_vector_path, config
    workers = min(3, config["num_nodes"])
    parallel = replay_cluster_parallel(trace, workers=workers, **build_kwargs(config))
    return {
        "scalar": json.dumps(scalar.as_dict(), sort_keys=True),
        "vector": json.dumps(vector.as_dict(), sort_keys=True),
        f"parallel[workers={workers}]": json.dumps(parallel.as_dict(), sort_keys=True),
    }


def run_single_cache_engines(config: Dict[str, Any]) -> Dict[str, str]:
    """Replay one single-cache config on the one-node fleet and on both
    single-cache engines; flat rows as canonical JSON."""
    shared = dict(
        staleness_bound=config["bound"],
        duration=SINGLE_DURATION,
        workload_name="diffcheck",
        cache_capacity=config["cache_capacity"],
        tracker_capacity=config["tracker_capacity"],
    )
    fleet = ClusterSimulation(
        workload=make_workload(config).iter_requests(SINGLE_DURATION),
        policy=config["policy"],
        num_nodes=1,
        seed=config["seed"],
        channel=ChannelSpec(**config["channel"]) if config["channel"] else None,
        concurrency=(
            ConcurrencyConfig(**config["concurrency"]) if config["concurrency"] else None
        ),
        **shared,
    ).run()
    # Node 0 of a fleet draws its channel and its fetch stream from this seed.
    node_seed = (config["seed"] + _NODE_SEED_STRIDE) % 2**32

    def single_kwargs() -> Dict[str, Any]:
        return dict(
            policy=make_policy(config["policy"]),
            channel=Channel(seed=node_seed, **config["channel"]) if config["channel"] else None,
            concurrency=(
                ConcurrencyConfig(seed=node_seed, **config["concurrency"])
                if config["concurrency"]
                else None
            ),
            **shared,
        )

    scalar = Simulation(make_workload(config).iter_requests(SINGLE_DURATION), **single_kwargs()).run()
    trace = compiled_trace(config, SINGLE_DURATION)
    simulation = VectorSimulation(trace, **single_kwargs())
    vector = simulation.run()
    record_path(simulation)
    return {
        "cluster[num_nodes=1].totals": json.dumps(fleet.totals.as_dict(), sort_keys=True),
        "Simulation": json.dumps(scalar.as_dict(), sort_keys=True),
        "VectorSimulation": json.dumps(vector.as_dict(), sort_keys=True),
    }


def assert_single_cache_identical(index: int) -> None:
    config = draw_single_config(index)
    rows = run_single_cache_engines(config)
    reference_name, reference = next(iter(rows.items()))
    for name, row in rows.items():
        assert row == reference, (
            f"{name} diverged from {reference_name}.\n"
            f"Reproducer (draw_single_config({index})):\n"
            f"{json.dumps(config, indent=2, sort_keys=True)}"
        )


def assert_engines_identical(index: int, tight: bool = False) -> None:
    draw = draw_tight_config if tight else draw_config
    config = draw(index)
    rows = run_engines(config, expect_vector_path=tight)
    reference_name, reference = next(iter(rows.items()))
    for name, row in rows.items():
        assert row == reference, (
            f"{name} diverged from {reference_name}.\n"
            f"Reproducer ({draw.__name__}({index})):\n"
            f"{json.dumps(config, indent=2, sort_keys=True)}"
        )


def test_generator_is_deterministic_and_covers_the_space() -> None:
    configs = [draw_config(index) for index in range(TOTAL_CONFIGS)]
    assert configs == [draw_config(index) for index in range(TOTAL_CONFIGS)]
    assert len(configs) == TOTAL_CONFIGS
    # The draw must actually exercise every axis across the sweep.
    assert {config["policy"] for config in configs} == set(POLICIES)
    assert any(config["concurrency"] for config in configs)
    assert any(config["concurrency"] is None for config in configs)
    assert any(config["scenario"] for config in configs)
    # The resilience scenarios and chaos plans are differential axes too.
    drawn_scenarios = {config["scenario"] for config in configs}
    assert {"node-failure", "stampede", "flapping", "zone-outage"} <= drawn_scenarios
    assert any(config["chaos"] for config in configs)
    assert any(config["chaos"] is None for config in configs)
    assert any(config["channel"] for config in configs)
    assert any(config["l1_capacity"] for config in configs)
    assert any(config["num_nodes"] == 1 for config in configs)


def test_paired_draws_replay_one_trace_object() -> None:
    for draw, total, duration in (
        (draw_config, TOTAL_CONFIGS, DURATION),
        (draw_tight_config, TIGHT_TOTAL, DURATION),
        (draw_single_config, SINGLE_TOTAL, SINGLE_DURATION),
    ):
        for index in range(0, total - 1, 2):
            first, second = draw(index), draw(index + 1)
            assert compiled_trace(first, duration) is compiled_trace(second, duration)
            # Same stream, another configuration of it.
            assert {k: v for k, v in first.items() if k not in WORKLOAD_FIELDS} != {
                k: v for k, v in second.items() if k not in WORKLOAD_FIELDS
            }
    # What the first draw of a pair memoised on the trace, the second meets.
    first, second = draw_tight_config(2), draw_tight_config(3)
    trace = compiled_trace(first, DURATION)
    VectorClusterSimulation(trace, **build_kwargs(first)).run()
    index = trace.index()
    assert index.table and len(index.plans) == 1
    VectorClusterSimulation(trace, **build_kwargs(second)).run()
    assert trace.index() is index and len(index.plans) == 2


@pytest.mark.parametrize("index", range(FAST_CONFIGS))
def test_differential_fast(index: int) -> None:
    assert_engines_identical(index)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(FAST_CONFIGS, TOTAL_CONFIGS))
def test_differential_full_sweep(index: int) -> None:
    assert_engines_identical(index)


def test_tight_generator_is_deterministic_and_covers_its_space() -> None:
    configs = [draw_tight_config(index) for index in range(TIGHT_TOTAL)]
    assert configs == [draw_tight_config(index) for index in range(TIGHT_TOTAL)]
    assert {config["policy"] for config in configs} == set(TIGHT_POLICIES)
    assert {config["bound"] for config in configs} == set(TIGHT_BOUNDS)
    assert {config["read_policy"] for config in configs} == set(READ_POLICIES)
    assert {config["replication"] for config in configs} == {1, 2}
    # Rotating reads only rotate with a second replica to rotate over.
    assert {"hash", "round-robin"} <= {
        config["read_policy"] for config in configs if config["replication"] == 2
    }
    fast = configs[:TIGHT_FAST]
    assert {"invalidate", "ttl-polling"} <= {config["policy"] for config in fast}


@pytest.mark.parametrize("index", range(TIGHT_FAST))
def test_differential_tight_bound_fast(index: int) -> None:
    assert_engines_identical(index, tight=True)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(TIGHT_FAST, TIGHT_TOTAL))
def test_differential_tight_bound_full_sweep(index: int) -> None:
    assert_engines_identical(index, tight=True)


def _non_ideal(config: Dict[str, Any]) -> bool:
    return config["channel"] is not None


def test_single_generator_is_deterministic_and_covers_its_space() -> None:
    configs = [draw_single_config(index) for index in range(SINGLE_TOTAL)]
    assert configs == [draw_single_config(index) for index in range(SINGLE_TOTAL)]
    assert {config["policy"] for config in configs} == set(TIGHT_POLICIES)
    # The corner the two hand-kept copies disagreed in must be drawn, in the
    # tier-1 prefix too — under a write-reactive policy, where it bites.
    for block in (configs, configs[:SINGLE_FAST]):
        assert any(
            config["concurrency"] and _non_ideal(config)
            and config["policy"] in ("invalidate", "update", "adaptive")
            for config in block
        )
    assert any(config["concurrency"] and not _non_ideal(config) for config in configs)
    assert any(_non_ideal(config) and not config["concurrency"] for config in configs)
    assert any(not _non_ideal(config) and not config["concurrency"] for config in configs)
    assert any(config["cache_capacity"] for config in configs)
    assert any(config["tracker_capacity"] for config in configs)
    assert any(
        config["channel"] and config["channel"]["loss_probability"] > 0 for config in configs
    )
    assert any(config["channel"] and config["channel"]["jitter"] > 0 for config in configs)
    assert any(config["policy"] == "ttl-polling" and config["concurrency"] for config in configs)
    assert {config["concurrency"]["policy"] for config in configs if config["concurrency"]} == set(
        STAMPEDE_POLICIES
    )


@pytest.mark.parametrize("index", range(SINGLE_FAST))
def test_differential_single_cache_fast(index: int) -> None:
    assert_single_cache_identical(index)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(SINGLE_FAST, SINGLE_TOTAL))
def test_differential_single_cache_full_sweep(index: int) -> None:
    assert_single_cache_identical(index)
