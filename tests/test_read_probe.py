"""The scalar read path: one probe per read, and no recency without a capacity.

``CacheNode.handle_read`` looks its key up in each tier at most once; that
entry is the one whose TTL state settles and the one the read is classified
on.  These
tests pin the shape of that path — how many Python frames a hit costs, which
callables observe a read — and that an unbounded cache never calls its
eviction policy on any engine, so none of them can depend on an order
nothing reads.
"""

import json
import sys
from typing import Callable, Optional

import pytest

from repro.backend.datastore import DataStore
from repro.cache.cache import Cache
from repro.cache.eviction import EvictionPolicy
from repro.cluster import ClusterSimulation, ReplicationConfig, VectorClusterSimulation
from repro.cluster.results import NodeResult
from repro.concurrency.config import ConcurrencyConfig
from repro.core.adaptive import AdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.write_reactive import AlwaysInvalidatePolicy
from repro.experiments.registry import make_policy
from repro.sim.node import CacheNode
from repro.sim.results import SimulationResult
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.tier.config import TierConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive", "adaptive+cs"]
DURATION = 4.0


class RaisingEviction(EvictionPolicy):
    """An eviction policy no call may reach."""

    name = "raising"

    def _called(self, *args: object) -> None:
        raise AssertionError("an unbounded cache called its eviction policy")

    on_insert = on_access = on_remove = choose_victim = recency_order = _called

    def __len__(self) -> int:
        raise AssertionError("an unbounded cache called its eviction policy")


@pytest.fixture(scope="module")
def trace():
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, read_ratio=0.8, seed=5)
    return compile_workload(workload, DURATION)


def row(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "engine, policy",
    [(engine, policy) for engine in ("scalar", "vector", "concurrent") for policy in POLICIES]
    + [("scalar", "optimal")],
)
def test_an_unbounded_single_cache_never_calls_its_eviction_policy(trace, engine, policy):
    def replay(eviction: Optional[EvictionPolicy]):
        driver = VectorSimulation if engine == "vector" else Simulation
        return driver(
            trace,
            policy=make_policy(policy),
            staleness_bound=0.5,
            duration=DURATION,
            eviction=eviction,
            concurrency=(
                ConcurrencyConfig(mean=0.02, capacity=2, policy="early-expiry")
                if engine == "concurrent"
                else None
            ),
        ).run()

    assert row(replay(RaisingEviction())) == row(replay(None))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("tier", [None, "write-through", "write-back"])
def test_an_unbounded_fleet_never_calls_its_eviction_policy(trace, policy, tier):
    def replay(eviction_factory: Optional[Callable[[], EvictionPolicy]]):
        return ClusterSimulation(
            trace,
            policy=policy,
            num_nodes=3,
            staleness_bound=0.5,
            duration=DURATION,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            eviction_factory=eviction_factory,
            tier=TierConfig(l1_capacity=4, mode=tier) if tier is not None else None,
        ).run()

    assert row(replay(RaisingEviction)) == row(replay(None))


@pytest.mark.parametrize("policy", POLICIES)
def test_an_unbounded_vector_fleet_never_calls_its_eviction_policy(trace, policy):
    simulation = VectorClusterSimulation(
        trace,
        policy=policy,
        num_nodes=3,
        staleness_bound=0.5,
        duration=DURATION,
        eviction_factory=RaisingEviction,
    )
    result = simulation.run()
    assert simulation.used_vector_path
    reference = ClusterSimulation(
        trace, policy=policy, num_nodes=3, staleness_bound=0.5, duration=DURATION
    ).run()
    assert row(result) == row(reference)


def test_only_a_bounded_cache_keeps_an_eviction_order() -> None:
    unbounded, bounded = Cache(), Cache(capacity=4)
    assert unbounded.recency is None
    assert bounded.recency is bounded.eviction
    for cache in (unbounded, bounded):
        for key in "abc":
            cache.fill(key, version=1, time=0.0)
        cache.lookup("a", 1.0)
    assert unbounded.eviction.recency_order() == []
    assert bounded.eviction.recency_order() == ["b", "c", "a"]
    bounded.reorder(["c", "a", "b"])
    assert bounded.eviction.recency_order() == ["c", "a", "b"]
    bounded.clear()
    assert len(bounded.eviction) == 0 and len(bounded) == 0


# --------------------------------------------------------------------- #
# Python frames per L2 hit
# --------------------------------------------------------------------- #
def frames_below_a_hit(policy_name: str, tier: Optional[TierConfig] = None) -> int:
    """Python calls made below one ``handle_read`` that is an L2 hit — or,
    with a ``tier`` that admits every fill, an L1 hit.

    The key is fetched at 0.1 s and read again at 0.2 s under a 1 s bound:
    no TTL has run out and no poll is due.
    """
    datastore = DataStore()
    result = NodeResult()
    node = CacheNode(
        "cache", make_policy(policy_name), 1.0, CostModel(), datastore, result, tier=tier
    )
    node.handle_read(0.1, "k", 16, 128)
    hits, l1_hits = result.hits, result.l1_hits
    handle_read = CacheNode.handle_read.__code__
    calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code is not handle_read:
            calls += 1

    sys.setprofile(profile)
    try:
        node.handle_read(0.2, "k", 16, 128)
    finally:
        sys.setprofile(None)
    assert result.hits == hits + 1, "the probed read was not a hit"
    assert result.l1_hits == l1_hits + (tier is not None), "the probed read missed the L1"
    return calls


FRAMES_BELOW_A_HIT = [
    ("invalidate", 0),
    ("update", 0),
    ("ttl-expiry", 0),
    ("ttl-polling", 1),  # the shared poll arithmetic, with nothing to charge
    ("adaptive", 1),  # the estimator's fold (its counter probe is inline)
]


@pytest.mark.parametrize("policy, most", FRAMES_BELOW_A_HIT)
def test_an_l2_hit_costs_at_most_this_many_python_frames(policy: str, most: int) -> None:
    assert frames_below_a_hit(policy) <= most


@pytest.mark.parametrize("policy, most", FRAMES_BELOW_A_HIT)
@pytest.mark.parametrize("mode", ["write-through", "write-back"])
def test_an_l1_hit_costs_no_more_python_frames_than_an_l2_hit(
    policy: str, most: int, mode: str
) -> None:
    """The L1 is probed, settled, classified and touched inline: an L1 hit
    adds no frame to what an L2 hit of the same policy costs.  The one
    exception is a write-back copy the L2 has not seen yet under polling: it
    polls itself, through ``account_polls``."""
    tier = TierConfig(l1_capacity=4, mode=mode, admission="always")
    polls_itself = mode == "write-back" and policy == "ttl-polling"
    assert frames_below_a_hit(policy, tier) <= most + polls_itself


# --------------------------------------------------------------------- #
# Who observes a request
# --------------------------------------------------------------------- #
def test_a_stock_adaptive_policy_is_observed_through_its_estimator() -> None:
    policy = AdaptivePolicy()
    node = CacheNode("cache", policy, 1.0, CostModel(), DataStore(), SimulationResult())
    assert node._read_observers == (policy.estimator.observe_read,)
    assert node._write_observers == (policy.estimator.observe_write,)
    assert node._timed_read is None and node._timed_write is None
    plain = CacheNode(
        "cache", AlwaysInvalidatePolicy(), 1.0, CostModel(), DataStore(), SimulationResult()
    )
    assert plain._read_observers == () and plain._timed_read is None


def test_a_policy_with_its_own_hooks_still_sees_every_request_with_its_time() -> None:
    seen = []

    class Watching(AlwaysInvalidatePolicy):
        def observe_read(self, key: str, time: float) -> None:
            seen.append(("read", key, time))

        def observe_write(self, key: str, time: float) -> None:
            seen.append(("write", key, time))

    class Counting(AdaptivePolicy):
        def observe_read(self, key: str, time: float) -> None:
            seen.append(("adaptive-read", key, time))
            super().observe_read(key, time)

    datastore = DataStore()
    node = CacheNode("cache", Watching(), 1.0, CostModel(), datastore, SimulationResult())
    node.handle_read(0.25, "a", 16, 128)
    datastore.write("a", 0.5, 128)
    node.observe_write(0.5, "a", 16, 128, True)
    assert seen == [("read", "a", 0.25), ("write", "a", 0.5)]

    seen.clear()
    policy = Counting()
    node = CacheNode("cache", policy, 1.0, CostModel(), DataStore(), SimulationResult())
    node.handle_read(0.75, "b", 16, 128)
    assert seen == [("adaptive-read", "b", 0.75)]
    assert policy.estimator.tracked_keys() == 1
