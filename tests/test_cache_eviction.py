"""Eviction and capacity behaviour of the cache layer."""

import pytest

from repro.cache.cache import Cache
from repro.cluster import ClusterSimulation
from repro.core.ttl import TTLExpiryPolicy
from repro.errors import ConfigurationError
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload


def fill(cache: Cache, key: str, time: float) -> None:
    cache.fill(key, version=1, time=time)


def test_capacity_is_enforced_with_lru_victim() -> None:
    cache = Cache(capacity=2)
    fill(cache, "a", 0.0)
    fill(cache, "b", 1.0)
    cache.lookup("a", 2.0)  # refresh recency of "a"
    fill(cache, "c", 3.0)
    assert len(cache) == 2
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.stats.evictions == 1


def test_eviction_callback_fires_with_evicted_entry() -> None:
    evicted = []
    cache = Cache(capacity=1, on_evict=lambda entry, time: evicted.append((entry.key, time)))
    fill(cache, "a", 0.0)
    fill(cache, "b", 5.0)
    assert evicted == [("a", 5.0)]


def test_invalid_capacity_rejected() -> None:
    with pytest.raises(ConfigurationError):
        Cache(capacity=0)


def test_capacity_bounded_simulation_evicts_and_completes() -> None:
    workload = PoissonZipfWorkload(num_keys=100, rate_per_key=5.0, seed=9)
    result = Simulation(
        workload=workload.iter_requests(5.0),
        policy=TTLExpiryPolicy(),
        staleness_bound=1.0,
        cache_capacity=10,
    ).run()
    assert result.cache_stats["evictions"] > 0
    # Evicted keys re-enter as cold misses, never as stale misses.
    assert result.cold_misses > 10
    assert result.total_requests > 0


# --------------------------------------------------------------------- #
# LRU against a stack-distance oracle
# --------------------------------------------------------------------- #
POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive", "adaptive+cs"]
DURATION = 4.0


def absent_reads(keys, capacity: int) -> int:
    """How many reads of ``keys`` find their key absent from an LRU cache of
    ``capacity`` objects, by brute force: a read misses iff it is the key's
    first, or at least ``capacity`` distinct other keys were read since the
    key's last read (Mattson's stack distance)."""
    last_read = {}
    absent = 0
    for position, key in enumerate(keys):
        previous = last_read.get(key)
        if previous is None or len(set(keys[previous + 1 : position]) - {key}) >= capacity:
            absent += 1
        last_read[key] = position
    return absent


@pytest.fixture(scope="module")
def trace():
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=4.0, read_ratio=0.7, seed=21)
    return compile_workload(workload, DURATION)


@pytest.fixture(scope="module")
def read_keys(trace):
    return [request.key for request in trace if request.is_read]


def run_engine(engine: str, trace, policy: str, capacity: int, bound: float):
    if engine == "fleet":
        return ClusterSimulation(
            trace,
            policy=policy,
            num_nodes=1,
            staleness_bound=bound,
            duration=DURATION,
            cache_capacity=capacity,
        ).run().totals
    driver = VectorSimulation if engine == "vector" else Simulation
    return driver(
        trace,
        policy=make_policy(policy),
        staleness_bound=bound,
        duration=DURATION,
        cache_capacity=capacity,
    ).run()


@pytest.mark.parametrize("bound", [0.05, 0.5])
@pytest.mark.parametrize("capacity", [1, 10, 40])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ["scalar", "vector", "fleet"])
def test_a_bounded_cache_misses_exactly_the_reads_lru_stack_distance_predicts(
    trace, read_keys, engine, policy, capacity, bound
) -> None:
    """Which reads find their key evicted depends on the read-key sequence
    alone — not on the policy, the bound or the engine — and every cold miss
    past the first ``capacity`` distinct keys evicted one key."""
    stats = run_engine(engine, trace, policy, capacity, bound).cache_stats
    expected = absent_reads(read_keys, capacity)
    assert stats["cold_misses"] == expected
    assert stats["evictions"] == expected - min(capacity, len(set(read_keys)))
