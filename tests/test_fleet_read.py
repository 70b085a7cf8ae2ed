"""The fleet read path against the naive path it replaced.

``ClusterSimulation`` resolves its read policy once per run
(:meth:`ReplicaRouter.bind`) and ``CacheNode.handle_read`` probes the L1 once
per read.  The reference kept here is the path before that: one
``choose_read_node`` call per routed read, and an L1 whose TTL state is
settled after a peek and which then serves through ``Cache.lookup``.  Rows,
both tiers' ``CacheStats``, per-entry hits, the LRU orders and the router's
counters must agree on every cell.
"""

import json
from typing import Optional

import pytest

from repro.cache.entry import EntryState
from repro.cluster import ClusterSimulation, ReplicaRouter, ReplicationConfig, make_scenario
from repro.core.ttl import account_entry_polls
from repro.errors import ClusterError
from repro.obs import ObsConfig
from repro.sim.node import CacheNode
from repro.sketch.hashing import stable_fingerprint
from repro.tier.config import TierConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

_VALID, _EXPIRED = EntryState.VALID, EntryState.EXPIRED

POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]
READ_POLICIES = ["primary", "round-robin", "hash"]
TIERS = [None, "write-through", "write-back"]
SCENARIOS = [None, "node-failure", "l2-outage"]
DURATION = 6.0


# --------------------------------------------------------------------- #
# The naive reference: a router call and two L1 lookups per read
# --------------------------------------------------------------------- #
def naive_choose(router: ReplicaRouter, key: str, replicas) -> str:
    """``ReplicaRouter.choose_read_node`` as it was: the policy asked per read."""
    if not replicas:
        raise ClusterError(f"no replica available for key {key!r}")
    policy = router.config.read_policy
    if len(replicas) == 1 or policy == "primary":
        return replicas[0]
    if policy == "hash":
        return replicas[stable_fingerprint(key + "#read") % len(replicas)]
    sequence = router._round_robin.get(key, 0)
    router._round_robin[key] = sequence + 1
    return replicas[sequence % len(replicas)]


class NaiveRouter(ReplicaRouter):
    def bind(self, routes, route, factor, serve):
        def read(time, key, key_size, value_size):
            replicas = routes.get(key)
            if replicas is None:
                replicas = route(key, factor)
            serve[naive_choose(self, key, replicas)](time, key, key_size, value_size)

        return read


def naive_settle(l1, key, now, policy, l2_entry, account_polls) -> None:
    entry = l1.cache.peek(key)
    if entry is None:
        return
    if policy.ttl_mode == "expiry":
        if entry.is_valid and policy.is_expired(entry.fetched_at, now):
            l1.cache.expire(key)
    elif policy.ttl_mode == "polling":
        if l2_entry is not None:
            entry.as_of = max(entry.as_of, l2_entry.as_of)
            entry.version = max(entry.version, l2_entry.version)
            entry.last_poll_accounted = max(
                entry.last_poll_accounted, l2_entry.last_poll_accounted
            )
        else:
            account_polls(entry, now)


def naive_serve(l1, time, key, key_size, datastore, bound, degraded=False) -> bool:
    entry, outcome = l1.cache.lookup(key, time)
    if outcome == "cold_miss" or (outcome != "hit" and not degraded):
        return False
    result = l1.result
    result.hits += 1
    result.l1_hits += 1
    if degraded:
        result.l1_served_degraded += 1
    result.tier_cost += l1.costs.l1_hit_cost(key_size)
    if time - bound > entry.as_of and not datastore.is_fresh(key, entry.as_of, time, bound):
        result.staleness_violations += 1
    return True


class NaiveNode(CacheNode):
    def handle_read(self, time, key, key_size, value_size):
        result, datastore, l1 = self.result, self.datastore, self.l1
        result.reads += 1
        if self._timed_read is not None:
            self._timed_read(key, time)
        for observe in self._read_observers:
            observe(key)
        result.useful_work += self.costs.serve_cost(key_size, datastore.value_size(key))
        bound = self.staleness_bound
        if l1 is not None and l1.outage:
            if not naive_serve(l1, time, key, key_size, datastore, bound, degraded=True):
                result.failed_fetches += 1
                result.cold_misses += 1
            return
        entry = self.cache.peek(key)
        if entry is not None and self._ttl_expiry:
            if entry.is_valid and self.policy.is_expired(entry.fetched_at, time):
                self.cache.expire(key)
        elif entry is not None and self._poll_ttl is not None:
            self.account_polls(entry, time)
        if l1 is not None:
            if self._settles_ttl:
                naive_settle(l1, key, time, self.policy, entry, self.account_polls)
            if naive_serve(l1, time, key, key_size, datastore, bound):
                return
        entry, outcome = self.cache.lookup(key, time)
        if outcome == "hit":
            result.hits += 1
            if time - bound > entry.as_of and not datastore.is_fresh(
                key, entry.as_of, time, bound
            ):
                result.staleness_violations += 1
            if l1 is not None:
                l1.offer(entry, time, self._ttl_headroom(entry, time), promotion=True)
            return
        if not self.reachable:
            result.failed_fetches += 1
            if entry is not None:
                result.stale_misses += 1
            else:
                result.cold_misses += 1
            return
        self._miss(time, key, key_size, entry)


class NaiveCluster(ClusterSimulation):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.router = NaiveRouter(self.replication)

    def _node(self, fetch_seed, **config):
        config.update(
            staleness_bound=self.staleness_bound,
            costs=self.costs,
            datastore=self.datastore,
            pending_registry=self._pending,
        )
        return NaiveNode(**config)


# --------------------------------------------------------------------- #
# Cells
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trace():
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, read_ratio=0.8, seed=5)
    return compile_workload(workload, DURATION)


def fleet_state(simulation) -> str:
    """Everything a read moves: the row, each tier's counters, entries and
    LRU order per node, and the router's counters."""
    nodes = []
    for node in simulation.nodes():
        tiers = [node.cache] + ([node.l1.cache] if node.l1 is not None else [])
        nodes.append(
            [
                [
                    cache.stats.as_dict(),
                    [
                        [e.key, e.hits, e.state.value, e.version, e.as_of, e.last_poll_accounted]
                        for e in cache.entries()
                    ],
                    list(cache.recency),
                ]
                for cache in tiers
            ]
        )
    return json.dumps({"nodes": nodes, "router": simulation.router._round_robin}, sort_keys=True)


def replay(driver, trace, policy, read_policy, tier, scenario, num_nodes=3, **kwargs):
    simulation = driver(
        trace,
        policy=policy,
        num_nodes=num_nodes,
        staleness_bound=0.5,
        duration=DURATION,
        replication=ReplicationConfig(factor=2, read_policy=read_policy),
        cache_capacity=16,
        tier=TierConfig(l1_capacity=4, mode=tier) if tier is not None else None,
        scenario=make_scenario(scenario) if scenario is not None else None,
        seed=3,
        **kwargs,
    )
    result = simulation.run()
    return json.dumps(result.as_dict(), sort_keys=True), fleet_state(simulation)


CELLS = [
    (policy, read_policy, tier, scenario)
    for policy in POLICIES
    for read_policy in READ_POLICIES
    for tier in TIERS
    for scenario in SCENARIOS
    # An L2 outage is served from the L1: it needs a tier.
    if not (scenario == "l2-outage" and tier is None)
]


@pytest.mark.parametrize("policy, read_policy, tier, scenario", CELLS)
def test_the_bound_read_path_moves_what_the_naive_one_does(
    trace, policy: str, read_policy: str, tier: Optional[str], scenario: Optional[str]
) -> None:
    fast = replay(ClusterSimulation, trace, policy, read_policy, tier, scenario)
    naive = replay(NaiveCluster, trace, policy, read_policy, tier, scenario)
    assert fast == naive


@pytest.mark.parametrize("policy", POLICIES)
def test_a_fleet_left_with_one_replica_per_key_reads_like_the_naive_one(trace, policy) -> None:
    """Two nodes at factor 2, one of them detected failed: from then on every
    key has one replica, which serves without advancing its counter."""
    cell = (trace, policy, "round-robin", "write-through", "node-failure")
    fast = replay(ClusterSimulation, *cell, num_nodes=2)
    assert fast == replay(NaiveCluster, *cell, num_nodes=2)


def test_the_recorder_and_the_key_transform_wrap_the_same_bound_read(trace) -> None:
    """A flash crowd rewrites keys through ``transform_request`` around the
    bound read; a recorder wraps it too, and observes without moving a thing."""
    cell = (trace, "adaptive", "round-robin", "write-through", "flash-crowd")
    fast = replay(ClusterSimulation, *cell)
    assert fast == replay(NaiveCluster, *cell)
    observed = replay(ClusterSimulation, *cell, obs=ObsConfig(window=1.0))
    assert observed[1] == fast[1]


# --------------------------------------------------------------------- #
# The router: one policy, bound or asked one read at a time
# --------------------------------------------------------------------- #
def test_a_single_replica_serves_without_advancing_its_round_robin_counter() -> None:
    router = ReplicaRouter(ReplicationConfig(factor=2, read_policy="round-robin"))
    assert router.choose_read_node("k", ["a"]) == "a"
    assert router._round_robin == {}
    assert [router.choose_read_node("k", ["a", "b"]) for _ in range(3)] == ["a", "b", "a"]
    served = []
    read = router.bind(
        {"k": ("a", "b"), "solo": ("b",)},
        None,
        2,
        {name: lambda *request, name=name: served.append(name) for name in "ab"},
    )
    for key in ["solo", "k", "solo", "k"]:
        read(0.0, key, 16, 128)
    # The bound callable and choose_read_node share the live counters.
    assert served == ["b", "b", "b", "a"]
    assert router._round_robin == {"k": 5}
    assert router.choose_read_node("k", ["a", "b"]) == "b"


def test_a_bound_read_routes_a_key_missing_from_the_map_through_the_ring() -> None:
    router = ReplicaRouter(ReplicationConfig(factor=2, read_policy="primary"))
    routed, served = [], []

    def route(key, factor):
        routed.append((key, factor))
        return ("b", "a")

    read = router.bind({}, route, 2, {"a": None, "b": lambda *request: served.append(request)})
    read(1.5, "k", 16, 128)
    assert routed == [("k", 2)] and served == [(1.5, "k", 16, 128)]


@pytest.mark.parametrize("read_policy", READ_POLICIES)
def test_an_empty_replica_list_is_a_cluster_error(read_policy) -> None:
    router = ReplicaRouter(ReplicationConfig(factor=2, read_policy=read_policy))
    with pytest.raises(ClusterError, match="no replica available for key 'k'"):
        router.choose_read_node("k", [])


@pytest.mark.parametrize("read_policy", READ_POLICIES)
def test_choose_read_node_agrees_with_the_naive_router(read_policy) -> None:
    fast = ReplicaRouter(ReplicationConfig(factor=3, read_policy=read_policy))
    naive = ReplicaRouter(ReplicationConfig(factor=3, read_policy=read_policy))
    sets = [["a", "b", "c"], ["c", "a"], ["b"], ["a", "c", "b"]]
    keys = [f"key-{index % 7}" for index in range(60)]
    for index, key in enumerate(keys):
        replicas = sets[index % len(sets)]
        assert fast.choose_read_node(key, replicas) == naive_choose(naive, key, replicas)
    assert fast._round_robin == naive._round_robin


def test_the_read_policy_is_bound_once_per_run(trace, monkeypatch) -> None:
    binds = []
    bind = ReplicaRouter.bind

    def counted(self, *args):
        binds.append(self)
        return bind(self, *args)

    monkeypatch.setattr(ReplicaRouter, "bind", counted)
    simulation = ClusterSimulation(
        trace,
        policy="invalidate",
        num_nodes=3,
        staleness_bound=0.5,
        duration=DURATION,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
    )
    simulation.run()
    assert binds == [simulation.router]
