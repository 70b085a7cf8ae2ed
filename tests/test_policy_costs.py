"""Cost accounting per policy family, on hand-built traces.

Fixed costs (c_m=1.0, c_i=0.1, c_u=0.6) make every expected total exact.
"""

from dataclasses import replace

import pytest

from repro.backend.datastore import DataStore
from repro.backend.invalidation_tracker import InvalidationTracker
from repro.cache.cache import Cache
from repro.cache.entry import EntryState
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.policy import Action, PolicyContext
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.sim.simulation import Simulation
from repro.workload.base import OpType, Request

C_M, C_I, C_U = 1.0, 0.1, 0.6


def costs() -> CostModel:
    return CostModel(miss=C_M, invalidate=C_I, update=C_U)


def read(time: float, key: str = "k") -> Request:
    return Request(time=time, key=key, op=OpType.READ)


def write(time: float, key: str = "k") -> Request:
    return Request(time=time, key=key, op=OpType.WRITE)


def run(trace, policy, bound=1.0, **kwargs):
    return Simulation(
        workload=trace, policy=policy, staleness_bound=bound, costs=costs(), **kwargs
    ).run()


class TestTTLExpiry:
    def test_expiry_miss_pays_one_refetch(self) -> None:
        result = run([read(0.0), read(0.5), read(1.5)], TTLExpiryPolicy())
        assert result.cold_misses == 1
        assert result.hits == 1  # t=0.5, timer still running
        assert result.stale_misses == 1  # t=1.5, expired at t=1.0
        assert result.freshness_cost == pytest.approx(C_M)
        assert result.staleness_cost == pytest.approx(1.0)

    def test_no_expiry_within_ttl(self) -> None:
        result = run([read(0.0), read(0.9)], TTLExpiryPolicy())
        assert result.stale_misses == 0
        assert result.freshness_cost == 0.0


class TestTTLPollingLazySettlement:
    def test_polls_settled_on_next_touch(self) -> None:
        # Two whole TTL intervals elapse between the reads: exactly two polls
        # must be charged, even though no event fired in between.
        result = run([read(0.0), read(2.5)], TTLPollingPolicy())
        assert result.polls == 2
        assert result.freshness_cost == pytest.approx(2 * C_M)
        assert result.hits == 1  # polling keeps the entry always valid
        assert result.staleness_violations == 0

    def test_polls_settled_on_eviction(self) -> None:
        # Key "a" is never touched again; its polls are settled when "b"
        # evicts it from the capacity-1 cache at t=2.2.
        result = run([read(0.0, "a"), read(2.2, "b")], TTLPollingPolicy(), cache_capacity=1)
        assert result.polls == 2
        assert result.freshness_cost == pytest.approx(2 * C_M)

    def test_polls_settled_at_end_of_run(self) -> None:
        result = run([read(0.0)], TTLPollingPolicy(), duration=3.0)
        assert result.polls == 3
        assert result.freshness_cost == pytest.approx(3 * C_M)


class TestInvalidatePath:
    def test_invalidate_then_stale_miss(self) -> None:
        # Write at t=0.5 -> invalidate at the t=1.0 flush (c_i), read at
        # t=1.2 misses and re-fetches (c_m).
        result = run([read(0.0), write(0.5), read(1.2)], AlwaysInvalidatePolicy())
        assert result.invalidates_sent == 1
        assert result.stale_misses == 1
        assert result.freshness_cost == pytest.approx(C_I + C_M)

    def test_redundant_invalidate_suppressed(self) -> None:
        # Two writes in consecutive intervals with no read in between: the
        # second invalidate is redundant (the entry is still invalidated).
        result = run(
            [read(0.0), write(0.5), write(1.5), read(2.8)], AlwaysInvalidatePolicy()
        )
        assert result.invalidates_sent == 1
        assert result.suppressed_invalidates == 1
        assert result.freshness_cost == pytest.approx(C_I + C_M)


class TestUpdatePath:
    def test_update_keeps_entry_fresh(self) -> None:
        result = run([read(0.0), write(0.5), read(1.2)], AlwaysUpdatePolicy())
        assert result.updates_sent == 1
        assert result.hits == 1  # the update refreshed the cached copy
        assert result.stale_misses == 0
        assert result.freshness_cost == pytest.approx(C_U)
        assert result.staleness_violations == 0

    def test_final_flush_charges_trailing_write(self) -> None:
        # A write with no later request still costs its update at the final
        # flush (matching the closed-form model); with nothing cached the
        # message is wasted.
        result = run([write(0.5)], AlwaysUpdatePolicy())
        assert result.updates_sent == 1
        assert result.updates_wasted == 1
        assert result.freshness_cost == pytest.approx(C_U)


class TestFlushDecisions:
    """``FreshnessPolicy.decisions``: the flush's actions, one per dirty key."""

    @staticmethod
    def bound(policy, **entry_states):
        """``policy`` bound to a cache holding one entry per given state."""
        cache = Cache()
        for key, state in entry_states.items():
            cache.fill(key, version=1, time=0.0).state = state
        datastore = DataStore()
        policy.bind(PolicyContext(costs(), 1.0, cache, datastore, InvalidationTracker()))
        return policy

    def test_cache_state_policy_skips_every_entry_a_miss_will_refetch(self) -> None:
        policy = self.bound(
            CacheStateAdaptivePolicy(),
            valid=EntryState.VALID,
            invalidated=EntryState.INVALIDATED,
            expired=EntryState.EXPIRED,
        )
        decided = {
            key: policy.decide(key, 1.0) for key in ("absent", "valid", "invalidated", "expired")
        }
        assert decided == {
            "absent": Action.NOTHING,
            "valid": Action.UPDATE,  # E[W] prior 1.0: 1.0 * c_u < c_i + c_m
            "invalidated": Action.NOTHING,
            "expired": Action.NOTHING,
        }
        assert (policy.decisions_update, policy.decisions_invalidate) == (1, 0)

    def test_decisions_are_lazy_and_equal_decide_key_by_key(self) -> None:
        keys = ["a", "b", "c", "a"]
        for build in (AlwaysInvalidatePolicy, AlwaysUpdatePolicy, AdaptivePolicy,
                      lambda: AdaptivePolicy(staleness_slo=0.0), CacheStateAdaptivePolicy):
            batched = self.bound(build(), a=EntryState.VALID)
            single = self.bound(build(), a=EntryState.VALID)
            for policy in (batched, single):
                for _ in range(3):
                    policy.observe_write("b", 0.5)  # E[W] = 3 after the read: invalidate
                policy.observe_read("b", 0.6)
            actions = batched.decisions(keys, 1.0)
            assert iter(actions) is actions, "an iterator, consumed in lockstep with the sends"
            if isinstance(batched, AdaptivePolicy):
                assert batched.decisions_update == batched.decisions_invalidate == 0
            assert list(actions) == [single.decide(key, 1.0) for key in keys]
            for counter in ("decisions_update", "decisions_invalidate"):
                assert getattr(batched, counter, None) == getattr(single, counter, None)
        assert list(self.bound(AdaptivePolicy()).decisions([], 1.0)) == []

    def test_a_subclass_that_overrides_decide_is_asked_key_by_key(self) -> None:
        class Contrary(AlwaysInvalidatePolicy):
            def decide(self, key, time):
                return Action.UPDATE if key == "b" else Action.NOTHING

        class SizedRule(AdaptivePolicy):
            def _decision_rule_for(self, key):
                rule = AdaptivePolicy._decision_rule_for(self, key)
                return replace(rule, update_cost=100.0) if key == "b" else rule

        assert list(self.bound(Contrary()).decisions(["a", "b"], 1.0)) == [
            Action.NOTHING, Action.UPDATE
        ]
        assert list(self.bound(SizedRule()).decisions(["a", "b"], 1.0)) == [
            Action.UPDATE, Action.INVALIDATE
        ]

    def test_breakdown_costs_keep_a_rule_per_key(self) -> None:
        """A breakdown prices each key by its own value size."""
        policy = AdaptivePolicy()
        cache, datastore = Cache(), DataStore()
        sized = CostModel.network_bottleneck()
        policy.bind(PolicyContext(sized, 1.0, cache, datastore, InvalidationTracker()))
        datastore.write("small", 0.1, value_size=8)
        datastore.write("large", 0.1, value_size=1 << 20)
        for key in ("small", "large"):
            for _ in range(2):
                policy.observe_write(key, 0.2)
            policy.observe_read(key, 0.3)
        # E[W] = 2: two updates of a small value cost less than invalidate +
        # miss, two of a large one cost more.
        assert (
            list(policy.decisions(["small", "large"], 1.0))
            == [policy.decide("small", 1.0), policy.decide("large", 1.0)]
            == [Action.UPDATE, Action.INVALIDATE]
        )


# --------------------------------------------------------------------- #
# The §3.2 tie: E[W] * c_u == c_i + c_m invalidates
# --------------------------------------------------------------------- #

#: Costs under which ``E[W] = 2`` is exactly the break-even point.
TIE_M, TIE_I, TIE_U = 1.5, 0.5, 1.0


def test_ew_decision_invalidates_at_the_tie() -> None:
    """The comparison is strict: at ``E[W] * c_u == c_i + c_m`` an update
    costs what an invalidate and a miss cost, and the rule invalidates."""
    from repro.core.decision import DecisionRule, ew_decision

    assert 2.0 * TIE_U == TIE_I + TIE_M
    assert ew_decision(2.0, TIE_M, TIE_I, TIE_U) is Action.INVALIDATE
    assert ew_decision(1.999, TIE_M, TIE_I, TIE_U) is Action.UPDATE
    assert ew_decision(2.001, TIE_M, TIE_I, TIE_U) is Action.INVALIDATE
    assert DecisionRule(TIE_M, TIE_I, TIE_U).from_ew(2.0) is Action.INVALIDATE


@pytest.mark.parametrize(
    "costs",
    [(TIE_M, TIE_I, TIE_U), (1.0, 0.1, 0.6), (0.3, 0.7, 0.11), (1.0, 0.1, 0.0)],
    ids=["tie", "default", "inexact-threshold", "free-updates"],
)
@pytest.mark.parametrize("slo", [None, 0.2], ids=["flat", "slo"])
def test_vector_ew_decisions_are_from_ew_value_by_value(costs, slo) -> None:
    """The columnar flush decides a window's distinct E[W] estimates as one
    comparison under a flat rule, and asks an SLO rule value by value:
    either way, each pick is ``from_ew``'s, at 0, one ulp either side of
    the break-even point and on it, far past it and at infinity; a negative
    estimate raises ``from_ew``'s error."""
    import numpy as np

    from repro.core.decision import DecisionRule
    from repro.errors import ConfigurationError
    from repro.sim.vector.reactive import _ew_updates

    miss, invalidate, update = costs
    rule = DecisionRule(miss, invalidate, update, staleness_slo=slo)
    threshold = (invalidate + miss) / update if update else 1.0
    values = np.unique([
        0.0, np.nextafter(threshold, -np.inf), threshold, np.nextafter(threshold, np.inf),
        0.5, 3.0, 1e12, 1e300, np.inf,
    ])
    picks = _ew_updates(rule, values)
    assert picks.dtype == np.bool_
    assert picks.tolist() == [rule.from_ew(value) is Action.UPDATE for value in values.tolist()]
    if slo is None:
        # Both picks occur at the break-even point whenever updates cost anything.
        assert not update or picks.any() and not picks.all()
        with pytest.raises(ConfigurationError, match="E\\[W\\] must be non-negative, got -0.5"):
            _ew_updates(rule, np.array([-0.5, -0.25, 1.0]))


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_adaptive_replay_invalidates_at_the_tie(engine: str) -> None:
    """One key, runs of two writes between reads: at the first flush its
    E[W] is exactly 2, the tie, and its buffered write draws an invalidate
    on either engine."""
    import numpy as np

    from repro.experiments.registry import make_policy
    from repro.sim.vector import VectorSimulation
    from repro.workload.compiled import CompiledTrace

    #        w    w    r    w    w    r    w
    ops = [False, False, True, False, False, True, False]
    trace = CompiledTrace(
        times=np.arange(1, 8, dtype=np.float64) / 10.0,
        key_ids=np.zeros(7, dtype=np.int64),
        is_read=np.array(ops),
        key_sizes=np.full(7, 16, dtype=np.int64),
        value_sizes=np.full(7, 64, dtype=np.int64),
        key_names=["k"],
    )
    policy = make_policy("adaptive")
    config = dict(
        policy=policy,
        staleness_bound=1.0,
        duration=1.5,
        costs=CostModel(miss=TIE_M, invalidate=TIE_I, update=TIE_U),
    )
    if engine == "vector":
        simulation = VectorSimulation(trace, **config)
    else:
        simulation = Simulation(trace.iter_requests(), **config)
    result = simulation.run()
    assert engine == "scalar" or simulation.used_vector_path
    assert policy.estimator.state() == [["k", 4, 2, 1]]
    assert (policy.decisions_invalidate, policy.decisions_update) == (1, 0)
    assert (result.invalidates_sent, result.updates_sent) == (1, 0)


# --------------------------------------------------------------------- #
# Table 1: the breakdown, and per-size pricing through a replay
# --------------------------------------------------------------------- #


def test_breakdown_costs_follow_table_1() -> None:
    """``c_m``, ``c_i`` and ``c_u`` are Table 1's sums of the cache's and the
    store's work, on primitive costs (powers of two, so every sum is exact)
    chosen so that no term of any cost can be dropped or swapped unseen."""
    from repro.core.cost_model import CostBreakdown

    breakdown = CostBreakdown(
        serialize_per_byte=0.25, deserialize_per_byte=0.5, read_op=8.0, update_op=16.0,
        delete_op=32.0,
    )
    key, value = 4, 12
    ser = lambda size: 0.25 * size  # noqa: E731
    deser = lambda size: 0.5 * size  # noqa: E731
    # c_m: cache ser(K) + deser(K+V) + update; store deser(K) + read + ser(K+V).
    miss = (ser(key) + deser(key + value) + 16.0) + (deser(key) + 8.0 + ser(key + value))
    # c_i: cache deser(K) + delete; store ser(K).
    invalidate = (deser(key) + 32.0) + ser(key)
    # c_u: cache deser(K+V) + update; store ser(K+V).
    update = (deser(key + value) + 16.0) + ser(key + value)
    assert (miss, invalidate, update) == (39.0, 35.0, 28.0)
    assert breakdown.miss_cost(key, value) == miss
    assert breakdown.invalidate_cost(key) == invalidate
    assert breakdown.update_cost(key, value) == update
    model = CostModel(breakdown=breakdown)
    assert model.miss_cost(key_size=key, value_size=value) == miss
    assert model.invalidate_cost(key_size=key) == invalidate
    assert model.update_cost(key_size=key, value_size=value) == update


#: A hand trace of three keys whose requests all carry 40-byte keys (the
#: presets' fixed fallbacks assume 16) and whose writes vary the value size.
SIZED_OPS = [
    # time, key, op, value size
    (0.05, "a", "r", 0), (0.10, "a", "w", 64), (0.20, "b", "w", 900), (0.30, "b", "r", 0),
    (0.40, "c", "r", 0), (0.55, "a", "r", 0), (0.60, "b", "w", 33), (0.70, "a", "w", 4000),
    (0.80, "c", "w", 250), (0.90, "a", "w", 12), (1.10, "b", "r", 0), (1.20, "c", "r", 0),
    (1.30, "a", "r", 0), (1.40, "c", "w", 77), (1.45, "b", "w", 2048), (1.70, "c", "r", 0),
    (1.80, "a", "w", 500), (1.90, "a", "r", 0), (2.20, "b", "r", 0), (2.30, "c", "w", 8),
]
SIZED_KEY = 40


def sized_requests():
    return [
        Request(time=time, key=key, op=OpType.READ if op == "r" else OpType.WRITE,
                key_size=SIZED_KEY, value_size=size or 128)
        for time, key, op, size in SIZED_OPS
    ]


def per_size_reference(policy: str, bound: float, end: float, costs: CostModel):
    """The single cache's ``(freshness_cost, cold_miss_cost)``, key by key: a
    miss priced at the read's key size and the key's latest value size, an
    interval flush's messages at the buffered write's key size (and, for an
    update, the latest value size), on an ideal channel."""
    latest, valid, tracked, buffered = {}, {}, set(), {}
    freshness = cold = 0.0
    flush_at = bound

    def flush() -> None:
        nonlocal freshness
        for key, key_size in buffered.items():
            if policy == "update":
                freshness += costs.update_cost(key_size=key_size, value_size=latest[key])
                tracked.discard(key)
                if key in valid:
                    valid[key] = True
            elif key not in tracked:
                freshness += costs.invalidate_cost(key_size=key_size)
                tracked.add(key)
                if key in valid:
                    valid[key] = False
        buffered.clear()

    for request in sized_requests():
        while request.time >= flush_at:
            flush()
            flush_at += bound
        key = request.key
        if request.op is OpType.WRITE:
            latest[key] = request.value_size
            buffered.setdefault(key, request.key_size)
        elif not valid.get(key, False):
            miss = costs.miss_cost(key_size=request.key_size, value_size=latest.get(key, 128))
            if key in valid:
                freshness += miss
            else:
                cold += miss
            valid[key] = True
            tracked.discard(key)
            buffered.pop(key, None)
    while flush_at <= end:
        flush()
        flush_at += bound
    flush()
    return freshness, cold


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("policy", ["invalidate", "update"])
def test_per_size_costs_match_a_key_by_key_reference(policy: str, engine: str) -> None:
    """Under the ``cpu`` preset every miss and every message is priced at its
    own sizes (§3.3): the replay's freshness and cold-miss costs equal a
    brute-force reference on a trace of 40-byte keys and varying values.
    The vector engine replays it on the scalar loop (``cost-breakdown``)."""
    import numpy as np

    from repro.experiments.registry import make_cost_model, make_policy
    from repro.sim.vector import VectorSimulation
    from repro.workload.compiled import CompiledTrace

    costs = make_cost_model("cpu", {})
    assert costs.breakdown is not None
    config = dict(policy=make_policy(policy), staleness_bound=0.5, duration=2.5, costs=costs)
    if engine == "vector":
        requests = sized_requests()
        names = sorted({request.key for request in requests})
        trace = CompiledTrace(
            times=np.array([request.time for request in requests]),
            key_ids=np.array([names.index(request.key) for request in requests]),
            is_read=np.array([request.op is OpType.READ for request in requests]),
            key_sizes=np.array([request.key_size for request in requests]),
            value_sizes=np.array([request.value_size for request in requests]),
            key_names=names,
        )
        simulation = VectorSimulation(trace, **config)
    else:
        simulation = Simulation(sized_requests(), **config)
    result = simulation.run()
    if engine == "vector":
        assert simulation.fallback_reason == "cost-breakdown"
    freshness, cold = per_size_reference(policy, 0.5, 2.5, costs)
    assert result.cold_misses == 3
    if policy == "invalidate":
        assert result.invalidates_sent > 3 and result.stale_misses > 3
    else:
        assert result.updates_sent > 3
    assert result.freshness_cost == pytest.approx(freshness, rel=1e-12)
    assert result.cold_miss_cost == pytest.approx(cold, rel=1e-12)
    assert np.isfinite(freshness) and freshness > 0
