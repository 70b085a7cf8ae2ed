"""Byte-identity of the columnar replay engine against the scalar pipeline.

The vector engine's contract is not "approximately the same results faster"
but *byte-identical* results: every counter, every accumulated float, every
serialised row must match the scalar engine exactly.  These tests compare
``as_dict()`` payloads through ``json.dumps`` so float formatting differences
(which would leak into exported artifacts) fail too.
"""

import gc
import itertools
import json
import os
import pickle
import warnings
import weakref
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.backend.channel import Channel
from repro.cluster import (
    ClusterSimulation,
    HotKeyConfig,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
)
from repro.cluster.vector import FLEET_ENVELOPE
from repro.concurrency.config import ConcurrencyConfig
from repro.core.adaptive import AdaptivePolicy
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy
from repro.errors import ConfigurationError
from repro.experiments.registry import make_cost_model, make_policy
from repro.experiments.spec import ChannelSpec
from repro.cluster import replay_cluster_parallel
from repro.perf.perf import non_empty_spans
from repro.resilience import ChaosSpec
from repro.sim import vector as sim_vector
from repro.sim.simulation import Simulation
from repro.sim.vector import (
    ENVELOPE,
    VectorSimulation,
    _HostState,
    _kernel_reactive_span,
    _ReplayContext,
    _SpanPrelude,
    _SpanTally,
    envelope_exit,
)
from repro.sketch.countmin import CountMinEWSketch
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.compiled import CompiledTrace, SpanCursor, compile_workload
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload

DURATION = 5.0

KERNEL_POLICIES = [
    "ttl-expiry",
    "ttl-polling",
    "invalidate",
    "update",
    "adaptive",
    "adaptive+cs",
]


def assert_identical(scalar, vector) -> None:
    """Equality plus serialised-form equality (catches float drift)."""
    assert scalar == vector
    assert json.dumps(scalar, sort_keys=True) == json.dumps(vector, sort_keys=True)


def make_workloads():
    return [
        PoissonZipfWorkload(num_keys=80, rate_per_key=30.0, seed=13),
        PoissonMixWorkload(num_keys=80, rate_per_key=20.0, seed=13),
        TwitterWorkload(num_keys=100, total_rate=1500.0, seed=13),
    ]


# --------------------------------------------------------------------- #
# Trace compilation
# --------------------------------------------------------------------- #

def test_compiled_trace_decompiles_to_the_exact_scalar_stream() -> None:
    """compile → iter_requests reproduces every draw of the generator."""
    for workload in make_workloads():
        trace = compile_workload(workload, DURATION)
        compiled = list(trace.iter_requests())
        streamed = list(workload.iter_requests(DURATION))
        assert len(compiled) == len(streamed) == len(trace)
        for got, want in zip(compiled, streamed):
            assert repr(got.time) == repr(want.time)
            assert got.key == want.key
            assert got.op is want.op
            assert got.key_size == want.key_size
            assert got.value_size == want.value_size


def test_generic_compiler_covers_unknown_workload_subclasses() -> None:
    """A subclass overriding iter_requests must not hit a native compiler."""

    class Reversed(PoissonZipfWorkload):
        def iter_requests(self, duration):
            # Deliberately different from the parent's stream: native
            # compilation of the parent class would diverge.
            requests = list(super().iter_requests(duration))
            for index, request in enumerate(requests):
                if index % 7 == 0 and request.op.name == "READ":
                    continue
                yield request

    workload = Reversed(num_keys=40, rate_per_key=25.0, seed=5)
    trace = compile_workload(workload, DURATION)
    compiled = [(r.time, r.key, r.op) for r in trace.iter_requests()]
    streamed = [(r.time, r.key, r.op) for r in workload.iter_requests(DURATION)]
    assert compiled == streamed


def test_compile_workload_rejects_bad_durations() -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=0)
    from repro.errors import WorkloadError

    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(WorkloadError):
            compile_workload(workload, bad)


# --------------------------------------------------------------------- #
# Single-cache replay identity
# --------------------------------------------------------------------- #

def test_vector_replay_matches_scalar_for_every_kernel_policy() -> None:
    for workload in make_workloads():
        trace = compile_workload(workload, DURATION)
        for policy_name in KERNEL_POLICIES:
            scalar = Simulation(
                workload=workload.iter_requests(DURATION),
                policy=make_policy(policy_name),
                staleness_bound=1.0,
                duration=DURATION,
                workload_name=workload.name,
            ).run()
            simulation = VectorSimulation(
                trace,
                policy=make_policy(policy_name),
                staleness_bound=1.0,
                duration=DURATION,
                workload_name=workload.name,
            )
            vector = simulation.run()
            assert simulation.used_vector_path, (workload.name, policy_name)
            assert_identical(scalar.as_dict(), vector.as_dict())


def test_vector_replay_matches_scalar_across_staleness_bounds() -> None:
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=40.0, seed=3)
    trace = compile_workload(workload, DURATION)
    for bound in (0.25, 1.0, 4.0):
        scalar = Simulation(
            workload=workload.iter_requests(DURATION),
            policy=make_policy("adaptive"),
            staleness_bound=bound,
            duration=DURATION,
            workload_name=workload.name,
        ).run()
        vector = VectorSimulation(
            trace,
            policy=make_policy("adaptive"),
            staleness_bound=bound,
            duration=DURATION,
            workload_name=workload.name,
        ).run()
        assert_identical(scalar.as_dict(), vector.as_dict())


def test_ineligible_configs_fall_back_to_the_scalar_loop() -> None:
    """Outside the vector envelope the engine must degrade, not diverge."""
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=30.0, seed=7)
    trace = compile_workload(workload, DURATION)
    scalar = Simulation(
        workload=workload.iter_requests(DURATION),
        policy=make_policy("invalidate"),
        staleness_bound=1.0,
        cache_capacity=16,
        duration=DURATION,
        workload_name=workload.name,
    ).run()
    simulation = VectorSimulation(
        trace,
        policy=make_policy("invalidate"),
        staleness_bound=1.0,
        cache_capacity=16,
        duration=DURATION,
        workload_name=workload.name,
    )
    vector = simulation.run()
    assert not simulation.used_vector_path
    assert trace._index is None, "a scalar-fallback run must not index the trace"
    assert_identical(scalar.as_dict(), vector.as_dict())


@pytest.mark.parametrize(
    "policy_class, symptom",
    [(TTLExpiryPolicy, "stale_misses"), (TTLPollingPolicy, "polls")],
    ids=["ttl-expiry", "ttl-polling"],
)
def test_a_ttl_below_the_clock_resolution_takes_the_scalar_path(
    wall_clock_limit, policy_class, symptom: str
) -> None:
    """Failure model: a TTL of 1e-19 s on a 2 s trace.  ``fetched_at + ttl``
    rounds back to ``fetched_at``, so an expiry search that may return its
    own fill never advances (the vector path used to spin here for ever),
    and the poll count ``(t - anchor) / ttl`` ~ 1e19 overflows an int64
    column where the scalar loop's Python ints do not (the vector path used
    to report 387255411173196247040 polls for the scalar 387255411173196244192).
    Recovery: the envelope refuses the TTL, the run takes the scalar
    fallback in bounded time, and its rows are the scalar engine's."""
    workload = PoissonZipfWorkload(num_keys=20, rate_per_key=50, read_ratio=0.9, seed=3)
    trace = compile_workload(workload, 2.0)
    config = dict(staleness_bound=1.0, duration=2.0)
    fleet = dict(
        policy=lambda: policy_class(ttl=1e-19),  # a factory: one policy per node
        num_nodes=3,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        **config,
    )
    scalar = Simulation(
        workload.iter_requests(2.0), policy=policy_class(ttl=1e-19), **config
    ).run()
    fleet_scalar = ClusterSimulation(workload.iter_requests(2.0), **fleet).run()
    with warnings.catch_warnings(), wall_clock_limit(5.0):
        warnings.simplefilter("error")  # an overflowing cast warns
        simulation = VectorSimulation(trace, policy=policy_class(ttl=1e-19), **config)
        result = simulation.run()
        fleet_simulation = VectorClusterSimulation(trace, **fleet)
        fleet_result = fleet_simulation.run()
    assert not simulation.used_vector_path and not fleet_simulation.used_vector_path
    assert_identical(scalar.as_dict(), result.as_dict())
    assert_identical(fleet_scalar.as_dict(), fleet_result.as_dict())
    assert getattr(result, symptom) == {
        "stale_misses": 1774, "polls": 387255411173196244192
    }[symptom]
    # The same trace with a TTL its clock resolves stays on the vector path.
    resolvable = VectorSimulation(trace, policy=policy_class(ttl=1e-9), **config)
    resolvable.run()
    assert resolvable.used_vector_path


# --------------------------------------------------------------------- #
# The envelope, walked row by row
# --------------------------------------------------------------------- #

class _HookedInvalidate(AlwaysInvalidatePolicy):
    """Not a kernel policy: the envelope takes exact types only."""


class WalkCase(NamedTuple):
    """One minimal configuration that trips one envelope row.

    ``overrides(kind, scratch)`` returns what to change on the ``kind``
    (``"single"`` / ``"fleet"``) base configuration, building anything
    stateful afresh — it is called once per simulation; ``scratch()`` names a
    new store directory.  ``prepare`` acts on the built simulation before it
    runs, ``stop_at`` is the fleet ``run()`` argument, ``also`` the later
    rows the configuration cannot avoid tripping as well.
    """

    row: str
    overrides: Callable[[str, Callable[[], str]], dict]
    kinds: Tuple[str, ...] = ("single", "fleet")
    prepare: Callable = lambda simulation: None
    stop_at: Optional[float] = None
    also: Tuple[str, ...] = ()


def _config(**overrides) -> Callable:
    return lambda kind, scratch: overrides


def _policy(factory: Callable) -> Callable:
    """The single cache takes a policy object, the fleet one factory per node."""
    return lambda kind, scratch: dict(policy=factory if kind == "fleet" else factory())


def _seeded_channel(kind: str, scratch: Callable) -> dict:
    """An ideal channel whose draws repeat (a fleet seeds its nodes' channels itself)."""
    return {} if kind == "fleet" else dict(channel=Channel(seed=1))


def _first_channel(simulation) -> Channel:
    """The single cache's channel, or node 0's of a fleet."""
    node = simulation.nodes()[0] if hasattr(simulation, "nodes") else simulation.node
    return node.channel


FLEET = ("fleet",)
ENVELOPE_WALK = {
    "store": WalkCase("store", lambda kind, scratch: dict(store=StoreConfig(root=scratch()))),
    "concurrency": WalkCase("concurrency", _config(concurrency=ConcurrencyConfig(mean=0.02))),
    "cost-breakdown": WalkCase(
        "cost-breakdown", lambda kind, scratch: dict(costs=make_cost_model("cpu"))
    ),
    "history-retention": WalkCase("history-retention", _config(history_retention=2.0)),
    "policy": WalkCase("policy", _policy(_HookedInvalidate)),
    "estimator": WalkCase(
        "estimator", _policy(lambda: AdaptivePolicy(estimator=CountMinEWSketch()))
    ),
    "ttl-above-bound": WalkCase("ttl-above-bound", _policy(lambda: TTLExpiryPolicy(ttl=2.0))),
    "ttl-resolution": WalkCase("ttl-resolution", _policy(lambda: TTLExpiryPolicy(ttl=1e-19))),
    "hot-key": WalkCase("hot-key", _config(hotkey=HotKeyConfig(hot_policy="update")), FLEET),
    "l1-tier": WalkCase("l1-tier", _config(tier=TierConfig(l1_capacity=16)), FLEET),
    "bounded-cache": WalkCase("bounded-cache", _config(cache_capacity=16)),
    "bounded-tracker": WalkCase("bounded-tracker", _config(tracker_capacity=8)),
    "channel": WalkCase(
        "channel",
        lambda kind, scratch: dict(
            channel=ChannelSpec(delay=0.05) if kind == "fleet" else Channel(delay=0.05, seed=1)
        ),
    ),
    # A channel changed through its public surface before run(): the row used
    # to read the constructor's loss, delay and jitter only, and the vector
    # path delivered every message of all three at the flush.
    "channel/degraded-delay": WalkCase(
        "channel",
        _seeded_channel,
        prepare=lambda simulation: _first_channel(simulation).set_degraded(delay=0.3),
    ),
    "channel/degraded-jitter": WalkCase(
        "channel",
        _seeded_channel,
        prepare=lambda simulation: _first_channel(simulation).set_degraded(jitter=0.2),
    ),
    "channel/outage": WalkCase(
        "channel",
        _seeded_channel,
        prepare=lambda simulation: setattr(_first_channel(simulation), "outage", True),
    ),
    # The public membership calls, made before run(): the vector path used to
    # replay all three as if the fleet were whole.  A failed node's link is
    # cut as well.
    "membership/fail_node": WalkCase(
        "membership", _config(), FLEET, lambda fleet: fleet.fail_node(0), also=("channel",)
    ),
    "membership/remove_node": WalkCase(
        "membership", _config(), FLEET, lambda fleet: fleet.remove_node(0, 0.0)
    ),
    "membership/deactivate_node": WalkCase(
        "membership", _config(), FLEET, lambda fleet: fleet.deactivate_node(0)
    ),
    "scenario": WalkCase(
        "scenario", lambda kind, scratch: dict(scenario=make_scenario("flash-crowd")), FLEET
    ),
    "chaos": WalkCase("chaos", _config(chaos=ChaosSpec(seed=1, kinds=("delay",))), FLEET),
    # A kill point needs a store to crash into.
    "stop-at": WalkCase(
        "stop-at",
        lambda kind, scratch: dict(store=StoreConfig(root=scratch(), snapshot_interval=1.0)),
        FLEET,
        stop_at=2.5,
        also=("store",),
    ),
}


def walk_engines(kind: str, overrides: Callable, tmp_path, prepare=lambda simulation: None):
    """The scalar engine and the columnar one, built alike on one workload."""
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=30.0, seed=7)
    scratch = (str(tmp_path / f"store-{count}") for count in itertools.count()).__next__
    engines = []
    for columnar in (False, True):
        config = dict(staleness_bound=1.0, duration=DURATION)
        if kind == "fleet":
            config.update(policy="invalidate", num_nodes=3)
            engine = VectorClusterSimulation if columnar else ClusterSimulation
        else:
            config.update(policy=make_policy("invalidate"))
            engine = VectorSimulation if columnar else Simulation
        config.update(overrides(kind, scratch))
        source = compile_workload if columnar else PoissonZipfWorkload.iter_requests
        simulation = engine(source(workload, DURATION), **config)
        prepare(simulation)
        engines.append(simulation)
    return engines


def test_the_walk_has_a_case_for_every_envelope_row() -> None:
    assert FLEET_ENVELOPE[-len(ENVELOPE):] == ENVELOPE
    names = [row.name for row in FLEET_ENVELOPE]
    assert len(set(names)) == len(names)
    assert {row.scope for row in ENVELOPE} == {"driver", "node"}
    assert {row.scope for row in FLEET_ENVELOPE[: -len(ENVELOPE)]} == {"fleet"}
    assert {case.row for case in ENVELOPE_WALK.values()} == set(names)
    # Every row the single cache can trip is walked on the single cache, too:
    # detectors, tiers and ring membership are the fleet's to configure.
    single = {case.row for case in ENVELOPE_WALK.values() if "single" in case.kinds}
    assert single == {row.name for row in ENVELOPE} - {"hot-key", "l1-tier", "membership"}


@pytest.mark.parametrize(
    "case_id, kind",
    [(case_id, kind) for case_id, case in ENVELOPE_WALK.items() for kind in case.kinds],
)
def test_every_envelope_row_replays_scalar_rows_under_its_own_name(
    case_id: str, kind: str, tmp_path
) -> None:
    case = ENVELOPE_WALK[case_id]
    scalar, columnar = walk_engines(kind, case.overrides, tmp_path, case.prepare)
    rows, nodes = (
        (FLEET_ENVELOPE, columnar.nodes()) if kind == "fleet" else (ENVELOPE, [columnar.node])
    )
    tripped = [row.name for row in rows if envelope_exit((row,), columnar, nodes, case.stop_at)]
    assert tripped == [case.row, *case.also]
    assert not columnar.vector_eligible()
    assert columnar.fallback_reason is None, "set by run() only"
    run_args = () if case.stop_at is None else (case.stop_at,)
    expected = scalar.run(*run_args)
    result = columnar.run(*run_args)
    assert columnar.used_vector_path is False
    assert columnar.fallback_reason == case.row
    assert_identical(expected.as_dict(), result.as_dict())


@pytest.mark.parametrize("kind", ["single", "fleet"])
def test_inside_the_envelope_the_kernels_run_and_no_reason_is_given(kind: str, tmp_path) -> None:
    scalar, columnar = walk_engines(kind, _config(), tmp_path)
    assert columnar.vector_eligible()
    result = columnar.run()
    assert columnar.used_vector_path is True
    assert columnar.fallback_reason is None
    with pytest.raises(AttributeError):
        columnar.fallback_reason = "store"
    assert_identical(scalar.run().as_dict(), result.as_dict())


def test_vector_simulation_requires_a_compiled_trace() -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=0)
    with pytest.raises(ConfigurationError):
        VectorSimulation(
            workload.iter_requests(1.0),
            policy=make_policy("invalidate"),
            staleness_bound=1.0,
        )


def test_compiled_trace_reports_length_and_columns() -> None:
    trace = compile_workload(
        PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=0), 1.0
    )
    assert isinstance(trace, CompiledTrace)
    assert len(trace) == trace.times.size == trace.key_ids.size == trace.is_read.size


# --------------------------------------------------------------------- #
# The memoised trace index
# --------------------------------------------------------------------- #

def replay(trace: CompiledTrace, policy: str = "invalidate") -> dict:
    return VectorSimulation(
        trace, policy=make_policy(policy), staleness_bound=1.0, duration=DURATION
    ).run().as_dict()


def test_index_is_built_once_and_shared_by_every_replay_of_the_trace() -> None:
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=20.0, seed=5)
    trace = compile_workload(workload, DURATION)
    assert trace._index is None
    first = replay(trace)
    index = trace._index
    assert index is not None and trace.index() is index
    assert replay(trace) == first == replay(compile_workload(workload, DURATION))
    replay(trace, "ttl-polling")
    assert trace._index is index


def test_indexed_trace_is_frozen_and_the_memo_stays_out_of_eq_repr_and_pickle() -> None:
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=20.0, seed=5)
    trace = compile_workload(workload, DURATION)
    pickled_size = len(pickle.dumps(trace))
    plain_repr = repr(trace)
    trace.index()
    # The index is derived from the columns: an in-place edit would leave
    # it stale, so indexing freezes them.
    for column in (trace.times, trace.key_ids, trace.is_read, trace.key_sizes, trace.value_sizes):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    assert len(pickle.dumps(trace)) == pickled_size
    assert repr(trace) == plain_repr
    clone = pickle.loads(pickle.dumps(trace))
    assert clone._index is None
    assert replay(clone) == replay(trace)


def test_index_dies_with_its_trace_without_the_cycle_collector() -> None:
    """The index holds arrays only, never the trace: no reference cycle."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=40, rate_per_key=20.0, seed=5), DURATION)
    replay(trace)
    index_ref = weakref.ref(trace.index())
    gc.disable()
    try:
        del trace
        assert index_ref() is None
    finally:
        gc.enable()


#: Node shapes whose callbacks could tie a node into a cycle: a bounded
#: cache (its eviction callback), an L1 tier (the tier's own eviction
#: callback, its demotion sink and its victim settler), in either mode.
NODE_SHAPES = {
    "plain": {},
    "bounded": dict(cache_capacity=6),
    "write-through": dict(tier=TierConfig(l1_capacity=4)),
    "write-back": dict(cache_capacity=6, tier=TierConfig(l1_capacity=4, mode="write-back")),
}


def assert_every_shape_is_freed(policy: str, check=lambda node: None, **config) -> None:
    """Run every engine on every node shape and drop it: the node, its
    datastore, its L1 and the simulation must die at once, with the cycle
    collector off.  ``check(node)`` runs on each finished replay first."""
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=20.0, seed=5)
    trace = compile_workload(workload, DURATION)
    builds = []
    for name, shape in NODE_SHAPES.items():
        fleet = dict(policy=policy, num_nodes=3, **config, **shape)
        builds += [
            (name, lambda fleet=fleet: ClusterSimulation(workload.iter_requests(DURATION), **fleet)),
            (name, lambda fleet=fleet: VectorClusterSimulation(trace, **fleet)),
        ]
        if "tier" not in shape:  # the single cache has no tier; a policy per run
            single = lambda shape=shape: dict(policy=make_policy(policy), **config, **shape)
            builds += [
                (name, lambda single=single: Simulation(workload.iter_requests(DURATION), **single())),
                (name, lambda single=single: VectorSimulation(trace, **single())),
            ]
    gc.collect()
    gc.disable()
    try:
        for name, build in builds:
            simulation = build()
            simulation.run()
            node = getattr(simulation, "node", None) or simulation._node_list[0]
            check(node)
            if name != "plain":
                l1_evictions = node.l1.cache.stats.evictions if node.l1 is not None else 0
                assert node.cache.stats.evictions + l1_evictions > 0, name
            alive = [weakref.ref(node), weakref.ref(node.datastore), weakref.ref(simulation)]
            if node.l1 is not None:
                alive.append(weakref.ref(node.l1))
            del simulation, node
            assert [ref() for ref in alive] == [None] * len(alive), name
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", ["ttl-polling", "invalidate", "adaptive"])
def test_a_finished_replay_is_freed_without_the_cycle_collector(policy: str) -> None:
    """A dropped simulation frees its nodes — cache entries, datastore
    histories — by reference count, bounded and tiered ones included.  A
    cycle through a node (a bound method of its own stored on it, on its
    cache or on its L1) would leave megabytes per replay waiting for the
    collector's next full pass, and how soon that comes depends on how many
    container objects the next replays happen to make."""
    assert_every_shape_is_freed(policy, staleness_bound=1.0, duration=DURATION)


def test_a_finished_concurrent_replay_is_freed_without_the_cycle_collector() -> None:
    """Under the in-flight fetch model the driver builds a ConcurrentCacheNode,
    whose concurrent paths are class overrides: no bound method of the node is
    stored on the node, so it too dies by reference count (its handlers used
    to be bound onto the instance, a cycle only the collector broke)."""

    def fetched_with_latency(node) -> None:
        assert node.result.latency_count > 0

    assert_every_shape_is_freed(
        "invalidate",
        fetched_with_latency,
        staleness_bound=1.0,
        duration=DURATION,
        concurrency=ConcurrencyConfig(mean=0.01, capacity=2, seed=3),
    )


# --------------------------------------------------------------------- #
# Span kernel: unsigned position columns and empty columns
# --------------------------------------------------------------------- #

def hand_trace(ops: str, keys) -> CompiledTrace:
    """``ops`` is one ``r``/``w`` per request, ``keys`` the key id of each."""
    count = len(ops)
    return CompiledTrace(
        times=np.arange(count, dtype=np.float64) / 10.0,
        key_ids=np.asarray(keys, dtype=np.int64),
        is_read=np.array([op == "r" for op in ops], dtype=np.bool_),
        key_sizes=np.full(count, 16, dtype=np.int64),
        value_sizes=np.full(count, 64, dtype=np.int64),
        key_names=[f"key-{key}" for key in range(max(keys) + 1)],
    )


def kernel_host(trace: CompiledTrace, policy: str = "adaptive"):
    simulation = VectorSimulation(
        trace, policy=make_policy(policy), staleness_bound=100.0, duration=100.0
    )
    ctx = _ReplayContext(trace, trace.index(), simulation.datastore, 100.0, 100.0, 1.0, 1.0)
    host = _HostState(
        result=simulation.result,
        cache=simulation.cache,
        buffer=simulation.buffer,
        tracker=simulation.tracker,
        estimator=simulation.policy.estimator if policy == "adaptive" else None,
        reacts=True,
        discard_on_miss_fill=True,
    )
    return ctx, host


def whole_trace_groups(trace: CompiledTrace):
    keys, read_lo, read_hi, write_lo, write_hi = SpanCursor(trace.index()).advance(len(trace))
    return keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi


def test_span_kernel_never_lets_an_unsigned_position_meet_a_sentinel() -> None:
    """``read_pos``/``write_pos`` are uint32: a ``-1`` mixed into a gather of
    them wraps to 4 294 967 295 and would sort a write-only key's first
    observation (and its counter row) after everything else."""
    #              0    1    2    3    4    5
    trace = hand_trace("wrrwrw", [2, 0, 1, 1, 1, 0])
    index = trace.index()
    assert index.read_pos.dtype == index.write_pos.dtype == np.uint32
    ctx, host = kernel_host(trace)
    tally = _SpanTally()
    _kernel_reactive_span(ctx, host, tally, _SpanPrelude(trace, index, whole_trace_groups(trace)))
    assert sorted(tally.estimator_ops) == [
        (0, "key-2", 0, 1, 0, 0, 0),  # write-only: first seen at its write
        (1, "key-0", 1, 1, 0, 0, 0),
        (2, "key-1", 2, 1, 0, 1, 1),
    ]
    assert sorted(position for position, _ in tally.new_fills) == [1, 2]
    assert sorted(position for position, _ in tally.buffer_entries) == [0, 3, 5]
    for value in (tally.reads, tally.hits, tally.cold_misses, tally.buffered_writes):
        assert type(value) is int


def test_span_kernel_skips_every_read_gather_for_groups_without_reads() -> None:
    """A round-robin replica that serves none of a key's span reads gets a
    ``first`` past the key's run — past the column, for the last key."""
    trace = hand_trace("rrw", [0, 0, 0])
    index = trace.index()
    ctx, host = kernel_host(trace, "invalidate")
    tally = _SpanTally()
    groups = (
        np.array([0]),
        np.array([index.read_pos.size + 1]),
        np.array([0]),
        2,
        np.array([0]),
        np.array([1]),
    )
    _kernel_reactive_span(ctx, host, tally, _SpanPrelude(trace, index, groups))
    assert (tally.reads, tally.buffered_writes, tally.new_fills) == (0, 1, [])
    [(position, buffered)] = tally.buffer_entries
    assert (position, buffered.write_count, buffered.first_write_time) == (2, 1, 0.2)


@pytest.mark.parametrize("ops", ["rrrrrrrr", "wwwwwwww"], ids=["read-only", "write-only"])
@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive"])
def test_one_sided_traces_replay_identically_on_every_engine(ops: str, policy: str) -> None:
    """No writes at all leaves the write columns empty; no reads at all, the
    read columns — every endpoint gather must tolerate both."""
    trace = hand_trace(ops * 4, [0, 1, 2, 0, 1, 2, 3, 0] * 4)
    index = trace.index()
    assert (index.write_pos.size == 0) if ops[0] == "r" else (index.read_pos.size == 0)
    config = dict(staleness_bound=0.5, duration=4.0)
    scalar = Simulation(trace.iter_requests(), policy=make_policy(policy), **config).run()
    simulation = VectorSimulation(trace, policy=make_policy(policy), **config)
    assert_identical(scalar.as_dict(), simulation.run().as_dict())
    assert simulation.used_vector_path
    fleet = dict(
        policy=policy,
        num_nodes=3,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        **config,
    )
    fleet_scalar = ClusterSimulation(trace.iter_requests(), **fleet).run()
    fleet_simulation = VectorClusterSimulation(trace, **fleet)
    assert_identical(fleet_scalar.as_dict(), fleet_simulation.run().as_dict())
    assert fleet_simulation.used_vector_path


@pytest.mark.parametrize(
    "policy", ["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"]
)
def test_one_kernel_call_per_span_and_owned_node(monkeypatch, tmp_path, policy: str) -> None:
    """The cost model, counted: a reactive replay calls the span kernel once
    per non-empty span (and node), however many keys the span touches; a TTL
    replay has no flush boundaries, so its whole trace is one span — one
    kernel call per host.  The one process replaying the fleet owns every
    node, whatever ``workers`` says."""
    log = tmp_path / "kernel_calls.log"
    log.touch()

    def counted(kernel):
        def counting(ctx, host, tally, groups):
            # A file, so that a call in any process would be counted.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            kernel(ctx, host, tally, groups)

        return counting

    for name in ("_kernel_reactive_span", "_kernel_ttl_expiry", "_kernel_ttl_polling"):
        kernel = counted(getattr(sim_vector, name))
        monkeypatch.setattr(sim_vector, name, kernel)

    def calls_of(replay) -> int:
        log.write_text("")
        replay()
        pids = log.read_text().split()
        assert set(pids) <= {str(os.getpid())}
        return len(pids)

    bound, duration = 0.05, 2.0
    trace = compile_workload(
        PoissonZipfWorkload(num_keys=120, rate_per_key=40.0, seed=2), duration
    )
    spans = non_empty_spans(trace.times, bound)
    assert spans == 40
    if policy.startswith("ttl-"):
        spans = 1
    fleet = dict(policy=policy, num_nodes=3, staleness_bound=bound, duration=duration)
    assert calls_of(
        VectorSimulation(
            trace, policy=make_policy(policy), staleness_bound=bound, duration=duration
        ).run
    ) == spans
    assert calls_of(VectorClusterSimulation(trace, **fleet).run) == 3 * spans
    for workers in (2, 8):
        assert calls_of(lambda: replay_cluster_parallel(trace, workers=workers, **fleet)) == 3 * spans


@pytest.mark.parametrize("bound", [0.1, 0.5, 2.0])
@pytest.mark.parametrize(
    "policy", ["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"]
)
def test_vector_single_cache_matches_a_one_node_vector_fleet(policy: str, bound: float) -> None:
    """One span loop: the single cache is the fleet's one-host, unrouted case."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=60, rate_per_key=20.0, seed=9), 4.0)
    config = dict(staleness_bound=bound, duration=4.0, workload_name="poisson")
    single = VectorSimulation(trace, policy=make_policy(policy), **config)
    fleet = VectorClusterSimulation(trace, policy=policy, num_nodes=1, **config)
    assert_identical(single.run().as_dict(), fleet.run().totals.as_dict())
    assert single.used_vector_path and fleet.used_vector_path
