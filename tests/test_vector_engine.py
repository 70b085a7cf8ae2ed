"""Byte-identity of the columnar replay engine against the scalar pipeline.

The vector engine's contract is not "approximately the same results faster"
but *byte-identical* results: every counter, every accumulated float, every
serialised row must match the scalar engine exactly.  These tests compare
``as_dict()`` payloads through ``json.dumps`` so float formatting differences
(which would leak into exported artifacts) fail too.
"""

import copy
import dataclasses
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
from repro.backend.datastore import DataStore
from repro.cache.entry import CacheEntry, EntryState
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
from repro.core.cost_model import CostModel
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy, poll_count, poll_instant
from repro.core.write_reactive import AlwaysInvalidatePolicy
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.registry import make_cost_model, make_policy
from repro.experiments.spec import ChannelSpec
from repro.cluster import replay_cluster_parallel
from repro.perf.perf import non_empty_spans
from repro.resilience import ChaosSpec
from repro.sim import vector as sim_vector
from repro.sim.node import CacheNode
from repro.sim.simulation import Simulation
from repro.sim.vector import (
    ENVELOPE,
    VectorSimulation,
    _HostColumns,
    _kernel_reactive_window,
    _ReplayContext,
    _GroupBlock,
    _PreludeBlock,
    envelope_exit,
    replay_in_lockstep,
)
from repro.sketch.countmin import CountMinEWSketch
from repro.sketch.exact import ExactEWTracker
from repro.store.snapshot import StoreConfig, canonical_datastore_bytes
from repro.tier.config import TierConfig
from repro.workload.base import constant_column
from repro.workload.compiled import CompiledTrace, TraceIndex, compile_workload
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


def single_cut_block(keys, first, count, stride, write_lo, write_hi) -> _GroupBlock:
    """The single cache's one-cut group block of these groups."""
    return _GroupBlock(
        keys, first, count, stride, write_lo, write_hi,
        np.zeros(keys.size, dtype=np.int64), 1, [0, keys.size],
        np.array([[0, keys.size]]), np.array([[int((write_hi - write_lo).sum())]]),
    )


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
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(WorkloadError):
            compile_workload(workload, bad)


def four_request_columns(**replaced):
    """A valid 4-request trace's columns (3 reads, 1 write), some replaced."""
    columns = dict(
        times=np.array([0.0, 0.5, 1.0, 1.5]),
        key_ids=np.array([0, 1, 0, 1]),
        is_read=np.array([True, False, True, True]),
        key_sizes=np.full(4, 16, dtype=np.int64),
        value_sizes=np.full(4, 64, dtype=np.int64),
        key_names=["key-0", "key-1"],
    )
    columns.update(replaced)
    return columns


def test_compiled_trace_refuses_an_integer_is_read_column() -> None:
    """A 0/1 ``is_read`` reads as 4 reads and 4 writes to a boolean mask's
    users and as 3 reads and 1 write to the scalar feed."""
    with pytest.raises(WorkloadError, match="column is_read must be a 1-D bool array"):
        CompiledTrace(**four_request_columns(is_read=np.array([1, 0, 1, 1])))


def test_compiled_trace_refuses_a_size_column_one_row_short() -> None:
    with pytest.raises(WorkloadError, match="column value_sizes has 3 rows, times has 4"):
        CompiledTrace(**four_request_columns(value_sizes=np.full(3, 64, dtype=np.int64)))


def test_compiled_trace_refuses_a_key_column_one_row_too_long() -> None:
    """The extra row used to replay truncated to the time column, unreported."""
    with pytest.raises(WorkloadError, match="column key_ids has 5 rows, times has 4"):
        CompiledTrace(**four_request_columns(key_ids=np.array([0, 1, 0, 1, 0])))


def test_compiled_trace_refuses_float_key_ids() -> None:
    """Float ids used to surface as numpy's TypeError from inside the index."""
    with pytest.raises(WorkloadError, match="column key_ids must be a 1-D integer array"):
        CompiledTrace(**four_request_columns(key_ids=np.array([0.0, 1.0, 0.0, 1.0])))


def test_compiled_trace_checks_columns_without_reading_them() -> None:
    """Shape and dtype only: a constant-column view, a two-dimensional times
    array and a plain list are told apart without a pass over any rows."""
    trace = CompiledTrace(**four_request_columns(key_sizes=constant_column(16, 4)))
    assert trace.key_sizes.strides == (0,)
    with pytest.raises(WorkloadError, match="column times must be a 1-D float array"):
        CompiledTrace(**four_request_columns(times=np.zeros((2, 2))))
    with pytest.raises(WorkloadError, match="got list"):
        CompiledTrace(**four_request_columns(times=[0.0, 0.5, 1.0, 1.5]))


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


@pytest.mark.parametrize("capacity", [None, 16], ids=["kernels", "scalar-fallback"])
def test_the_single_cache_run_takes_no_kill_point_on_either_path(capacity) -> None:
    """``Simulation.run`` takes no ``stop_at``; the columnar single cache took
    one on its kernel path, ignored it and replayed the whole trace."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=60, rate_per_key=30.0, seed=7), 10.0)

    def simulation():
        return VectorSimulation(
            trace, policy=make_policy("invalidate"), staleness_bound=1.0,
            cache_capacity=capacity, duration=10.0,
        )

    with pytest.raises(TypeError):
        Simulation(trace, policy=make_policy("invalidate"), duration=10.0).run(stop_at=5.0)
    for call in (lambda sim: sim.run(stop_at=5.0), lambda sim: sim.run(5.0)):
        engine = simulation()
        with pytest.raises(TypeError):
            call(engine)
        # Refused before the replay started: the engine can still run once.
        assert engine.run().duration == 10.0
        assert engine.used_vector_path == (capacity is None)


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
    "policy": WalkCase("policy", _policy(_HookedInvalidate)),
    "estimator": WalkCase(
        "estimator", _policy(lambda: AdaptivePolicy(estimator=CountMinEWSketch()))
    ),
    "ttl-above-bound": WalkCase("ttl-above-bound", _policy(lambda: TTLExpiryPolicy(ttl=2.0))),
    "ttl-resolution": WalkCase("ttl-resolution", _policy(lambda: TTLExpiryPolicy(ttl=1e-19))),
    "hot-key": WalkCase("hot-key", _config(hotkey=HotKeyConfig(hot_policy="update")), FLEET),
    "l1-tier": WalkCase("l1-tier", _config(tier=TierConfig(l1_capacity=16)), FLEET),
    "bounded-cache": WalkCase("bounded-cache", _config(cache_capacity=16)),
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


def _warm_ttl_entries(
    simulation, trace: CompiledTrace, policy: str, state: EntryState, skipped: bool
) -> None:
    """Hand every node of ``simulation`` entries a replay under ``policy``
    could have left, in ``state``: two of every three keys the trace reads
    (the third starts absent on the same host) and one it never mentions,
    each fetched at or before its key's first read and — under polling —
    accounted on its poll grid as of a read between the two.  When
    ``skipped``, the accounting point then jumped to an instant off the grid
    just before the first read, ``as_of`` left behind, as a warm rejoin
    (:meth:`CacheNode.restore_warm`) or a partition's end leaves it: the
    polls in between were never performed."""
    rng = np.random.default_rng(11)
    ttl = 0.5  # the bound the test replays at
    index = trace.index()
    first_read = {
        trace.key_names[key]: float(trace.times[index.read_pos[lo]])
        for key, (lo, hi) in enumerate(zip(index.read_offsets[:-1].tolist(),
                                           index.read_offsets[1:].tolist()))
        if hi > lo
    }
    names = [name for rank, name in enumerate(first_read) if rank % 3] + ["held-nowhere"]
    nodes = simulation.nodes() if hasattr(simulation, "nodes") else [simulation.node]
    for node in nodes:
        for name in names:
            first = first_read.get(name, float(trace.times[-1]))
            fetched_at = float(rng.uniform(0.0, first))
            accounted = fetched_at
            if policy == "ttl-polling":
                settled_at = float(rng.uniform(fetched_at, first))
                accounted = poll_instant(fetched_at, poll_count(fetched_at, settled_at, ttl), ttl)
            as_of = accounted
            if skipped:
                accounted = max(accounted, float(rng.uniform(first - 0.4, first)))
            node.cache._entries[name] = CacheEntry(
                key=name, version=0, as_of=as_of, fetched_at=fetched_at, key_size=24,
                value_size=96, state=state, last_poll_accounted=accounted, hits=3,
            )


def _late_trace() -> CompiledTrace:
    """A 6 s PoissonZipf trace that starts 3 s in: room for entries handed
    in before its first request."""
    compiled = compile_workload(
        PoissonZipfWorkload(num_keys=40, rate_per_key=2.0, read_ratio=0.5, seed=1), 6.0
    )
    return CompiledTrace(
        times=compiled.times + 3.0,
        key_ids=compiled.key_ids,
        is_read=compiled.is_read,
        key_sizes=compiled.key_sizes,
        value_sizes=compiled.value_sizes,
        key_names=compiled.key_names,
    )


@pytest.mark.parametrize("state", list(EntryState), ids=lambda state: state.name)
@pytest.mark.parametrize("nodes", [0, 3], ids=["single", "fleet-3"])
@pytest.mark.parametrize(
    "policy, skipped",
    [("ttl-expiry", False), ("ttl-polling", False), ("ttl-polling", True)],
    ids=["ttl-expiry", "ttl-polling", "ttl-polling-skipped"],
)
def test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows(
    policy: str, skipped: bool, nodes: int, state: EntryState
) -> None:
    """Entries in every node's cache before ``run()``, the trace starting 3 s
    later at a bound of 0.5: a valid entry's first read may hit, expire or
    settle the polls it owes; an invalidated or expired one's is a stale
    miss (after those polls); an absent key's is a cold fill.  The TTL
    kernels start from the loaded rows and reproduce the scalar loop's rows
    and entries; at ``c_m = 0.3`` the poll and stale-miss charges must fold
    in stream order to match to the bit.  An entry whose accounting skipped
    polls serves its reads up to the next poll with its old ``as_of``, and
    those hits can violate the bound."""
    trace = _late_trace()
    config = dict(staleness_bound=0.5, duration=9.0, costs=CostModel(miss=0.3))
    if nodes:
        scalar = ClusterSimulation(trace.iter_requests(), policy=policy, num_nodes=nodes, **config)
        columnar = VectorClusterSimulation(trace, policy=policy, num_nodes=nodes, **config)
    else:
        scalar = Simulation(trace.iter_requests(), policy=make_policy(policy), **config)
        columnar = VectorSimulation(trace, policy=make_policy(policy), **config)
    for simulation in (scalar, columnar):
        _warm_ttl_entries(simulation, trace, policy, state, skipped)
    expected, result = scalar.run(), columnar.run()
    assert (columnar.used_vector_path, columnar.fallback_reason) == (True, None)
    assert_identical(expected.as_dict(), result.as_dict())
    violations = (expected.totals if nodes else expected).staleness_violations
    assert (violations > 0) == (skipped and state is EntryState.VALID)
    for node, scalar_node in zip(
        *(engine.nodes() if nodes else [engine.node] for engine in (columnar, scalar))
    ):
        assert [
            (name, dataclasses.asdict(entry)) for name, entry in node.cache._entries.items()
        ] == [
            (name, dataclasses.asdict(entry))
            for name, entry in scalar_node.cache._entries.items()
        ]


@pytest.mark.parametrize("policy", ["ttl-expiry", "ttl-polling"])
def test_ttl_hosts_handed_cached_entries_replay_the_scalar_rows_as_one_unit(
    monkeypatch, policy: str
) -> None:
    """The handed-in case of a stacked unit: replays at bounds 0.5 and 0.25,
    single cache and 3-node fleet, every node handed valid entries whose
    polling accounting skipped polls, stepped as one unit — one kernel call
    for all eight hosts.  Each member's rows and entries are its scalar
    twin's: each host expires or polls at its own TTL and counts the
    violations of its handed entries against its own bound."""
    trace = _late_trace()
    pairs = []
    for bound in (0.5, 0.25):
        config = dict(staleness_bound=bound, duration=9.0, costs=CostModel(miss=0.3))
        pairs += [
            (
                Simulation(trace.iter_requests(), policy=make_policy(policy), **config),
                VectorSimulation(trace, policy=make_policy(policy), **config),
            ),
            (
                ClusterSimulation(trace.iter_requests(), policy=policy, num_nodes=3, **config),
                VectorClusterSimulation(trace, policy=policy, num_nodes=3, **config),
            ),
        ]
    for pair in pairs:
        for simulation in pair:
            _warm_ttl_entries(
                simulation, trace, policy, EntryState.VALID, policy == "ttl-polling"
            )
    name = "_kernel_ttl_expiry" if policy == "ttl-expiry" else "_kernel_ttl_polling"
    kernel, calls = getattr(sim_vector, name), []

    def counted(ctx, columns, tallies, groups):
        calls.append(len(columns.hosts))
        return kernel(ctx, columns, tallies, groups)

    monkeypatch.setattr(sim_vector, name, counted)
    results = replay_in_lockstep([columnar.replay() for _, columnar in pairs])
    assert calls == [8]
    violations = []
    for (scalar, columnar), result in zip(pairs, results):
        expected = scalar.run()
        assert_identical(expected.as_dict(), result.as_dict())
        nodes = columnar.nodes() if hasattr(columnar, "nodes") else [columnar.node]
        scalar_nodes = scalar.nodes() if hasattr(scalar, "nodes") else [scalar.node]
        for node, scalar_node in zip(nodes, scalar_nodes, strict=True):
            assert list(node.cache._entries.items()) == list(scalar_node.cache._entries.items())
        violations.append(
            (expected.totals if hasattr(expected, "totals") else expected).staleness_violations
        )
    if policy == "ttl-polling":
        assert all(violations) and violations[0] != violations[2]


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
    """A replay context, a fresh single-cache node and the columns loaded from it."""
    simulation = VectorSimulation(
        trace, policy=make_policy(policy), staleness_bound=100.0, duration=100.0
    )
    ctx = _ReplayContext(trace, trace.index(), simulation.datastore, 100.0, 100.0, 1.0, 1.0)
    return ctx, simulation.node, _HostColumns([simulation.node], trace.key_names)


class WindowLog:
    """Spy on the reactive window kernel and the span table while replays
    run: each call's stacked hosts and cuts (its flushes) by bound, and the
    batches the walks looked their windows up in, by bound.  Without an obs
    window to roll or a stacking budget to reach, a unit's window is the
    rest of the batch its cut is in, so its kernel calls are those
    batches."""

    def __init__(self, monkeypatch) -> None:
        kernel, span = sim_vector._kernel_reactive_window, TraceIndex.span
        self.reset()

        def counted(ctx, columns, prelude, flushes):
            self.hosts.append(prelude.block.hosts)
            self.flushes.append((ctx.bound, len(flushes)))
            return kernel(ctx, columns, prelude, flushes)

        def looked_up(index, start, end, schedule=None):
            found = span(index, start, end, schedule)
            if schedule is not None:
                [bound] = [bound for bound, ends in index.schedules.items() if ends is schedule]
                self.looked_up.setdefault(bound, []).append(found[0])
            return found

        monkeypatch.setattr(sim_vector, "_kernel_reactive_window", counted)
        monkeypatch.setattr(TraceIndex, "span", looked_up)

    def reset(self) -> None:
        self.hosts, self.flushes, self.looked_up = [], [], {}

    def cuts(self) -> dict:
        """Cuts the kernel calls replayed, by bound."""
        cuts: dict = {}
        for bound, flushes in self.flushes:
            cuts[bound] = cuts.get(bound, 0) + flushes
        return cuts

    def batches(self, bound: Optional[float] = None) -> int:
        """The distinct batches the walks looked windows up in, under one
        bound's schedule or all."""
        return sum(
            len(set(map(id, seen))) for of, seen in self.looked_up.items()
            if bound is None or of == bound
        )


def whole_trace_groups(trace: CompiledTrace) -> _GroupBlock:
    batch, _ = trace.index().span(0, len(trace))
    keys, read_lo, read_hi, write_lo, write_hi = batch.columns
    return single_cut_block(keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi)


def test_span_kernel_never_lets_an_unsigned_position_meet_a_sentinel() -> None:
    """``read_pos``/``write_pos`` are uint32: a ``-1`` mixed into a gather of
    them wraps to 4 294 967 295 and would sort a write-only key's first
    observation (and its counter row) after everything else, or its first
    surviving write (where the flush drains it) behind the others."""
    #              0    1    2    3    4    5
    trace = hand_trace("wrrwrw", [2, 0, 1, 1, 1, 0])
    index = trace.index()
    assert index.read_pos.dtype == index.write_pos.dtype == np.uint32
    prelude = _PreludeBlock(trace, index, whole_trace_groups(trace))
    ctx, node, columns = kernel_host(trace)
    [tally] = _kernel_reactive_window(ctx, columns, prelude, [100.0])
    # Rows are key ids: first observation, first fill.
    assert columns.seen.tolist() == [1, 2, 0]  # write-only key 2: seen at its write
    assert columns.filled[:2].tolist() == [1, 2]
    for value in (tally.reads, tally.hits, tally.cold_misses, tally.buffered_writes):
        assert type(value) is int
    columns.write_back()
    assert node.policy.estimator.state() == [
        ["key-2", 0, 0, 1],
        ["key-0", 0, 0, 1],
        ["key-1", 1, 1, 0],
    ]
    assert list(node.cache._entries) == ["key-0", "key-1"]
    # The flush drains in first-surviving-write order (key 2 at 0, key 1 at
    # 3, key 0 at 5): the order its invalidates enter the tracker.
    ctx, node, columns = kernel_host(trace, "invalidate")
    _kernel_reactive_window(ctx, columns, prelude, [100.0])
    columns.write_back()
    assert list(node.tracker._invalidated) == ["key-2", "key-1", "key-0"]


def test_span_kernel_skips_every_read_gather_for_groups_without_reads() -> None:
    """A round-robin replica that serves none of a key's span reads gets a
    ``first`` past the key's run — past the column, for the last key."""
    trace = hand_trace("rrw", [0, 0, 0])
    index = trace.index()
    ctx, node, columns = kernel_host(trace, "invalidate")
    groups = single_cut_block(
        np.array([0]),
        np.array([index.read_pos.size + 1]),
        np.array([0]),
        2,
        np.array([0]),
        np.array([1]),
    )
    [tally] = _kernel_reactive_window(ctx, columns, _PreludeBlock(trace, index, groups), [100.0])
    assert (tally.reads, tally.buffered_writes, columns.state.tolist()) == (0, 1, [0])
    assert tally.messages[:2] == [0, 1]  # the write's invalidate, at the flush
    columns.write_back()
    assert node.cache._entries == {}
    assert node.tracker._invalidated == {"key-0": 100.0}


def prepare_node(node) -> None:
    """Hand a node state before its run: a valid entry whose key is also
    dirty (its first cut's write joins the buffered one), an invalidated
    entry the tracker holds, an entry, a tracker row, a buffered write and
    an E[W] row of keys the trace never names."""
    entries = node.cache._entries
    for name, version, state in (
        ("ghost", 4, EntryState.VALID),
        ("key-1", 0, EntryState.INVALIDATED),
        ("key-0", 0, EntryState.VALID),
    ):
        entries[name] = CacheEntry(
            key=name, version=version, as_of=0.0, fetched_at=0.0, state=state, hits=3
        )
    node.tracker.mark_invalidated("phantom", 0.0)
    node.tracker.mark_invalidated("key-1", 0.0)
    node.buffer.record_write("phantom", 0.0, key_size=16, value_size=32)
    node.buffer.record_write("key-0", 0.0, key_size=16, value_size=32)
    estimator = getattr(node.policy, "estimator", None)
    if estimator is not None:
        estimator.observe_write("spectre")
        estimator.observe_write("key-3")
        estimator.observe_read("key-3")


def node_state(node) -> dict:
    """What a run leaves on a node, dict orders included."""
    estimator = getattr(node.policy, "estimator", None)
    return {
        "entries": [(key, repr(entry)) for key, entry in node.cache._entries.items()],
        "invalidated": list(node.tracker._invalidated.items()),
        "pending": [repr(write) for write in node.buffer._pending.values()],
        "total_buffered": node.buffer.total_buffered,
        "counters": None if estimator is None else estimator.state(),
        "decisions": [getattr(node.policy, name, None)
                      for name in ("decisions_update", "decisions_invalidate")],
    }


@pytest.mark.parametrize("fleet", [False, True], ids=["single", "fleet"])
@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive", "adaptive+cs"])
def test_state_handed_in_loads_into_the_columns_and_comes_back(policy: str, fleet: bool) -> None:
    """A reactive replay loads the hosts' objects into its columns when its
    span loop starts and writes them back after its last flush: state a
    caller prepared — names the trace never mentions included — comes back
    in the scalar engine's dict orders, with the scalar engine's rows, on
    the single cache and on every node of a fleet (RF 2, round-robin)."""
    trace = hand_trace("rwrwwrrwrw" * 3, [0, 1, 2, 0, 1, 3, 1, 2, 0, 3] * 3)
    config = dict(staleness_bound=0.5, duration=3.5)
    if fleet:
        config.update(
            policy=policy,
            num_nodes=3,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        )
        scalar = ClusterSimulation(trace.iter_requests(), **config)
        vector = VectorClusterSimulation(trace, **config)
    else:
        scalar = Simulation(trace.iter_requests(), policy=make_policy(policy), **config)
        vector = VectorSimulation(trace, policy=make_policy(policy), **config)
    for node in scalar._node_list + vector._node_list:
        prepare_node(node)
    assert_identical(scalar.run().as_dict(), vector.run().as_dict())
    assert vector.used_vector_path
    for vector_node, scalar_node in zip(vector._node_list, scalar._node_list, strict=True):
        assert node_state(vector_node) == node_state(scalar_node)
        assert list(vector_node.cache._entries)[0] == "ghost"


#: Four adaptive-family and write-reactive policies no two of which decide
#: alike: zero-length runs counted, another prior, cache-state knowledge.
STACKED_POLICIES = (
    lambda: AdaptivePolicy(ExactEWTracker(count_zero_runs=True)),
    lambda: AdaptivePolicy(ExactEWTracker(default_estimate=3.0)),
    lambda: make_policy("adaptive+cs"),
    lambda: make_policy("invalidate"),
)


@pytest.mark.parametrize("fleet", [False, True], ids=["single", "fleet"])
def test_a_unit_stacks_members_with_their_own_policies_and_handed_in_state(
    monkeypatch, fleet: bool
) -> None:
    """Each stacked host keeps its own policy and estimator: one unit of four
    members with different rules, priors and run counting, each handed
    state with names the trace never has, gives every member the rows and
    node state of its replay alone, with one kernel call per window of
    cuts."""
    trace = hand_trace("rwrwwrrwrw" * 3, [0, 1, 2, 0, 1, 3, 1, 2, 0, 3] * 3)
    config = dict(staleness_bound=0.5, duration=3.5)

    def engines():
        if fleet:
            built = [
                VectorClusterSimulation(
                    trace,
                    policy=policy,
                    num_nodes=3,
                    replication=ReplicationConfig(factor=2, read_policy="round-robin"),
                    **config,
                )
                for policy in STACKED_POLICIES
            ]
        else:
            built = [
                VectorSimulation(trace, policy=policy(), **config) for policy in STACKED_POLICIES
            ]
        for engine in built:
            for node in engine._node_list:
                prepare_node(node)
        return built

    alone = engines()
    rows = [engine.run().as_dict() for engine in alone]
    windows = WindowLog(monkeypatch)
    unit = engines()
    results = replay_in_lockstep([engine.replay() for engine in unit])
    hosts = len(unit[0]._node_list)
    assert windows.hosts == [len(STACKED_POLICIES) * hosts] * windows.batches()
    assert windows.cuts() == {0.5: non_empty_spans(trace.times, 0.5)}
    for engine, result, row, reference in zip(unit, results, rows, alone, strict=True):
        assert engine.used_vector_path
        assert_identical(row, result.as_dict())
        for node, reference_node in zip(engine._node_list, reference._node_list, strict=True):
            assert node_state(node) == node_state(reference_node)


def test_a_member_leaving_the_envelope_replays_alone_beside_its_unit(monkeypatch) -> None:
    """The seam stacks only replays that can share one: a bounded cache leaves
    the envelope at its first step and replays scalar, a replay under
    another bound cuts the trace elsewhere and is a unit of its own, and so
    is a TTL replay.  Every result equals the replay's alone, and each unit
    takes one kernel call per window of cuts."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, seed=4), 3.0)

    def engines():
        return [
            VectorSimulation(trace, policy=make_policy(policy), staleness_bound=bound,
                             duration=3.0, cache_capacity=capacity)
            for policy, bound, capacity in (
                ("invalidate", 0.2, None),
                ("adaptive", 0.2, 5),
                ("update", 0.2, None),
                ("adaptive+cs", 0.5, None),
                ("ttl-polling", 0.2, None),
            )
        ]

    rows = [engine.run().as_dict() for engine in engines()]
    windows = WindowLog(monkeypatch)
    unit = engines()
    results = replay_in_lockstep([engine.replay() for engine in unit])
    for row, result in zip(rows, results, strict=True):
        assert_identical(row, result.as_dict())
    assert [engine.fallback_reason for engine in unit] == [None, "bounded-cache", None, None, None]
    assert windows.cuts() == {
        0.2: non_empty_spans(trace.times, 0.2), 0.5: non_empty_spans(trace.times, 0.5)
    }
    assert sorted(windows.hosts) == sorted(
        [2] * windows.batches(0.2) + [1] * windows.batches(0.5)
    )


def test_ttl_replays_beside_a_reactive_unit_each_return_their_own_rows(monkeypatch) -> None:
    """TTL replays of the trace and bound a reactive unit replays, stepped
    with it, single cache and fleet: each TTL policy's engines are a unit of
    their own — one TTL kernel call on their stacked columns, the single
    cache's host and the fleet's three, never stacked with the reactive
    members — and every replay returns the row and leaves the node state it
    does alone."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, seed=4), 3.0)
    config = dict(staleness_bound=0.2, duration=3.0)
    members = ("invalidate", "ttl-expiry", "update", "ttl-polling", "adaptive")

    def engines():
        single = [VectorSimulation(trace, policy=make_policy(name), **config) for name in members]
        fleet = [
            VectorClusterSimulation(trace, policy=name, num_nodes=3, **config)
            for name in ("ttl-polling", "invalidate")
        ]
        return single + fleet

    alone = engines()
    rows = [engine.run().as_dict() for engine in alone]
    calls = []
    for name in ("_kernel_reactive_window", "_kernel_ttl_expiry", "_kernel_ttl_polling"):

        def counted(ctx, columns, *args, kernel=getattr(sim_vector, name), name=name):
            calls.append((name, len(columns.hosts)))
            return kernel(ctx, columns, *args)

        monkeypatch.setattr(sim_vector, name, counted)
    windows = WindowLog(monkeypatch)
    unit = engines()
    results = replay_in_lockstep([engine.replay() for engine in unit])
    for engine, result, row, reference in zip(unit, results, rows, alone, strict=True):
        assert engine.used_vector_path
        assert_identical(row, result.as_dict())
        for node, reference_node in zip(engine._node_list, reference._node_list, strict=True):
            assert node_state(node) == node_state(reference_node)
    ttl = sorted(call for call in calls if call[0] != "_kernel_reactive_window")
    assert ttl == [("_kernel_ttl_expiry", 1), ("_kernel_ttl_polling", 4)]
    reactive = [hosts for name, hosts in calls if name == "_kernel_reactive_window"]
    assert reactive == [3 + 3] * windows.batches()
    assert windows.cuts() == {0.2: non_empty_spans(trace.times, 0.2)}


@pytest.mark.parametrize("kind", ["single", "fleet"])
@pytest.mark.parametrize("policy", ["ttl-expiry", "ttl-polling"])
def test_a_ttl_replay_at_a_tiny_bound_asks_for_no_flush_schedule(
    monkeypatch, wall_clock_limit, policy: str, kind: str
) -> None:
    """A TTL replay has no flush work, so its one cut never asks the index
    for the bound's flush schedule: at ``T = 1e-9`` that would hold about 10**9
    cut ends.  The replay finishes at once with the scalar loop's rows."""
    trace = compile_workload(PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, seed=4), 1.0)
    config = dict(staleness_bound=1e-9, duration=1.0)
    if kind == "fleet":
        scalar = ClusterSimulation(trace.iter_requests(), policy=policy, num_nodes=2, **config)
        columnar = VectorClusterSimulation(trace, policy=policy, num_nodes=2, **config)
    else:
        scalar = Simulation(trace.iter_requests(), policy=make_policy(policy), **config)
        columnar = VectorSimulation(trace, policy=make_policy(policy), **config)

    def no_schedule(*args):
        raise AssertionError("a TTL replay asked for a flush schedule")

    monkeypatch.setattr(TraceIndex, "cut_ends", no_schedule)
    with wall_clock_limit(30.0):
        result = columnar.run()
    assert columnar.used_vector_path
    assert_identical(scalar.run().as_dict(), result.as_dict())


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
    """The cost model, counted: a reactive replay calls the window kernel
    once per window of non-empty spans — here a batch of them — however many
    keys the spans touch and however many nodes share them (3 or 8, one
    replica or two); a TTL replay has no flush boundaries, so its whole
    trace is one span — one kernel call in all.  The one process replaying
    the fleet owns every node, whatever ``workers`` says."""
    log = tmp_path / "kernel_calls.log"
    log.touch()

    def counted(kernel):
        def counting(*args):
            # A file, so that a call in any process would be counted.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return kernel(*args)

        return counting

    for name in ("_kernel_reactive_window", "_kernel_ttl_expiry", "_kernel_ttl_polling"):
        kernel = counted(getattr(sim_vector, name))
        monkeypatch.setattr(sim_vector, name, kernel)
    windows = WindowLog(monkeypatch)

    def calls_of(replay) -> int:
        log.write_text("")
        windows.reset()
        replay()
        pids = log.read_text().split()
        assert set(pids) <= {str(os.getpid())}
        if not policy.startswith("ttl-"):
            assert windows.cuts() == {bound: spans} and len(pids) == windows.batches()
        return len(pids)

    bound, duration = 0.05, 2.0
    trace = compile_workload(
        PoissonZipfWorkload(num_keys=120, rate_per_key=40.0, seed=2), duration
    )
    spans = non_empty_spans(trace.times, bound)
    assert spans == 40
    calls = 1 if policy.startswith("ttl-") else 3
    fleet = dict(policy=policy, num_nodes=3, staleness_bound=bound, duration=duration)
    assert calls_of(
        VectorSimulation(
            trace, policy=make_policy(policy), staleness_bound=bound, duration=duration
        ).run
    ) == calls
    assert calls_of(VectorClusterSimulation(trace, **fleet).run) == calls
    for workers in (2, 8):
        assert calls_of(lambda: replay_cluster_parallel(trace, workers=workers, **fleet)) == calls
    wide = dict(
        fleet,
        num_nodes=8,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
    )
    simulation = VectorClusterSimulation(trace, **wide)
    assert calls_of(simulation.run) == calls
    assert simulation.used_vector_path


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


#: One trace for every fleet shape below: compiled once, replayed ~90 times.
FLEET_SHAPE_TRACE = compile_workload(
    PoissonZipfWorkload(num_keys=60, rate_per_key=12.0, seed=21), 2.0
)


@pytest.mark.parametrize("bound", [0.05, 0.5])
@pytest.mark.parametrize(
    "policy", ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]
)
@pytest.mark.parametrize(
    "factor, read_policy",
    [(1, "primary"), (2, "round-robin"), (3, "hash")],
    ids=["rf1-primary", "rf2-round-robin", "rf3-hash"],
)
@pytest.mark.parametrize("nodes", [2, 3, 8])
def test_fleet_cut_in_one_kernel_call_matches_the_scalar_fleet(
    nodes: int, factor: int, read_policy: str, policy: str, bound: float
) -> None:
    """Every node's groups in one table per cut, every host's segment walked
    in one kernel call: per-node rows, fleet totals and the fleet's own
    counters equal the scalar :class:`ClusterSimulation`'s, for 2, 3 and 8
    nodes and a replica set of one, two or three (a 2-node fleet replicates
    "three" copies on its two nodes: a factor above the fleet is refused)."""
    fleet = dict(
        policy=policy,
        num_nodes=nodes,
        replication=ReplicationConfig(factor=min(factor, nodes), read_policy=read_policy),
        staleness_bound=bound,
        duration=2.0,
        workload_name="poisson",
    )
    scalar = ClusterSimulation(FLEET_SHAPE_TRACE.iter_requests(), **fleet).run()
    simulation = VectorClusterSimulation(FLEET_SHAPE_TRACE, **fleet)
    assert_identical(scalar.as_dict(), simulation.run().as_dict())
    assert simulation.used_vector_path


# --------------------------------------------------------------------- #
# The end of a columnar replay
# --------------------------------------------------------------------- #

END_TRACE = compile_workload(PoissonZipfWorkload(num_keys=60, rate_per_key=5.0, seed=21), 8.0)
END_FLEET = dict(num_nodes=3, replication=ReplicationConfig(factor=2, read_policy="round-robin"))


def pending(store: DataStore) -> bool:
    """Whether ``store`` still holds its histories' deferred build."""
    return "_pending_build" in vars(store) and "_histories" not in vars(store)


def end_engines(shape: str, bound: float, columnar: bool) -> list:
    """Every kernel policy's replay of :data:`END_TRACE` for 8 s at ``bound``:
    on the single cache, on a 3-node fleet (RF 2, round-robin), or — the
    ``lockstep`` shape — both, as one sweep steps them."""
    config = dict(staleness_bound=bound, duration=8.0)

    def source():
        return END_TRACE if columnar else END_TRACE.iter_requests()

    single = VectorSimulation if columnar else Simulation
    fleet = VectorClusterSimulation if columnar else ClusterSimulation
    engines = []
    if shape in ("single", "lockstep"):
        engines += [single(source(), policy=make_policy(name), **config) for name in KERNEL_POLICIES]
    if shape in ("fleet", "lockstep"):
        engines += [
            fleet(source(), policy=name, **END_FLEET, **config) for name in KERNEL_POLICIES
        ]
    return engines


@pytest.mark.parametrize("shape", ["single", "fleet", "lockstep"])
@pytest.mark.parametrize("bound", [0.1, 3.0, 10.0])
def test_a_replay_ends_on_its_columns_and_defers_the_histories(shape: str, bound: float) -> None:
    """An 8 s run at T = 0.1 (the float flushes fall short of 8), 3 and 10
    (the horizon is no flush instant) ends with a trailing flush or a poll
    settle at 8: on the columns, before the write-back.  Every policy's
    replay, alone or stepped with the others as a sweep steps them, returns
    the scalar row and leaves every node's entries, tracker, buffer and
    E[W] rows as the scalar engine does; its datastore holds the deferred
    build until a history is read, and then the scalar store's bytes, in
    the scalar store's key order."""
    scalar = end_engines(shape, bound, columnar=False)
    columnar = end_engines(shape, bound, columnar=True)
    expected = [engine.run().as_dict() for engine in scalar]
    if shape == "lockstep":
        results = replay_in_lockstep([engine.replay() for engine in columnar])
    else:
        results = [engine.run() for engine in columnar]
    for engine, result, row, reference in zip(columnar, results, expected, scalar, strict=True):
        assert engine.used_vector_path
        assert_identical(row, result.as_dict())
        for node, scalar_node in zip(engine._node_list, reference._node_list, strict=True):
            assert node_state(node) == node_state(scalar_node)
            assert not node.buffer._pending
        store = engine.datastore
        assert pending(store)
        assert store.total_writes == reference.datastore.total_writes
        assert store.known_keys() == reference.datastore.known_keys()
        assert not pending(store)
        assert canonical_datastore_bytes(store) == canonical_datastore_bytes(reference.datastore)


@pytest.mark.parametrize("nodes", [0, 3], ids=["single", "fleet-3"])
def test_an_off_grid_polling_entry_settles_at_the_horizon_on_the_columns(
    monkeypatch, nodes: int
) -> None:
    """Valid TTL-polling entries accounted off their poll grid (the
    ``handed_cached`` skipped shapes, one under a name the trace never
    mentions), replayed to a horizon 3 s past the last request at
    ``c_m = 0.3``: the settle at the horizon charges every entry's owed
    polls on the columns — no ``account_polls`` call, no history read —
    and the row, ``freshness_cost`` to the bit, and the entries equal the
    scalar engine's."""
    kept = END_TRACE.times < 6.0
    trace = CompiledTrace(
        times=END_TRACE.times[kept] + 3.0,
        key_ids=END_TRACE.key_ids[kept],
        is_read=END_TRACE.is_read[kept],
        key_sizes=END_TRACE.key_sizes[kept],
        value_sizes=END_TRACE.value_sizes[kept],
        key_names=END_TRACE.key_names,
    )
    config = dict(staleness_bound=0.5, duration=12.0, costs=CostModel(miss=0.3))
    if nodes:
        scalar = ClusterSimulation(trace.iter_requests(), policy="ttl-polling", num_nodes=nodes,
                                   **config)
        columnar = VectorClusterSimulation(trace, policy="ttl-polling", num_nodes=nodes, **config)
    else:
        scalar = Simulation(trace.iter_requests(), policy=make_policy("ttl-polling"), **config)
        columnar = VectorSimulation(trace, policy=make_policy("ttl-polling"), **config)
    for simulation in (scalar, columnar):
        _warm_ttl_entries(simulation, trace, "ttl-polling", EntryState.VALID, skipped=True)
    expected = scalar.run()
    settled = []
    account_polls = CacheNode.account_polls

    def counted(node, entry, now):
        settled.append(now)
        account_polls(node, entry, now)

    monkeypatch.setattr(CacheNode, "account_polls", counted)
    result = columnar.run()
    assert columnar.used_vector_path and not settled and pending(columnar.datastore)
    assert_identical(expected.as_dict(), result.as_dict())
    totals = [(result.totals, expected.totals)] if nodes else [(result, expected)]
    for got, want in totals:
        assert float.hex(got.freshness_cost) == float.hex(want.freshness_cost)
        assert got.polls == want.polls > 0
    for node, scalar_node in zip(columnar._node_list, scalar._node_list, strict=True):
        assert node.cache._entries["held-nowhere"].last_poll_accounted > 11.0
        assert [(name, dataclasses.asdict(entry)) for name, entry in node.cache._entries.items()] == [
            (name, dataclasses.asdict(entry)) for name, entry in scalar_node.cache._entries.items()
        ]


def deferred_store() -> DataStore:
    """The datastore of a finished columnar replay, its histories deferred."""
    engine = VectorSimulation(END_TRACE, policy=make_policy("update"), staleness_bound=1.0,
                              duration=8.0)
    engine.run()
    assert pending(engine.datastore)
    return engine.datastore


def eager_store() -> DataStore:
    engine = Simulation(END_TRACE.iter_requests(), policy=make_policy("update"),
                        staleness_bound=1.0, duration=8.0)
    engine.run()
    return engine.datastore


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_deferred_store_copies_and_pickles_as_an_eager_one(how: str) -> None:
    """Copying or pickling a store whose histories are deferred runs the
    build first: neither store keeps a pending build, both equal the scalar
    engine's eager store byte for byte, and a deep copy or an unpickled
    store shares no history with the original — a write to one leaves the
    other as it was.  A shallow copy shares the histories dict, as a shallow
    copy of an eager store does."""
    store, eager = deferred_store(), eager_store()
    clone = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda store: pickle.loads(pickle.dumps(store)),
    }[how](store)
    assert not pending(store) and not pending(clone)
    reference = canonical_datastore_bytes(eager)
    assert canonical_datastore_bytes(store) == canonical_datastore_bytes(clone) == reference
    assert clone.known_keys() == store.known_keys() == eager.known_keys()
    if how == "copy":
        assert clone._histories is store._histories
        assert copy.copy(eager)._histories is eager._histories
        return
    assert clone._histories is not store._histories
    assert not {id(history) for history in clone._histories.values()} & {
        id(history) for history in store._histories.values()
    }
    key = store.known_keys()[0]
    clone.write(key, 100.0, 7)
    assert canonical_datastore_bytes(store) == reference
    assert store.latest_version(key) + 1 == clone.latest_version(key)


def test_the_scalar_engines_never_defer_the_histories(monkeypatch) -> None:
    """The scalar loop writes each history as it goes: the single cache, the
    fleet and a columnar engine on its scalar fallback never hand their
    store a deferred build."""

    def refused(store, build):
        raise AssertionError("a scalar replay deferred its histories")

    monkeypatch.setattr(DataStore, "defer_histories", refused)
    config = dict(policy=make_policy("adaptive"), staleness_bound=0.5, duration=8.0)
    engines = [
        Simulation(END_TRACE.iter_requests(), **config),
        ClusterSimulation(END_TRACE.iter_requests(), policy="adaptive", num_nodes=3,
                          staleness_bound=0.5, duration=8.0),
        VectorSimulation(END_TRACE, cache_capacity=10, **config),
    ]
    for engine in engines:
        engine.run()
        assert "_histories" in vars(engine.datastore) and not pending(engine.datastore)
        assert engine.datastore.total_writes == int((~END_TRACE.is_read).sum())
    assert engines[-1].fallback_reason == "bounded-cache"


def test_a_unit_ends_each_window_at_its_members_earliest_obs_roll(monkeypatch) -> None:
    """Members of one unit may roll obs windows at different times, or
    none: a window ends before the first cut any member rolls at, so each
    member's payload and row are the ones it records alone, and the unit
    takes a window per roll of either member (and no more)."""
    from repro.obs.recorder import ObsConfig

    trace = compile_workload(PoissonZipfWorkload(num_keys=40, rate_per_key=10.0, seed=4), 3.0)
    config = dict(staleness_bound=0.05, duration=3.0)
    obs_windows = (0.3, 0.7, None)

    def engines():
        return [
            VectorSimulation(
                trace, policy=make_policy(policy),
                obs=None if window is None else ObsConfig(window=window), **config,
            )
            for policy, window in zip(("invalidate", "update", "adaptive"), obs_windows)
        ]

    alone = []
    for engine in engines():
        result = engine.run()
        alone.append((result.as_dict(), engine.obs and engine.obs.payload()))
    windows = WindowLog(monkeypatch)
    unit = engines()
    results = replay_in_lockstep([engine.replay() for engine in unit])
    for engine, result, (row, payload) in zip(unit, results, alone, strict=True):
        assert_identical(row, result.as_dict())
        assert (engine.obs and engine.obs.payload()) == payload
    assert windows.cuts() == {0.05: non_empty_spans(trace.times, 0.05)}
    # Windows split at either member's rolls — more than the 0.3 s member's
    # alone — and at batch ends, never elsewhere.
    times = trace.times.tolist()
    spans = len({(int(time // 0.3), int(time // 0.7)) for time in times})
    assert len({int(time // 0.3) for time in times}) < len(windows.hosts)
    assert len(windows.hosts) <= spans + windows.batches()
