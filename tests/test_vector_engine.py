"""Byte-identity of the columnar replay engine against the scalar pipeline.

The vector engine's contract is not "approximately the same results faster"
but *byte-identical* results: every counter, every accumulated float, every
serialised row must match the scalar engine exactly.  These tests compare
``as_dict()`` payloads through ``json.dumps`` so float formatting differences
(which would leak into exported artifacts) fail too.
"""

import gc
import json
import pickle
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.experiments.bench import bench_policy
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import CompiledTrace, compile_workload
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
    gc.collect()  # the finished simulation is cyclic garbage that holds the trace
    gc.disable()
    try:
        del trace
        assert index_ref() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------- #
# Bench layer engine plumbing
# --------------------------------------------------------------------- #

def test_bench_policy_vector_rows_match_scalar_results() -> None:
    scalar = bench_policy("invalidate", num_requests=20_000, num_keys=300)
    vector = bench_policy(
        "invalidate", num_requests=20_000, num_keys=300, engine="vector"
    )
    for key in ("requests", "hit_ratio", "normalized_freshness_cost",
                "normalized_staleness_cost"):
        assert repr(scalar[key]) == repr(vector[key])
    assert scalar["engine"] == "scalar" and vector["engine"] == "vector"
    assert "merge_seconds" in vector and vector["merge_seconds"] == 0.0


def test_bench_policy_rejects_bad_engine_and_worker_combos() -> None:
    with pytest.raises(ConfigurationError, match="engine"):
        bench_policy("invalidate", num_requests=1000, engine="numpy")
    with pytest.raises(ConfigurationError, match="workers"):
        bench_policy("invalidate", num_requests=1000, workers=0)
    with pytest.raises(ConfigurationError, match="num_nodes"):
        bench_policy("invalidate", num_requests=1000, engine="vector", workers=2)
    with pytest.raises(ConfigurationError, match="vector"):
        bench_policy(
            "invalidate", num_requests=1000, num_nodes=3, engine="scalar", workers=2
        )
