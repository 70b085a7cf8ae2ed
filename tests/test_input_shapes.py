"""Input shape is not a behaviour: one replay, however the requests arrive.

Both drivers replay column chunks (:func:`repro.workload.base.iter_chunks`).
A native stream hands over the chunks it draws, a compiled trace hands out
column slices, and everything else — lists, CSV traces, merged or foreign
generators — goes through the batching adapter.  This module pins that the
four shapes give byte-identical rows on every kind of configuration the
scalar core serves, that disorder (NaN included) is refused the same way
whatever the shape, that a compiled trace's key ids outside its name table
are refused the same way by every engine, and that a stream hands a driver
exactly what has not been read from it yet.
"""

import json
import math
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.backend.channel import Channel
from repro.cluster import (
    ClusterSimulation,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
)
from repro.concurrency.config import ConcurrencyConfig
from repro.errors import WorkloadError
from repro.experiments.registry import make_policy
from repro.obs.recorder import ObsConfig
from repro.sim import Simulation, VectorSimulation
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.base import (
    CHUNK_ROWS,
    STREAM_CHUNK_SIZE,
    ChunkStream,
    OpType,
    Request,
    check_sorted,
    ensure_sorted,
    iter_chunks,
)
from repro.workload.compiled import CompiledTrace, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.trace import TraceWorkload, iter_trace, write_trace
from repro.workload.twitter import TwitterWorkload

DURATION = 2.0
#: ~20k requests: more than one drawn chunk and many adapter batches.
WORKLOAD = PoissonZipfWorkload(num_keys=100, rate_per_key=100.0, read_ratio=0.8, seed=21)

REACTIVE = ("invalidate", "update", "adaptive")
ALL_POLICIES = ("ttl-expiry", "ttl-polling") + REACTIVE


def single(**config: Any) -> Callable[..., Dict[str, Any]]:
    def run(source, policy: str, tmp_path) -> Dict[str, Any]:
        kwargs = {key: value(tmp_path) if callable(value) else value for key, value in config.items()}
        simulation = Simulation(
            source,
            policy=make_policy(policy),
            staleness_bound=0.5,
            duration=DURATION,
            workload_name="shape",
            **kwargs,
        )
        row = simulation.run().as_dict()
        if simulation.obs is not None:
            row["obs"] = simulation.obs.payload()
        return row

    return run


def fleet(**config: Any) -> Callable[..., Dict[str, Any]]:
    def run(source, policy: str, tmp_path) -> Dict[str, Any]:
        kwargs = {key: value() if callable(value) else value for key, value in config.items()}
        return ClusterSimulation(
            source,
            policy=policy,
            num_nodes=8,
            staleness_bound=0.5,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            duration=DURATION,
            workload_name="shape",
            seed=5,
            **kwargs,
        ).run().as_dict()

    return run


#: name -> (replay, policies).  Callables build per-run state (a channel's
#: RNG, a scenario's timeline, a fresh store directory).
CONFIGS = {
    "plain": (single(), ALL_POLICIES),
    "bounded-lossy": (
        single(
            cache_capacity=40,
            channel=lambda _: Channel(loss_probability=0.05, delay=0.05, jitter=0.02, seed=9),
        ),
        ("ttl-polling",) + REACTIVE,
    ),
    "concurrency": (
        single(concurrency=ConcurrencyConfig(service_time="exponential", mean=0.002, capacity=4)),
        ("ttl-expiry", "invalidate"),
    ),
    "obs": (single(obs=ObsConfig(window=0.5, span_every=100)), ("invalidate", "adaptive")),
    "store": (
        single(store=lambda tmp_path: StoreConfig(str(tmp_path), snapshot_interval=0.5)),
        ("invalidate", "update"),
    ),
    "fleet-tier-failure": (
        fleet(
            tier=TierConfig(l1_capacity=16, mode="write-through", admission="second-hit"),
            scenario=lambda: make_scenario("node-failure"),
        ),
        ("invalidate", "adaptive"),
    ),
    "flash-crowd": (fleet(scenario=lambda: make_scenario("flash-crowd")), ("invalidate", "update")),
    "optimal": (single(), ("optimal",)),
}

CELLS = [(name, policy) for name, (_, policies) in CONFIGS.items() for policy in policies]


def canonical(row: Dict[str, Any]) -> str:
    # The store times its own syncs and snapshots on the host's clock.
    histograms = row.get("obs", {}).get("metrics", {}).get("histograms", {})
    for name in ("wal_sync_seconds", "snapshot_seconds"):
        histograms.pop(name, None)
    return json.dumps(row, sort_keys=True)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("shapes") / "trace.csv"
    write_trace(WORKLOAD.iter_requests(DURATION), path)
    return path


@pytest.mark.parametrize(("name", "policy"), CELLS, ids=lambda value: value)
def test_every_input_shape_replays_to_the_same_rows(name, policy, trace_path, tmp_path) -> None:
    replay, _ = CONFIGS[name]
    shapes = {
        "list": lambda: WORKLOAD.generate(DURATION),
        "stream": lambda: WORKLOAD.iter_requests(DURATION),
        "compiled": lambda: compile_workload(WORKLOAD, DURATION),
        "csv": lambda: TraceWorkload(path=trace_path).iter_requests(),
    }
    rows = {}
    for shape, source in shapes.items():
        root = tmp_path / shape
        root.mkdir()
        rows[shape] = canonical(replay(source(), policy, root))
    reference = rows.pop("list")
    replayed = json.loads(reference)
    assert replayed["reads"] + replayed["writes"] > STREAM_CHUNK_SIZE > CHUNK_ROWS
    for shape, row in rows.items():
        assert row == reference, f"{name}/{policy}: {shape} rows differ from the list's"


# --------------------------------------------------------------------- #
# Disorder is refused the same way for every shape
# --------------------------------------------------------------------- #

def requests_at(times) -> "list[Request]":
    return [
        Request(time=time, key=f"k{index % 3}", op=OpType.READ if index % 2 else OpType.WRITE)
        for index, time in enumerate(times)
    ]


def as_trace(requests) -> CompiledTrace:
    keys = sorted({request.key for request in requests})
    return CompiledTrace(
        times=np.array([request.time for request in requests], dtype=np.float64),
        key_ids=np.array([keys.index(request.key) for request in requests], dtype=np.int64),
        is_read=np.array([request.is_read for request in requests], dtype=np.bool_),
        key_sizes=np.array([request.key_size for request in requests], dtype=np.int64),
        value_sizes=np.array([request.value_size for request in requests], dtype=np.int64),
        key_names=keys,
    )


SHAPES = {
    "list": list,
    "generator": iter,
    "compiled": as_trace,
    "chunk-stream": lambda requests: as_trace(requests).iter_requests(),
}

#: A step back just past a replay chunk, and one just past a drawn chunk.
DISORDERED = {
    "early": [0.0, 1.0, 2.0, 1.5, 3.0],
    "second-batch": [float(t) for t in range(CHUNK_ROWS + 2)] + [7.0],
    "second-chunk": [float(t) for t in range(STREAM_CHUNK_SIZE + 2)] + [7.0],
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", DISORDERED)
@pytest.mark.parametrize("driver", ["single", "fleet"])
def test_disorder_raises_the_same_error_for_every_shape(shape, case, driver) -> None:
    times = DISORDERED[case]
    index = len(times) - 1 if case != "early" else 3
    message = (
        f"request stream is not sorted by time at index {index}: "
        f"{times[index]} < {times[index - 1]}"
    )
    source = SHAPES[shape](requests_at(times))
    if driver == "single":
        simulation = Simulation(source, policy=make_policy("invalidate"), staleness_bound=1.0)
    else:
        simulation = ClusterSimulation(source, policy="invalidate", num_nodes=2, staleness_bound=1.0)
    with pytest.raises(WorkloadError) as raised:
        simulation.run()
    assert str(raised.value) == message


@pytest.mark.parametrize("shape", SHAPES)
def test_nan_time_is_disorder_for_every_shape(shape) -> None:
    # ``nan < previous`` is false: the old check let NaN through and then
    # compared everything after it against NaN, which is false as well.
    source = SHAPES[shape](requests_at([0.5, math.nan, 0.2]))
    simulation = Simulation(source, policy=make_policy("invalidate"), staleness_bound=1.0)
    with pytest.raises(WorkloadError, match=r"not sorted by time at index 1: nan < 0\.5"):
        simulation.run()


def test_nan_time_is_refused_by_the_sorted_checks_and_the_vector_engine() -> None:
    requests = requests_at([0.5, math.nan, 0.2])
    with pytest.raises(WorkloadError, match="index 1"):
        check_sorted(requests)
    with pytest.raises(WorkloadError, match="index 1"):
        list(ensure_sorted(iter(requests)))
    with pytest.raises(WorkloadError, match="index 1"):
        TraceWorkload(requests=requests)
    vector = VectorSimulation(
        as_trace(requests), policy=make_policy("invalidate"), staleness_bound=1.0
    )
    assert vector.vector_eligible()
    with pytest.raises(WorkloadError, match="not sorted"):
        vector.run()


ENGINES = {
    "single": lambda trace: Simulation(trace, policy=make_policy("invalidate"), staleness_bound=1.0),
    "fleet": lambda trace: ClusterSimulation(
        trace, policy="invalidate", num_nodes=2, staleness_bound=1.0
    ),
    "vector": lambda trace: VectorSimulation(
        trace, policy=make_policy("invalidate"), staleness_bound=1.0
    ),
    "vector-fleet": lambda trace: VectorClusterSimulation(
        trace, policy="invalidate", num_nodes=2, staleness_bound=1.0
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key_id", [-1, 5])
def test_key_ids_outside_the_key_table_are_refused_by_every_engine(engine, key_id) -> None:
    # A negative id used to replay silently as ``key_names[-1]`` on the
    # scalar engines, and a large one to raise a bare IndexError.
    trace = as_trace(requests_at([0.0, 0.5]))
    assert len(trace.key_names) == 2
    trace.key_ids[1] = key_id
    with pytest.raises(WorkloadError) as raised:
        ENGINES[engine](trace).run()
    assert str(raised.value) == "compiled trace has key ids outside its 2-name key table"


HEADER = "time,key,op,key_size,value_size\n"


@pytest.mark.parametrize(
    ("rows", "line"),
    [
        ("0.5,a,read,16,128\nnan,b,read,16,128\n0.2,c,read,16,128\n", 3),
        ("0.5,a,read,16,128\ninf,b,read,16,128\n", 3),
        ("-0.5,a,read,16,128\n", 2),
        ("0.5,a,read,-1,128\n", 2),
        ("0.5,a,read,16,128\n0.6,b,write,16,-128\n", 3),
    ],
    ids=["nan", "inf", "negative-time", "negative-key-size", "negative-value-size"],
)
def test_trace_file_rejects_non_finite_and_negative_fields(tmp_path, rows, line) -> None:
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + rows)
    with pytest.raises(WorkloadError, match=rf"malformed row at {path}:{line}\b"):
        list(iter_trace(path))
    with pytest.raises(WorkloadError, match=rf":{line}\b"):
        Simulation(
            TraceWorkload(path=path).iter_requests(),
            policy=make_policy("invalidate"),
            staleness_bound=1.0,
        ).run()


def test_trace_written_with_fixed_decimals_still_parses(tmp_path) -> None:
    path = tmp_path / "old.csv"
    path.write_text(HEADER + "0.500000000,a,read,16,128\n1.250000000,b,write,16,64\n")
    assert list(iter_trace(path)) == [
        Request(0.5, "a", OpType.READ, 16, 128),
        Request(1.25, "b", OpType.WRITE, 16, 64),
    ]


# --------------------------------------------------------------------- #
# One cursor: objects and chunks of a stream never overlap
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("taken", [0, 1, 5, STREAM_CHUNK_SIZE, STREAM_CHUNK_SIZE + 3])
@pytest.mark.parametrize(
    "workload", [WORKLOAD, TwitterWorkload(num_keys=80, total_rate=12000.0, seed=3)], ids=lambda w: w.name
)
def test_partly_consumed_stream_replays_exactly_its_remainder(workload, taken) -> None:
    everything = workload.generate(DURATION)
    assert len(everything) > STREAM_CHUNK_SIZE + 3
    stream = workload.iter_requests(DURATION)
    head = [next(stream) for _ in range(taken)]
    assert head == everything[:taken]

    def rows(source) -> str:
        return canonical(single()(source, "invalidate", None))

    assert rows(stream) == rows(everything[taken:])
    assert list(stream) == [], "the driver consumed the stream it was given"


def test_objects_and_chunks_share_one_cursor() -> None:
    everything = WORKLOAD.generate(DURATION)
    stream = WORKLOAD.iter_requests(DURATION)
    assert isinstance(stream, ChunkStream)
    assert [next(stream), next(stream)] == everything[:2]
    chunks = stream.chunks()
    rest_of_first = next(chunks)
    assert len(rest_of_first[0]) == CHUNK_ROWS - 2
    assert rest_of_first[0][0] == everything[2].time
    # Back to objects: they pick up where the chunk view stopped.
    assert next(stream) == everything[CHUNK_ROWS]
    remaining = sum(len(chunk[0]) for chunk in chunks)
    assert remaining == len(everything) - CHUNK_ROWS - 1


def test_iter_chunks_columns_line_up_with_the_objects() -> None:
    everything = WORKLOAD.generate(DURATION)
    for source in (everything, WORKLOAD.iter_requests(DURATION), compile_workload(WORKLOAD, DURATION)):
        rebuilt = [
            Request(time, key, OpType.READ if is_read else OpType.WRITE, key_size, value_size)
            for chunk in iter_chunks(source)
            for time, key, is_read, key_size, value_size in zip(*chunk)
        ]
        assert rebuilt == everything
    assert list(iter_chunks([])) == []
