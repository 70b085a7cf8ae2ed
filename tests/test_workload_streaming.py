"""Streaming workload contract: laziness, determinism, ordering."""

import itertools

import pytest

from repro.errors import WorkloadError
from repro.workload.base import (
    OpType,
    Request,
    Workload,
    ensure_sorted,
    merge_streams,
    validate_duration,
)
from repro.workload.meta import MetaWorkload
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.trace import TraceWorkload, iter_trace, read_trace, write_trace
from repro.workload.twitter import TwitterWorkload

DURATION = 3.0

GENERATORS = [
    PoissonZipfWorkload(num_keys=25, rate_per_key=8.0, seed=11),
    PoissonMixWorkload(num_keys=20, rate_per_key=8.0, seed=11),
    MetaWorkload(num_keys=40, total_rate=150.0, seed=11),
    TwitterWorkload(num_keys=40, total_rate=150.0, seed=11),
]


@pytest.mark.parametrize("workload", GENERATORS, ids=lambda w: w.name)
def test_iter_requests_is_deterministic_for_fixed_seed(workload: Workload) -> None:
    first = list(workload.iter_requests(DURATION))
    second = list(workload.iter_requests(DURATION))
    assert first, "generator produced an empty stream"
    assert first == second


@pytest.mark.parametrize("workload", GENERATORS, ids=lambda w: w.name)
def test_generate_is_a_thin_wrapper_over_iter_requests(workload: Workload) -> None:
    assert workload.generate(DURATION) == list(workload.iter_requests(DURATION))


@pytest.mark.parametrize("workload", GENERATORS, ids=lambda w: w.name)
def test_streams_are_time_ordered_and_bounded(workload: Workload) -> None:
    times = [request.time for request in workload.iter_requests(DURATION)]
    assert times == sorted(times)
    assert all(0.0 <= time < DURATION for time in times)


def test_iter_requests_is_lazy() -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=100.0, seed=0)
    stream = workload.iter_requests(1000.0)
    # Taking a handful of requests from an hours-long trace must not
    # materialize it: pull five and stop.
    head = list(itertools.islice(stream, 5))
    assert len(head) == 5


def test_merge_streams_is_lazy_and_stable() -> None:
    left = [Request(time=float(t), key="left", op=OpType.READ) for t in (0, 1, 2)]
    right = [Request(time=float(t), key="right", op=OpType.READ) for t in (0, 1.5)]
    merged = merge_streams([iter(left), iter(right)])
    assert not isinstance(merged, list)
    requests = list(merged)
    times = [request.time for request in requests]
    assert times == sorted(times)
    # Stability: at t=0 the left stream's request comes first.
    assert requests[0].key == "left"
    assert requests[1].key == "right"


def test_merge_streams_never_materializes_inputs() -> None:
    def endless(key: str):
        time = 0.0
        while True:
            yield Request(time=time, key=key, op=OpType.READ)
            time += 1.0

    merged = merge_streams([endless("a"), endless("b")])
    head = list(itertools.islice(merged, 6))
    assert [request.key for request in head] == ["a", "b"] * 3


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_validate_duration_rejects_non_positive_and_non_finite(bad: float) -> None:
    with pytest.raises(WorkloadError):
        validate_duration(bad)


@pytest.mark.parametrize("workload", GENERATORS, ids=lambda w: w.name)
def test_bad_duration_fails_eagerly_not_at_first_next(workload: Workload) -> None:
    # The error must surface at the call site, not when the stream is first
    # consumed (possibly deep inside Simulation.run).
    with pytest.raises(WorkloadError):
        workload.iter_requests(-1.0)


def test_ensure_sorted_raises_on_disorder() -> None:
    stream = [
        Request(time=1.0, key="a", op=OpType.READ),
        Request(time=0.5, key="b", op=OpType.READ),
    ]
    with pytest.raises(WorkloadError, match="not sorted"):
        list(ensure_sorted(iter(stream)))


def test_trace_roundtrip_streams(tmp_path) -> None:
    workload = PoissonZipfWorkload(num_keys=10, rate_per_key=10.0, seed=4)
    path = tmp_path / "trace.csv"
    # write_trace consumes the stream lazily, straight from the generator.
    count = write_trace(workload.iter_requests(DURATION), path)
    original = workload.generate(DURATION)
    assert count == len(original)
    loaded = list(iter_trace(path))
    # Times are written with repr, so the floats survive the file exactly.
    assert loaded == original
    assert read_trace(path) == loaded


def test_trace_workload_path_mode_streams_and_truncates(tmp_path) -> None:
    requests = [Request(time=float(t), key=f"k{t}", op=OpType.READ) for t in range(5)]
    path = tmp_path / "trace.csv"
    write_trace(requests, path)
    workload = TraceWorkload(path=path)
    assert len(workload) == 5
    truncated = list(workload.iter_requests(3.0))
    assert [request.time for request in truncated] == [0.0, 1.0, 2.0]
    assert workload.generate() == requests


def test_unsorted_trace_file_raises(tmp_path) -> None:
    path = tmp_path / "bad.csv"
    path.write_text(
        "time,key,op,key_size,value_size\n"
        "1.0,a,read,16,128\n"
        "0.5,b,read,16,128\n"
    )
    with pytest.raises(WorkloadError, match="not sorted"):
        list(iter_trace(path))
