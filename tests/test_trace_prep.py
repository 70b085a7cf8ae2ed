"""Trace preparation pinned to its references: the index's composite-key
sort against the stable argsort it replaced, and the native draw loops,
which write into their callers' views, against fresh draws.

The reference build below is the former ``TraceIndex.__init__``: one stable
argsort of the key ids, split into read and write positions by gathers.  It
stays here, in the tests, as the definition of every field the one sort of
``is_write | key | position`` must reproduce, value and dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload import compiled as compiled_module
from repro.workload.base import STREAM_CHUNK_SIZE
from repro.workload.compiled import CompiledTrace, TraceIndex, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload

FIELDS = (
    "read_pos",
    "read_offsets",
    "write_pos",
    "write_offsets",
    "write_times",
    "write_value_sizes",
    "write_read_rank",
    "occurring",
)


def reference_index(times, key_ids, is_read, value_sizes, num_keys: int) -> dict:
    """The index fields as one stable argsort of the key ids lays them out."""
    order = np.argsort(key_ids.astype(np.min_scalar_type(num_keys)), kind="stable")
    if key_ids.size <= np.iinfo(np.uint32).max:
        order = order.astype(np.uint32)
    reads_first = is_read[order]
    write_slots = np.flatnonzero(~reads_first)
    write_pos = order[write_slots]
    counts = np.bincount(key_ids, minlength=num_keys)
    requests = np.zeros(num_keys + 1, dtype=np.int64)
    np.cumsum(counts, out=requests[1:])
    write_offsets = np.searchsorted(write_slots, requests).astype(np.int64)
    return {
        "read_pos": order[reads_first],
        "read_offsets": requests - write_offsets,
        "write_pos": write_pos,
        "write_offsets": write_offsets,
        "write_times": times[write_pos],
        "write_value_sizes": value_sizes[write_pos],
        "write_read_rank": (write_slots - np.arange(write_slots.size)).astype(order.dtype),
        "occurring": np.flatnonzero(counts),
    }


def seeded_columns(seed: int, requests: int, num_keys: int, reads: str, keys=None):
    """Seeded trace columns; ``reads`` is ``mixed``, ``all`` or ``none``, and
    ``keys`` (default: every id) the ids the requests draw from."""
    rng = np.random.default_rng(seed)
    pool = np.arange(num_keys) if keys is None else np.asarray(keys)
    is_read = {
        "mixed": rng.random(requests) < 0.7,
        "all": np.ones(requests, dtype=np.bool_),
        "none": np.zeros(requests, dtype=np.bool_),
    }[reads]
    return (
        np.sort(rng.random(requests) * 10.0),
        rng.choice(pool, size=requests).astype(np.int64),
        is_read,
        rng.integers(8, 512, size=requests),
    )


def assert_index_matches_reference(times, key_ids, is_read, value_sizes, num_keys) -> None:
    index = TraceIndex(times, key_ids, is_read, value_sizes, num_keys)
    reference = reference_index(times, key_ids, is_read, value_sizes, num_keys)
    for name in FIELDS:
        got, want = getattr(index, name), reference[name]
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


REQUESTS = (0, 1, (1 << 10) - 1, 1 << 10, (1 << 10) + 1)
KEY_COUNTS = (1, 2, 1 << 6, (1 << 6) + 1)


@pytest.mark.parametrize("reads", ["mixed", "all", "none"])
@pytest.mark.parametrize("num_keys", KEY_COUNTS)
@pytest.mark.parametrize("requests", REQUESTS)
def test_the_composite_sort_lays_out_the_argsort_index(
    requests: int, num_keys: int, reads: str
) -> None:
    """Request counts on both sides of a power of two (the position field's
    width) and key tables on both sides of one (the key field's), with all
    reads, all writes, or both."""
    columns = seeded_columns(requests + num_keys, requests, num_keys, reads)
    assert_index_matches_reference(*columns, num_keys)


@pytest.mark.parametrize("reads", ["mixed", "all", "none"])
def test_keys_that_never_occur_get_empty_runs(reads: str) -> None:
    """Only even ids occur, and the table's last 40 names never do."""
    num_keys = 100
    columns = seeded_columns(5, 700, num_keys, reads, keys=np.arange(0, 60, 2))
    assert_index_matches_reference(*columns, num_keys)
    index = TraceIndex(*columns, num_keys)
    assert index.occurring.tolist() == sorted(set(columns[1].tolist()))


@pytest.mark.parametrize(
    "key_bits, position_bits",
    [(20, 11), (20, 12), (21, 12)],
    ids=["32-bit-key", "33-bit-key", "34-bit-key"],
)
@pytest.mark.parametrize("reads", ["mixed", "none"])
def test_a_large_key_table_with_few_requests_takes_the_wide_key(
    key_bits: int, position_bits: int, reads: str
) -> None:
    """A composite of ``1 + key_bits + position_bits`` bits: the top bit of a
    ``uint32`` at 32, a ``uint64`` past it.  The ids reach the top of the
    table, so the key field is full."""
    num_keys = (1 << (key_bits - 1)) + 1
    requests = (1 << (position_bits - 1)) + 1
    assert (num_keys - 1).bit_length() == key_bits
    assert (requests - 1).bit_length() == position_bits
    top = np.arange(num_keys - 50, num_keys)
    columns = seeded_columns(key_bits, requests, num_keys, reads, keys=np.append(top, [0, 1]))
    assert_index_matches_reference(*columns, num_keys)


def test_a_compiled_workload_indexes_as_the_reference_does() -> None:
    trace = compile_workload(PoissonZipfWorkload(num_keys=300, rate_per_key=20, seed=3), 5.0)
    columns = (trace.times, trace.key_ids, trace.is_read, trace.value_sizes)
    assert_index_matches_reference(*columns, len(trace.key_names))


# --------------------------------------------------------------------- #
# The draw loops against fresh draws
# --------------------------------------------------------------------- #


def poisson_reference_chunks(workload: PoissonZipfWorkload, chunks: int):
    """The first ``chunks`` chunks as fresh arrays: ``rng.exponential`` gaps,
    the sampler's ranks, the read flips."""
    rng = np.random.default_rng(workload.seed)
    mean_gap = 1.0 / (workload.rate_per_key * workload.num_keys)
    now, drawn = 0.0, []
    for _ in range(chunks):
        times = now + np.cumsum(rng.exponential(mean_gap, size=STREAM_CHUNK_SIZE))
        now = float(times[-1])
        ranks = workload._sampler.sample_using(rng, STREAM_CHUNK_SIZE)
        is_read = rng.random(STREAM_CHUNK_SIZE) < workload.read_ratio
        drawn.append((times, ranks, is_read))
    return drawn


def twitter_reference_chunk(workload: TwitterWorkload):
    """The first chunk's accepted arrivals, drawn fresh."""
    rng = np.random.default_rng(workload.seed)
    peak_rate = workload.total_rate * (1.0 + workload.diurnal_amplitude)
    candidate = np.cumsum(rng.exponential(1.0 / peak_rate, size=STREAM_CHUNK_SIZE))
    envelope = 1.0 + workload.diurnal_amplitude * np.sin(
        2.0 * np.pi * candidate / workload.diurnal_period
    )
    accept = rng.random(STREAM_CHUNK_SIZE) < (workload.total_rate * envelope) / peak_rate
    times = candidate[accept]
    ranks = workload._sampler.sample_using(rng, times.size)
    is_read = rng.random(times.size) < workload._read_probabilities(ranks)
    value_sizes = np.maximum(
        8, rng.lognormal(mean=np.log(workload.value_size), sigma=0.6, size=times.size)
    ).astype(np.int64)
    return times, ranks, is_read, value_sizes


def test_the_poisson_draw_pins_its_first_chunks_to_fresh_draws() -> None:
    workload = PoissonZipfWorkload(num_keys=200, rate_per_key=50.0, seed=4)
    duration = 3 * STREAM_CHUNK_SIZE / (50.0 * 200)
    reference = poisson_reference_chunks(workload, 2)
    streamed = list(workload.iter_columns(duration))[:2]
    trace = compile_workload(workload, duration)
    for chunk, (times, ranks, is_read) in enumerate(reference):
        rows = slice(chunk * STREAM_CHUNK_SIZE, (chunk + 1) * STREAM_CHUNK_SIZE)
        compiled = (trace.times[rows], trace.key_ids[rows], trace.is_read[rows])
        for got in (streamed[chunk], compiled):
            assert got[0].tobytes() == times.tobytes()
            np.testing.assert_array_equal(got[1], ranks)
            np.testing.assert_array_equal(got[2], is_read)


def test_the_twitter_draw_pins_its_first_chunk_to_fresh_draws() -> None:
    workload = TwitterWorkload(num_keys=120, total_rate=4000.0, seed=9)
    times, ranks, is_read, value_sizes = twitter_reference_chunk(workload)
    first = next(workload.iter_columns(60.0))
    trace = compile_workload(workload, 60.0)
    head = slice(0, times.size)
    streamed = (first[0], first[1], first[2], first[4])
    compiled = (trace.times[head], trace.key_ids[head], trace.is_read[head], trace.value_sizes[head])
    for got in (streamed, compiled):
        assert got[0].tobytes() == times.tobytes()
        for column, want in zip(got[1:], (ranks, is_read, value_sizes), strict=True):
            np.testing.assert_array_equal(column, want)


def streamed_trace(workload, duration: float) -> CompiledTrace:
    """The stream's chunks joined: what a compile must equal."""
    chunks = list(workload.iter_columns(duration))
    return CompiledTrace(
        *(np.concatenate([chunk[column] for chunk in chunks]) for column in range(5)),
        key_names=list(workload.key_names()),
    )


def assert_same_columns(got: CompiledTrace, want: CompiledTrace) -> None:
    for name in ("times", "key_ids", "is_read", "key_sizes", "value_sizes"):
        column, reference = getattr(got, name), getattr(want, name)
        assert column.dtype == reference.dtype, name
        assert column.tobytes() == reference.tobytes(), name
    assert got.key_names == want.key_names


WORKLOADS = {
    "poisson": (lambda: PoissonZipfWorkload(num_keys=80, rate_per_key=100.0, seed=2), 7.1),
    "twitter": (lambda: TwitterWorkload(num_keys=90, total_rate=6000.0, seed=5), 9.7),
}


@pytest.mark.parametrize("capacity", [0, 1, STREAM_CHUNK_SIZE + 3])
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_a_compile_that_outgrows_its_estimate_equals_the_stream(
    kind: str, capacity: int, monkeypatch
) -> None:
    """Columns laid out too short grow while the loop draws into them, and
    the trace is still the stream's chunks joined."""
    make, duration = WORKLOADS[kind]
    monkeypatch.setattr(compiled_module, "_capacity", lambda workload, duration: capacity)
    trace = compile_workload(make(), duration)
    assert len(trace) > 3 * STREAM_CHUNK_SIZE > capacity
    assert_same_columns(trace, streamed_trace(make(), duration))


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_the_estimate_holds_a_whole_compile_and_the_trace_keeps_no_spare_rows(
    kind: str,
) -> None:
    """The default estimate has room for every row the loop writes (a
    Poisson draw writes its last chunk whole), so an ordinary compile never
    grows its columns; and the compiled columns own exactly their rows."""
    make, duration = WORKLOADS[kind]
    workload = make()
    trace = compile_workload(workload, duration)
    assert_same_columns(trace, streamed_trace(make(), duration))
    written = len(trace)
    if kind == "poisson":
        written = (len(trace) // STREAM_CHUNK_SIZE + 1) * STREAM_CHUNK_SIZE
    assert compiled_module._capacity(workload, duration) >= written
    drawn = [trace.times, trace.key_ids, trace.is_read]
    if kind == "twitter":
        drawn.append(trace.value_sizes)
    for column in drawn:
        assert column.base is None and column.size == len(trace)
