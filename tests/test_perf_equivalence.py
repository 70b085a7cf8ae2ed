"""Pinning tests: the hot-path optimizations change *speed*, never *results*.

Each test keeps a deliberately naive reference implementation (the pre-PR-5
code shape) next to the optimized one and asserts byte-identical output:
request streams, ring routing, fingerprints, sketch counts, the inlined TTL
poll arithmetic, the trace index's span slices, and the span-batched reactive
kernel against the per-key kernel it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
from bisect import bisect_right, insort

import numpy as np
import pytest

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore
from repro.cache.entry import CacheEntry, EntryState
from repro.cluster import ReplicationConfig
from repro.cluster import vector as cluster_vector
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.vector import VectorClusterSimulation
from repro.core.ttl import TTLPollingPolicy
from repro.errors import WorkloadError
from repro.experiments.registry import make_policy
from repro.sim import vector as sim_vector
from repro.sim.simulation import Simulation
from repro.sim.vector import (
    VectorSimulation,
    _apply_span_writes,
    _flush_tally,
    _HostState,
    _kernel_reactive_span,
    _miss_version,
    _ReplayContext,
    _SpanTally,
)
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import (
    DEFAULT_FINGERPRINT_CACHE_SIZE,
    HashFamily,
    fingerprint_cache_clear,
    fingerprint_cache_info,
    set_fingerprint_cache_size,
    stable_fingerprint,
)
from repro.workload.base import STREAM_CHUNK_SIZE, OpType, Request
from repro.workload.compiled import CompiledTrace, SpanCursor, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload
from repro.workload.zipf import ZipfSampler


def as_tuples(requests):
    return [
        (request.time, request.key, request.op, request.key_size, request.value_size)
        for request in requests
    ]


# --------------------------------------------------------------------- #
# Workload generators vs the naive reference loop
# --------------------------------------------------------------------- #

def naive_poisson_stream(workload: PoissonZipfWorkload, duration: float):
    """The pre-optimization generation loop: per-request boxed conversions,
    per-request key formatting, boolean-mask trimming."""
    rng = np.random.default_rng(workload.seed)
    mean_gap = 1.0 / (workload.rate_per_key * workload.num_keys)
    now = 0.0
    while now < duration:
        gaps = rng.exponential(mean_gap, size=STREAM_CHUNK_SIZE)
        times = now + np.cumsum(gaps)
        now = float(times[-1])
        ranks = workload._sampler.sample_using(rng, STREAM_CHUNK_SIZE)
        is_read = rng.random(STREAM_CHUNK_SIZE) < workload.read_ratio
        if now >= duration:
            inside = times < duration
            times, ranks, is_read = times[inside], ranks[inside], is_read[inside]
        for i in range(times.size):
            yield Request(
                time=float(times[i]),
                key=workload.key_name(int(ranks[i])),
                op=OpType.READ if is_read[i] else OpType.WRITE,
                key_size=workload.key_size,
                value_size=workload.value_size,
            )


def naive_twitter_stream(workload: TwitterWorkload, duration: float):
    rng = np.random.default_rng(workload.seed)
    peak_rate = workload.total_rate * (1.0 + workload.diurnal_amplitude)
    mean_gap = 1.0 / peak_rate
    now = 0.0
    while now < duration:
        gaps = rng.exponential(mean_gap, size=STREAM_CHUNK_SIZE)
        candidate = now + np.cumsum(gaps)
        now = float(candidate[-1])
        envelope = 1.0 + workload.diurnal_amplitude * np.sin(
            2.0 * np.pi * candidate / workload.diurnal_period
        )
        accept = rng.random(STREAM_CHUNK_SIZE) < (workload.total_rate * envelope) / peak_rate
        if now >= duration:
            accept &= candidate < duration
        times = candidate[accept]
        count = times.size
        ranks = workload._sampler.sample_using(rng, count)
        is_read = rng.random(count) < workload._read_probabilities(ranks)
        value_sizes = np.maximum(
            8, rng.lognormal(mean=np.log(workload.value_size), sigma=0.6, size=count)
        ).astype(np.int64)
        for i in range(count):
            yield Request(
                time=float(times[i]),
                key=workload.key_name(int(ranks[i])),
                op=OpType.READ if is_read[i] else OpType.WRITE,
                key_size=workload.key_size,
                value_size=int(value_sizes[i]),
            )


def test_poisson_stream_matches_naive_reference() -> None:
    """Optimized generation is byte-identical, including the trimmed tail."""
    workload = PoissonZipfWorkload(num_keys=50, rate_per_key=100.0, seed=7)
    # Long enough to cross several chunk boundaries and trim the last chunk.
    duration = (2.5 * STREAM_CHUNK_SIZE) / (100.0 * 50)
    optimized = as_tuples(workload.iter_requests(duration))
    reference = as_tuples(naive_poisson_stream(workload, duration))
    assert optimized == reference
    assert len(optimized) > 2 * STREAM_CHUNK_SIZE


def test_twitter_stream_matches_naive_reference() -> None:
    workload = TwitterWorkload(num_keys=80, total_rate=2000.0, seed=11)
    duration = (2.5 * STREAM_CHUNK_SIZE) / (2000.0 * (1.0 + workload.diurnal_amplitude))
    optimized = as_tuples(workload.iter_requests(duration))
    reference = as_tuples(naive_twitter_stream(workload, duration))
    assert optimized == reference
    assert len(optimized) > STREAM_CHUNK_SIZE


def test_zipf_sampler_astype_is_not_a_draw_change() -> None:
    """The copy-free astype returns the same ranks as a fresh int64 copy."""
    sampler = ZipfSampler(num_keys=100, exponent=1.3, seed=3)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    ranks = sampler.sample_using(rng_a, 10_000)
    reference = np.searchsorted(sampler._cdf, rng_b.random(10_000), side="left")
    assert ranks.dtype == np.int64
    np.testing.assert_array_equal(ranks, reference.astype(np.int64))


# --------------------------------------------------------------------- #
# Fingerprint memo vs direct BLAKE2
# --------------------------------------------------------------------- #

def direct_blake2_fingerprint(key: str) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def test_fingerprint_cache_returns_exact_blake2_values() -> None:
    fingerprint_cache_clear()
    keys = [f"fp-key-{index}" for index in range(5_000)]
    # Twice: the second pass is served from cache and must agree.
    first = [stable_fingerprint(key) for key in keys]
    second = [stable_fingerprint(key) for key in keys]
    reference = [direct_blake2_fingerprint(key) for key in keys]
    assert first == reference
    assert second == reference
    info = fingerprint_cache_info()
    assert info.hits >= len(keys)


def test_fingerprint_cache_is_bounded_and_configurable() -> None:
    try:
        set_fingerprint_cache_size(1024)
        for index in range(10_000):
            stable_fingerprint(f"bounded-{index}")
        info = fingerprint_cache_info()
        assert info.currsize <= 1024
        assert info.maxsize == 1024
        with pytest.raises(Exception):
            set_fingerprint_cache_size(-1)
    finally:
        set_fingerprint_cache_size(DEFAULT_FINGERPRINT_CACHE_SIZE)


def test_fingerprint_rss_stays_flat_on_a_million_distinct_keys() -> None:
    """The memo cannot grow without bound: 1M distinct keys, flat RSS.

    An unbounded memo would retain every key string and boxed fingerprint
    (~250 MiB for a million keys); the bounded LRU keeps the footprint at
    the cache cap.  The generous threshold keeps the test robust to
    allocator noise while still catching an unbounded cache by an order of
    magnitude.
    """
    fingerprint_cache_clear()
    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for index in range(1_000_000):
        stable_fingerprint(f"rss-key-{index:09d}")
    after_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = fingerprint_cache_info()
    assert info.currsize <= DEFAULT_FINGERPRINT_CACHE_SIZE
    grown_mib = (after_kib - before_kib) / 1024
    assert grown_mib < 100, f"RSS grew by {grown_mib:.0f} MiB over 1M distinct keys"


# --------------------------------------------------------------------- #
# Ring routing vs the naive reference walk
# --------------------------------------------------------------------- #

class NaiveRing:
    """The pre-optimization ring: tuple-list bisect, no caching."""

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._nodes: dict[str, list[int]] = {}

    def add_node(self, node_id: str) -> None:
        points = []
        for vnode in range(self.vnodes):
            point = direct_blake2_fingerprint(f"{node_id}#{vnode}")
            insort(self._points, (point, node_id))
            points.append(point)
        self._nodes[node_id] = points

    def remove_node(self, node_id: str) -> None:
        self._nodes.pop(node_id)
        self._points = [pair for pair in self._points if pair[1] != node_id]

    def nodes_for(self, key: str, count: int) -> list[str]:
        start = bisect_right(self._points, (direct_blake2_fingerprint(key), ""))
        chosen: list[str] = []
        seen = set()
        total = len(self._points)
        for offset in range(total):
            _, node_id = self._points[(start + offset) % total]
            if node_id in seen:
                continue
            seen.add(node_id)
            chosen.append(node_id)
            if len(chosen) == count:
                break
        return chosen


def test_ring_routing_matches_naive_reference_across_membership_changes() -> None:
    ring = ConsistentHashRing(vnodes=32)
    naive = NaiveRing(vnodes=32)
    for index in range(6):
        ring.add_node(f"node-{index:03d}")
        naive.add_node(f"node-{index:03d}")
    keys = [f"route-key-{index:05d}" for index in range(2_000)]

    for count in (1, 2, 3):
        for key in keys:
            assert ring.nodes_for(key, count) == naive.nodes_for(key, count)

    # Membership change must invalidate every cached route.
    ring.remove_node("node-002")
    naive.remove_node("node-002")
    for count in (1, 2, 3):
        for key in keys:
            assert ring.nodes_for(key, count) == naive.nodes_for(key, count)

    ring.add_node("node-006")
    naive.add_node("node-006")
    for key in keys:
        assert ring.nodes_for(key, 2) == naive.nodes_for(key, 2)


def test_route_cache_alias_survives_membership_change() -> None:
    ring = ConsistentHashRing(vnodes=16)
    for index in range(3):
        ring.add_node(f"node-{index:03d}")
    alias = ring.route_cache_for(2)
    ring.route("some-key", 2)
    assert "some-key" in alias
    ring.remove_node("node-001")
    # Cleared in place: same dict object, cached routes gone.
    assert alias is ring.route_cache_for(2)
    assert "some-key" not in alias


# --------------------------------------------------------------------- #
# Sketches: memoized + vectorized index computation
# --------------------------------------------------------------------- #

def test_hash_family_memoized_indices_match_fresh_computation() -> None:
    family = HashFamily(depth=4, width=512, seed=9)
    fresh = HashFamily(depth=4, width=512, seed=9)
    keys = [f"sketch-key-{index}" for index in range(1_000)]
    for key in keys:
        first = family.indices(key)
        second = family.indices(key)  # memo hit
        assert first == second == fresh.indices(key)


def test_hash_family_vectorized_rows_match_scalar_path() -> None:
    family = HashFamily(depth=5, width=257, seed=4)
    keys = [f"vec-key-{index}" for index in range(500)]
    fingerprints = [stable_fingerprint(key) for key in keys]
    matrix = family.row_indices(fingerprints)
    assert matrix.shape == (5, len(keys))
    for column, key in enumerate(keys):
        assert tuple(matrix[:, column]) == family.indices(key)


def test_countmin_add_many_matches_repeated_add() -> None:
    vectorized = CountMinSketch(width=128, depth=4, seed=2)
    scalar = CountMinSketch(width=128, depth=4, seed=2)
    keys = [f"cm-key-{index % 37}" for index in range(400)]
    vectorized.add_many(keys)
    for key in keys:
        scalar.add(key)
    assert vectorized.total == scalar.total
    np.testing.assert_array_equal(vectorized._table, scalar._table)
    for key in set(keys):
        assert vectorized.query(key) == scalar.query(key)


# --------------------------------------------------------------------- #
# Inlined TTL poll arithmetic vs the policy methods
# --------------------------------------------------------------------- #

def test_inlined_poll_arithmetic_matches_policy_methods() -> None:
    """The simulator inlines polls_between/last_poll_at_or_before against a
    bind-time TTL; the arithmetic must agree on every grid point."""
    policy = TTLPollingPolicy(ttl=0.75)
    ttl = 0.75
    anchors = [0.0, 0.3, 1.0]
    for anchor in anchors:
        for accounted in np.arange(anchor, anchor + 4.0, 0.19):
            for now in np.arange(accounted, accounted + 3.0, 0.23):
                accounted_f, now_f = float(accounted), float(now)
                expected = policy.polls_between(anchor, accounted_f, now_f)
                if now_f <= anchor:
                    inlined = 0
                else:
                    k_now = int((now_f - anchor) / ttl)
                    k_acc = (
                        int((accounted_f - anchor) / ttl) if accounted_f > anchor else 0
                    )
                    inlined = max(k_now - k_acc, 0)
                assert inlined == expected, (anchor, accounted_f, now_f)
                if expected > 0:
                    k_now = int((now_f - anchor) / ttl)
                    assert anchor + k_now * ttl == policy.last_poll_at_or_before(
                        anchor, now_f
                    )


# --------------------------------------------------------------------- #
# Trace index span slices vs the per-span stable argsort
# --------------------------------------------------------------------- #

def naive_group_by_key(key_ids: np.ndarray, positions: np.ndarray):
    """The pre-index grouping: one stable argsort of the span's key ids."""
    if positions.size == 0:
        return {}
    keys = key_ids[positions]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    bounds = np.append(boundaries, sorted_keys.size)
    sorted_positions = positions[order]
    return {
        int(sorted_keys[lo]): sorted_positions[lo:hi].tolist()
        for lo, hi in zip(starts.tolist(), bounds.tolist())
    }


def naive_span(trace: CompiledTrace, start: int, end: int):
    """``(groups, creation)`` of one span, the way the engines used to derive it.

    ``groups`` is the ``(key, reads, writes)`` sequence in ascending key
    order; ``creation`` lists the written keys in first-write order, the
    order the datastore histories must be created in.
    """
    is_read = trace.is_read[start:end]
    reads = naive_group_by_key(trace.key_ids, np.flatnonzero(is_read) + start)
    writes = naive_group_by_key(trace.key_ids, np.flatnonzero(~is_read) + start)
    groups = [
        (key, reads.get(key, []), writes.get(key, []))
        for key in sorted(set(reads) | set(writes))
    ]
    creation = sorted(writes, key=lambda key: writes[key][0])
    return groups, creation


def random_trace(
    seed: int, requests: int, num_keys: int, read_ratio: float = 0.7, ties: bool = False
) -> CompiledTrace:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(requests) * 10.0)
    if ties:
        # Quantised arrivals: runs of equal timestamps, some across any cut.
        times = np.floor(times * 4.0) / 4.0
    return CompiledTrace(
        times=times,
        key_ids=rng.integers(0, num_keys, size=requests),
        is_read=rng.random(requests) < read_ratio,
        key_sizes=np.full(requests, 16, dtype=np.int64),
        value_sizes=rng.integers(8, 512, size=requests),
        key_names=[f"key-{index:06d}" for index in range(num_keys)],
    )


def assert_spans_match_reference(trace: CompiledTrace, cuts) -> None:
    """Walk ``trace`` span by span; every slice must equal the naive grouping."""
    index = trace.index()
    cursor = SpanCursor(index)
    datastore = DataStore()
    ctx = _ReplayContext(trace, index, datastore, 1.0, 1.0, 1.0, 1.0)
    expected_histories = []
    start = 0
    for end in cuts:
        span = cursor.advance(end)
        got = [
            (key, index.read_pos[r_lo:r_hi].tolist(), index.write_pos[w_lo:w_hi].tolist())
            for key, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in span))
        ]
        groups, creation = naive_span(trace, start, end)
        assert got == groups, (start, end)
        _apply_span_writes(ctx, span)
        for key in creation:
            name = trace.key_names[key]
            if name not in expected_histories:
                expected_histories.append(name)
        assert list(datastore._histories) == expected_histories, (start, end)
        start = end
    writes = np.flatnonzero(~trace.is_read)
    assert datastore.total_writes == writes.size
    for key, positions in naive_group_by_key(trace.key_ids, writes).items():
        history = datastore._histories[trace.key_names[key]]
        assert history.write_times == trace.times[positions].tolist()
        assert history.value_size == int(trace.value_sizes[positions[-1]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_span_slices_match_per_span_stable_sort(seed: int) -> None:
    """Random cuts, with timestamp ties running across span boundaries."""
    trace = random_trace(seed, requests=3_000, num_keys=40, ties=True)
    rng = np.random.default_rng(100 + seed)
    cuts = sorted(set(rng.integers(1, len(trace), size=25).tolist())) + [len(trace)]
    tied_cuts = [
        cut for cut in cuts[:-1] if trace.times[cut - 1] == trace.times[cut]
    ]
    assert tied_cuts, "no span boundary falls inside a run of equal timestamps"
    assert_spans_match_reference(trace, cuts)


def test_index_handles_wide_key_tables_and_one_sided_keys() -> None:
    """> 65 535 names takes the wider sort dtype; keys with only reads or
    only writes get an empty slice on the other side."""
    trace = random_trace(3, requests=5_000, num_keys=70_000, read_ratio=0.5)
    # Pin one key to reads only and one to writes only.
    trace.is_read[trace.key_ids == trace.key_ids[0]] = True
    trace.is_read[trace.key_ids == trace.key_ids[1]] = False
    assert trace.key_ids[0] != trace.key_ids[1]
    assert trace.key_ids.max() > np.iinfo(np.uint16).max
    assert_spans_match_reference(trace, [1_000, 1_001, 4_000, len(trace)])
    index = trace.index()
    read_only, write_only = int(trace.key_ids[0]), int(trace.key_ids[1])
    assert index.writes_of(read_only)[1].size == 0
    assert index.read_offsets[write_only] == index.read_offsets[write_only + 1]
    assert index.writes_of(write_only)[1].size > 0


def test_index_one_request_spans_and_the_empty_trace() -> None:
    trace = random_trace(4, requests=60, num_keys=5)
    assert_spans_match_reference(trace, range(1, len(trace) + 1))
    empty = random_trace(5, requests=0, num_keys=3)
    index = empty.index()
    assert index.time_ordered
    assert index.read_pos.size == index.write_pos.size == 0
    assert [column.size for column in SpanCursor(index).advance(0)] == [0] * 5
    result = VectorSimulation(
        empty, policy=make_policy("invalidate"), staleness_bound=1.0, duration=1.0
    ).run()
    assert result.reads == result.writes == 0


def test_index_rejects_key_ids_outside_the_key_table() -> None:
    trace = random_trace(6, requests=50, num_keys=4)
    trace.key_ids[7] = 4
    with pytest.raises(WorkloadError, match="key table"):
        trace.index()


def test_unsorted_trace_is_refused_on_every_run_of_both_vector_engines() -> None:
    """The ordering verdict is memoised with the index, not skipped by it."""
    trace = random_trace(7, requests=200, num_keys=6)
    trace.times[[20, 120]] = trace.times[[120, 20]]
    for _ in range(2):
        with pytest.raises(WorkloadError, match="not sorted"):
            VectorSimulation(
                trace, policy=make_policy("update"), staleness_bound=1.0, duration=10.0
            ).run()
        with pytest.raises(WorkloadError, match="not sorted"):
            VectorClusterSimulation(
                trace, policy="update", num_nodes=2, staleness_bound=1.0, duration=10.0
            ).run()


# --------------------------------------------------------------------- #
# Span-batched reactive kernel vs the per-key kernel it replaced
# --------------------------------------------------------------------- #

def reference_fold_estimator(estimator, name, reads, writes) -> None:
    """The per-key estimator fold, on the key's position arrays."""
    counters = estimator._counters_for(name)
    if reads.size == 0:
        counters.writes_since_read += int(writes.size)
        return
    if writes.size:
        before = np.searchsorted(writes, reads, side="left")
        total_closed = int(before[-1])
    else:
        before = None
        total_closed = 0
    carry = counters.writes_since_read
    if estimator.count_zero_runs:
        counters.sample_sum += total_closed + carry
        counters.sample_count += int(reads.size)
    else:
        if before is None:
            runs_closed = 0
            first_run = carry
        else:
            per_read = np.diff(before, prepend=0)
            runs_closed = int(np.count_nonzero(per_read[1:]))
            first_run = int(per_read[0]) + carry
        counters.sample_sum += total_closed + carry
        counters.sample_count += runs_closed + (1 if first_run > 0 else 0)
    counters.writes_since_read = int(writes.size) - total_closed


def reference_kernel_reactive(ctx, host, tally, key_id, name, reads, writes) -> None:
    """The per-(key, span) kernel: one call per key, on its position slices.

    ``tally.estimator_ops`` collects ``(first_obs, name, reads, writes)`` for
    :func:`reference_flush` to fold.
    """
    trace = ctx.trace
    miss_position = -1
    if reads.size:
        tally.reads += int(reads.size)
        entry = host.entries.get(name)
        if entry is not None and entry.state is EntryState.VALID:
            hits = int(reads.size)
            tally.hits += hits
            entry.hits += hits
            as_of = entry.as_of
            read_times = trace.times[reads]
            horizons = read_times - ctx.bound
            candidates = horizons > as_of
            if candidates.any():
                key_write_times, _, _ = ctx.index.writes_of(key_id)
                stale_writes = key_write_times.searchsorted(
                    horizons[candidates], side="right"
                ) - key_write_times.searchsorted(as_of, side="right")
                tally.violations += int(np.count_nonzero(stale_writes))
        else:
            miss_position = int(reads[0])
            miss_time = float(trace.times[miss_position])
            version, value_size = _miss_version(ctx, key_id, miss_position)
            if entry is None:
                tally.cold_misses += 1
                entry = CacheEntry(
                    key=name,
                    version=version,
                    as_of=miss_time,
                    fetched_at=miss_time,
                    key_size=int(trace.key_sizes[miss_position]),
                    value_size=value_size,
                    last_poll_accounted=miss_time,
                )
                tally.new_fills.append((miss_position, entry))
            else:
                tally.stale_misses += 1
                entry.refresh(version=version, time=miss_time, value_size=value_size)
                entry.last_poll_accounted = miss_time
            hits = int(reads.size) - 1
            tally.hits += hits
            entry.hits += hits
            host.tracker.mark_refetched(name)
    if writes.size and host.reacts:
        tally.buffered_writes += int(writes.size)
        if miss_position >= 0 and host.discard_on_miss_fill:
            surviving = writes[writes > miss_position]
        else:
            surviving = writes
        if surviving.size:
            first = int(surviving[0])
            last = int(surviving[-1])
            tally.buffer_entries.append(
                (
                    first,
                    BufferedWrite(
                        key=name,
                        first_write_time=float(trace.times[first]),
                        last_write_time=float(trace.times[last]),
                        write_count=int(surviving.size),
                        key_size=int(trace.key_sizes[first]),
                        value_size=int(trace.value_sizes[last]),
                    ),
                )
            )
    if host.estimator is not None and (reads.size or writes.size):
        first_obs = int(reads[0]) if reads.size else int(writes[0])
        if writes.size and (not reads.size or int(writes[0]) < first_obs):
            first_obs = int(writes[0])
        tally.estimator_ops.append((first_obs, name, reads, writes))


def reference_flush(ctx, host, tally) -> None:
    ops, tally.estimator_ops = tally.estimator_ops, []
    _flush_tally(ctx, host, tally)
    for _, name, reads, writes in sorted(ops, key=lambda op: op[0]):
        reference_fold_estimator(host.estimator, name, reads, writes)


def counted_estimator_op(first_obs, name, reads, writes):
    """A reference estimator op as the counts the span kernel records."""
    reads, writes = reads.tolist(), writes.tolist()
    if not reads:
        return (first_obs, name, 0, len(writes), 0, 0, 0)
    runs_closed = sum(
        any(earlier < write < later for write in writes)
        for earlier, later in zip(reads, reads[1:])
    )
    return (
        first_obs,
        name,
        len(reads),
        len(writes),
        sum(write < reads[0] for write in writes),
        sum(write < reads[-1] for write in writes),
        runs_closed,
    )


TALLY_COUNTERS = (
    "reads", "hits", "stale_misses", "cold_misses", "violations", "expirations",
    "writes", "buffered_writes",
)


def tally_state(tally, reference: bool = False):
    """A tally as plain data, effects in the position order the flush uses."""
    ops = tally.estimator_ops
    if reference:
        ops = [counted_estimator_op(*op) for op in ops]
    return {
        "counters": {name: getattr(tally, name) for name in TALLY_COUNTERS},
        "new_fills": sorted(
            (position, dataclasses.asdict(entry)) for position, entry in tally.new_fills
        ),
        "buffer_entries": sorted(
            (position, dataclasses.asdict(write)) for position, write in tally.buffer_entries
        ),
        "estimator_ops": sorted(ops),
        "poll_events": sorted(tally.poll_events),
    }


def host_state(host):
    """Everything a span leaves behind on a host, dict orders included."""
    estimator = host.estimator
    return {
        "entries": [(key, dataclasses.asdict(entry)) for key, entry in host.entries.items()],
        "stats": dataclasses.asdict(host.cache.stats),
        "pending": [
            (key, dataclasses.asdict(write)) for key, write in host.buffer._pending.items()
        ],
        "total_buffered": host.buffer.total_buffered,
        "invalidated": list(host.tracker._invalidated.items()),
        "counters": None if estimator is None else [
            (key, dataclasses.asdict(counters))
            for key, counters in estimator._counters.items()
        ],
        "result": json.dumps(host.result.as_dict(), sort_keys=True),
    }


def make_kernel_host(trace, policy, bound, discard, count_zero_runs):
    """A replay context and a fresh single-cache host, the way ``_run_spans``
    wires them."""
    simulation = VectorSimulation(
        trace,
        policy=make_policy(policy),
        staleness_bound=bound,
        duration=float(trace.times[-1]) if len(trace) else 1.0,
        discard_buffer_on_miss_fill=discard,
    )
    estimator = simulation.policy.estimator if policy == "adaptive" else None
    if estimator is not None:
        estimator.count_zero_runs = count_zero_runs
    ctx = _ReplayContext(trace, trace.index(), simulation.datastore, bound, bound, 1.0, 3.0)
    host = _HostState(
        result=simulation.result,
        cache=simulation.cache,
        buffer=simulation.buffer,
        tracker=simulation.tracker,
        estimator=estimator,
        reacts=True,
        discard_on_miss_fill=discard,
    )
    return ctx, host


def disturb(host, rng, now: float) -> None:
    """Stand in for the background work between two spans: drain the buffer,
    then invalidate some cached entries and refresh others, leaving the rest
    with an ``as_of`` that falls ever further behind the key's writes."""
    host.buffer.drain()
    for name, entry in host.entries.items():
        draw = rng.random()
        if draw < 0.3:
            entry.mark_invalidated()
            host.tracker.mark_invalidated(name, now)
        elif draw < 0.5:
            entry.refresh(version=entry.version + 1, time=now)


def assert_span_kernel_matches_reference(
    trace, cuts, policy="adaptive", bound=0.5, discard=True, count_zero_runs=False, seed=0
):
    """Walk ``trace`` over ``cuts`` on two identical hosts, one per kernel.

    After every span the tallies and, once flushed, the hosts must be equal.
    Returns what the walk exercised, so callers can insist on their case.
    """
    ctx_new, host_new = make_kernel_host(trace, policy, bound, discard, count_zero_runs)
    ctx_ref, host_ref = make_kernel_host(trace, policy, bound, discard, count_zero_runs)
    index = trace.index()
    cursor = SpanCursor(index)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    seen = {"violations": 0, "straddled_misses": 0, "stale_misses": 0, "key_spans": 0}
    for end in cuts:
        span = cursor.advance(end)
        keys, read_lo, read_hi, write_lo, write_hi = span
        new, ref = _SpanTally(), _SpanTally()
        new.writes = _apply_span_writes(ctx_new, span)
        ref.writes = _apply_span_writes(ctx_ref, span)
        _kernel_reactive_span(
            ctx_new, host_new, new, (keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi)
        )
        for key, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in span)):
            reads, writes = index.read_pos[r_lo:r_hi], index.write_pos[w_lo:w_hi]
            missing = host_ref.entries.get(trace.key_names[key])
            missing = missing is None or missing.state is not EntryState.VALID
            if missing and reads.size and writes.size and writes[0] < reads[0] < writes[-1]:
                seen["straddled_misses"] += 1
            reference_kernel_reactive(
                ctx_ref, host_ref, ref, key, trace.key_names[key], reads, writes
            )
        assert tally_state(new) == tally_state(ref, reference=True), end
        seen["violations"] += ref.violations
        seen["stale_misses"] += ref.stale_misses
        seen["key_spans"] += keys.size
        _flush_tally(ctx_new, host_new, new)
        reference_flush(ctx_ref, host_ref, ref)
        assert host_state(host_new) == host_state(host_ref), end
        now = float(trace.times[end - 1])
        disturb(host_new, rng_new, now)
        disturb(host_ref, rng_ref, now)
    return seen


def random_cuts(trace, seed: int, count: int):
    rng = np.random.default_rng(seed)
    return sorted(set(rng.integers(1, len(trace), size=count).tolist())) + [len(trace)]


@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive"])
@pytest.mark.parametrize("discard", [True, False])
def test_span_kernel_matches_per_key_reference(policy: str, discard: bool) -> None:
    """Seeded traces, arbitrary cuts: misses with span writes on both sides of
    the first read, stale misses, and entries old enough to violate the bound
    (so the exact per-read fallback runs) all occur and all match."""
    for seed in (0, 1):
        trace = random_trace(20 + seed, requests=4_000, num_keys=30, read_ratio=0.6)
        seen = assert_span_kernel_matches_reference(
            trace, random_cuts(trace, 200 + seed, 20), policy, discard=discard, seed=seed
        )
        assert seen["straddled_misses"] > 0
        assert seen["stale_misses"] > 0
        assert seen["violations"] > 0


@pytest.mark.parametrize("count_zero_runs", [True, False])
def test_span_kernel_estimator_counts_match_with_and_without_zero_runs(
    count_zero_runs: bool,
) -> None:
    trace = random_trace(30, requests=3_000, num_keys=12, read_ratio=0.5)
    assert_span_kernel_matches_reference(
        trace, random_cuts(trace, 300, 12), "adaptive", count_zero_runs=count_zero_runs
    )


def test_span_kernel_matches_with_timestamp_ties_across_span_cuts() -> None:
    trace = random_trace(31, requests=3_000, num_keys=40, ties=True)
    cuts = random_cuts(trace, 301, 25)
    assert any(trace.times[cut - 1] == trace.times[cut] for cut in cuts[:-1])
    assert_span_kernel_matches_reference(trace, cuts, "adaptive", bound=0.25)


def test_span_kernel_matches_on_one_request_spans_and_one_sided_keys() -> None:
    """Every span a single request; one key only ever read, one only written."""
    trace = random_trace(32, requests=120, num_keys=6, read_ratio=0.5)
    trace.is_read[trace.key_ids == 0] = True
    trace.is_read[trace.key_ids == 1] = False
    seen = assert_span_kernel_matches_reference(
        trace, range(1, len(trace) + 1), "adaptive"
    )
    assert seen["key_spans"] == len(trace)
    index = trace.index()
    assert index.write_offsets[0] == index.write_offsets[1]
    assert index.read_offsets[1] == index.read_offsets[2]


def naive_node_reads(simulation, key: int, read_lo: int, read_hi: int):
    """Per node index, the reads of ``key`` in ``read_pos[read_lo:read_hi]``
    it serves — routed one read at a time, the way the scalar router does."""
    plan, index = simulation._plan, simulation._ctx.index
    replicas = plan.replicas[key].tolist()
    served = {node: [] for node in replicas}
    for slot in range(read_lo, read_hi):
        if plan.rotates:
            column = (slot - int(index.read_offsets[key])) % len(replicas)
        else:
            column = int(plan.read_slot[key])
        served[replicas[column]].append(int(index.read_pos[slot]))
    return served


class ReferenceClusterSimulation(VectorClusterSimulation):
    """The fleet engine with per-read routing and the per-key kernel."""

    def _replay_reactive_span(self, span) -> None:
        ctx, index = self._ctx, self._ctx.index
        _apply_span_writes(ctx, span)
        tallies = [_SpanTally() for _ in self._hosts]
        names = ctx.trace.key_names
        for key, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in span)):
            writes = index.write_pos[w_lo:w_hi]
            primary = int(self._plan.replicas[key, 0])
            if primary in self._owned:
                tallies[primary].writes += int(writes.size)
            for node, reads in naive_node_reads(self, key, r_lo, r_hi).items():
                if node in self._owned and (reads or writes.size):
                    reference_kernel_reactive(
                        ctx,
                        self._hosts[node],
                        tallies[node],
                        key,
                        names[key],
                        np.array(reads, dtype=np.int64),
                        writes,
                    )
        self.span_tallies.append(
            [tally_state(tallies[node], reference=True) for node in self._owned]
        )
        for node in self._owned:
            reference_flush(ctx, self._hosts[node], tallies[node])


@pytest.mark.parametrize("policy", ["invalidate", "adaptive"])
@pytest.mark.parametrize(
    "factor, read_policy, owned",
    [
        (2, "round-robin", None),
        (3, "round-robin", None),
        (3, "round-robin", (0, 2)),
        (2, "hash", (1,)),
        (2, "primary", (0, 3)),
        (1, "primary", None),
    ],
)
def test_fleet_span_routing_matches_per_read_routing(
    monkeypatch, policy: str, factor: int, read_policy: str, owned
) -> None:
    """Strided round-robin runs carry each key's read rank from span to span;
    a shard kernels only the nodes it owns."""
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=20.0, seed=9)
    trace = compile_workload(workload, 4.0)
    fleet = dict(
        policy=policy,
        num_nodes=4,
        replication=ReplicationConfig(factor=factor, read_policy=read_policy),
        staleness_bound=0.5,
        duration=4.0,
        owned_nodes=owned,
    )
    recorded = []
    flush_tally = cluster_vector._flush_tally

    def recording_flush(ctx, host, tally):
        recorded[-1].append(tally_state(tally))
        flush_tally(ctx, host, tally)

    span_replay = VectorClusterSimulation._replay_reactive_span

    def recording_span_replay(self, span):
        recorded.append([])
        span_replay(self, span)

    reference = ReferenceClusterSimulation(trace, **fleet)
    reference.span_tallies = []
    expected = reference.run()
    monkeypatch.setattr(cluster_vector, "_flush_tally", recording_flush)
    monkeypatch.setattr(
        VectorClusterSimulation, "_replay_reactive_span", recording_span_replay
    )
    simulation = VectorClusterSimulation(trace, **fleet)
    result = simulation.run()
    assert simulation.used_vector_path and reference.used_vector_path
    assert recorded == reference.span_tallies
    assert len(recorded) == 8 and len(recorded[0]) == len(owned or range(4))
    assert json.dumps(result.as_dict(), sort_keys=True) == json.dumps(
        expected.as_dict(), sort_keys=True
    )
    for host, reference_host in zip(simulation._hosts, reference._hosts):
        assert host_state(host) == host_state(reference_host)
    if read_policy == "round-robin":
        carried = simulation._ctx.index.read_offsets
        assert simulation.router._round_robin == {
            trace.key_names[key]: int(carried[key + 1] - carried[key])
            for key in range(len(trace.key_names))
            if carried[key + 1] > carried[key]
        }


def test_exact_violation_fallback_counts_what_the_scalar_engine_counts(monkeypatch) -> None:
    """A hand-built valid entry whose ``as_of`` predates an earlier-span write.

    The tracker already lists the key as invalidated, so the interval flush
    suppresses the invalidate and the stale copy keeps serving: the read one
    span later is older than the bound allows, the vectorised precheck lets
    it through, and the per-read count must agree with the scalar loop.
    """
    name = "key-000000"
    trace = CompiledTrace(
        times=np.array([0.1, 0.4, 1.2, 1.3, 2.6]),
        key_ids=np.array([0, 1, 0, 1, 0]),
        is_read=np.array([False, True, True, True, True]),
        key_sizes=np.full(5, 16, dtype=np.int64),
        value_sizes=np.full(5, 64, dtype=np.int64),
        key_names=[name, "key-000001"],
    )

    def prepared(simulation):
        simulation.cache._entries[name] = CacheEntry(
            key=name, version=0, as_of=0.0, fetched_at=0.0
        )
        simulation.tracker.mark_invalidated(name, 0.0)
        return simulation

    config = dict(policy=make_policy("invalidate"), staleness_bound=1.0, duration=3.0)
    scalar = prepared(Simulation(trace.iter_requests(), **config)).run()
    calls = []
    count_violations = sim_vector._count_violations

    def counted(ctx, tally, *late):
        before = tally.violations
        count_violations(ctx, tally, *late)
        calls.append(tally.violations - before)

    monkeypatch.setattr(sim_vector, "_count_violations", counted)
    simulation = prepared(VectorSimulation(trace, **config))
    vector = simulation.run()
    assert simulation.used_vector_path
    assert scalar.staleness_violations == vector.staleness_violations == 2
    assert calls == [1, 1]
    assert json.dumps(scalar.as_dict(), sort_keys=True) == json.dumps(
        vector.as_dict(), sort_keys=True
    )
