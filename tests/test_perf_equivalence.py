"""Pinning tests: the hot-path optimizations change *speed*, never *results*.

Each test keeps a deliberately naive reference implementation (the pre-PR-5
code shape) next to the optimized one and asserts byte-identical output:
request streams, ring routing, fingerprints, sketch counts, the inlined TTL
poll arithmetic, the trace index's span slices, the span-batched reactive and
host-batched TTL kernels against the per-key kernels they replaced, and the
batched interval flush against the per-message flush and channel it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
from bisect import bisect_right, insort

import numpy as np
import pytest

from repro.backend import channel as channel_module
from repro.backend.buffer import BufferedWrite
from repro.backend.channel import Channel, DeliveryRecord
from repro.backend.datastore import DataStore
from repro.backend.messages import InvalidateMessage, Message, UpdateMessage
from repro.cache.entry import CacheEntry, EntryState
from repro.cluster import ReplicationConfig, replay_cluster_parallel
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.hotkey import HotKeyConfig, HotKeyDetector
from repro.cluster.results import NodeResult
from repro.cluster.vector import VectorClusterSimulation
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.policy import Action, FreshnessPolicy
from repro.core.ttl import (
    TTLExpiryPolicy,
    TTLPollingPolicy,
    account_entry_polls,
    poll_count,
    poll_counts,
    poll_instant,
)
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.errors import WorkloadError
from repro.experiments.registry import make_policy
from repro.sim import node as node_module
from repro.sim import polling
from repro.sim import vector as sim_vector
from repro.workload import compiled as compiled_module
from repro.sim.events import PendingDelivery
from repro.sim.node import CacheNode
from repro.sim.simulation import Simulation
from repro.sim.vector import (
    VectorSimulation,
    _commit_trace_writes,
    _flush_tally,
    _estimator,
    _HostColumns,
    _kernel_reactive_window,
    _kernel_ttl_expiry,
    _kernel_ttl_polling,
    _ReplayContext,
    _GroupBlock,
    _Lockstep,
    _PreludeBlock,
    _SpanTally,
    _ttl_resolvable,
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
from repro.store.wal import Journal, WriteAheadLog, scan_wal
from repro.tier.config import TierConfig
from repro.workload.base import STREAM_CHUNK_SIZE, OpType, Request
from repro.workload.compiled import CompiledTrace, TraceIndex, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload
from repro.workload.zipf import ZipfSampler


def single_cut_block(span) -> _GroupBlock:
    """The single cache's one-cut group block of a cut's :data:`Span`
    columns: every key on the one host, all its reads."""
    keys, read_lo, read_hi, write_lo, write_hi = span
    return _GroupBlock(
        keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi,
        np.zeros(keys.size, dtype=np.int64), 1, [0, keys.size],
        np.array([[0, keys.size]]), np.array([[int((write_hi - write_lo).sum())]]),
    )


def cut_columns(batch, position: int):
    """Cut ``position``'s :data:`Span` columns: views of its batch's."""
    lo, hi = batch.offsets[position], batch.offsets[position + 1]
    return tuple(column[lo:hi] for column in batch.columns)


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

class NaivePollMethods:
    """The poll arithmetic as ``TTLPollingPolicy`` once spelled it, method by
    method: the independent reference the shared pair is checked against."""

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl

    def polls_between(self, anchor: float, accounted_until: float, now: float) -> int:
        if now <= anchor:
            return 0
        ttl = self.ttl
        total_by_now = int((now - anchor) / ttl)
        total_by_accounted = (
            int(max(accounted_until - anchor, 0.0) / ttl) if accounted_until > anchor else 0
        )
        return max(total_by_now - total_by_accounted, 0)

    def last_poll_at_or_before(self, anchor: float, now: float) -> float:
        if now <= anchor:
            return anchor
        ttl = self.ttl
        k = int((now - anchor) / ttl)
        return anchor + k * ttl


def test_inlined_poll_arithmetic_matches_policy_methods() -> None:
    """Polls are counted by one pair, ``poll_count`` / ``poll_counts`` and
    ``poll_instant``, against a bind-time TTL, and inlined on the scalar
    engine's per-read path (``account_entry_polls``): on every grid point
    both halves and the inlined copy agree with the naive per-method
    reference."""
    ttl = 0.75
    naive = NaivePollMethods(ttl)
    anchors = [0.0, 0.3, 1.0]

    class Sink:
        polls = 0
        freshness_cost = 0.0

    for anchor in anchors:
        for accounted in np.arange(anchor, anchor + 4.0, 0.19):
            nows = np.arange(accounted, accounted + 3.0, 0.23)
            accounted_f = float(accounted)
            counted = poll_counts(np.full(nows.size, anchor), nows, ttl).tolist()
            for now, count in zip(nows.tolist(), counted):
                expected = naive.polls_between(anchor, accounted_f, now)
                pair = max(poll_count(anchor, now, ttl) - poll_count(anchor, accounted_f, ttl), 0)
                assert pair == expected, (anchor, accounted_f, now)
                assert count == poll_count(anchor, now, ttl), (anchor, now)
                entry = CacheEntry(
                    key="k", version=0, as_of=accounted_f, fetched_at=anchor,
                    last_poll_accounted=accounted_f,
                )
                before = Sink.polls
                last_poll = account_entry_polls(entry, now, ttl, Sink, None, 1.0)
                assert Sink.polls - before == expected, (anchor, accounted_f, now)
                if expected > 0:
                    assert last_poll == entry.last_poll_accounted == poll_instant(
                        anchor, poll_count(anchor, now, ttl), ttl
                    ) == naive.last_poll_at_or_before(anchor, now)
                else:
                    assert last_poll is None


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
    """The ``(key, reads, writes)`` groups of one span in ascending key
    order, the way the engines used to derive them."""
    is_read = trace.is_read[start:end]
    reads = naive_group_by_key(trace.key_ids, np.flatnonzero(is_read) + start)
    writes = naive_group_by_key(trace.key_ids, np.flatnonzero(~is_read) + start)
    return [
        (key, reads.get(key, []), writes.get(key, []))
        for key in sorted(set(reads) | set(writes))
    ]


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
    datastore = DataStore()
    ctx = _ReplayContext(trace, index, datastore, 1.0, 1.0, 1.0, 1.0)
    start = 0
    for end in cuts:
        batch, position = index.span(start, end)
        span = cut_columns(batch, position)
        got = [
            (key, index.read_pos[r_lo:r_hi].tolist(), index.write_pos[w_lo:w_hi].tolist())
            for key, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in span))
        ]
        groups = naive_span(trace, start, end)
        assert got == groups, (start, end)
        assert batch.writes[position] == sum(len(writes) for _, _, writes in groups)
        start = end
    assert _commit_trace_writes(ctx) == datastore.total_writes
    writes = np.flatnonzero(~trace.is_read)
    assert datastore.total_writes == writes.size
    by_key = naive_group_by_key(trace.key_ids, writes)
    creation = sorted(by_key, key=lambda key: by_key[key][0])
    assert list(datastore._histories) == [trace.key_names[key] for key in creation]
    for key, positions in by_key.items():
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
    """> 65 535 names (a key field past 16 bits); keys with only reads or
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
    assert [column.size for column in cut_columns(*index.span(0, 0))] == [0] * 5
    result = VectorSimulation(
        empty, policy=make_policy("invalidate"), staleness_bound=1.0, duration=1.0
    ).run()
    assert result.reads == result.writes == 0


def test_index_rejects_key_ids_outside_the_key_table() -> None:
    trace = random_trace(6, requests=50, num_keys=4)
    trace.key_ids[7] = 4
    with pytest.raises(WorkloadError, match="key table"):
        trace.index()


def reference_offsets(trace: CompiledTrace):
    """The offsets as two masked ``bincount`` s over every request."""

    def offsets(ids):
        counts = np.zeros(len(trace.key_names) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=len(trace.key_names)), out=counts[1:])
        return counts

    return offsets(trace.key_ids[trace.is_read]), offsets(trace.key_ids[~trace.is_read])


@pytest.mark.parametrize(
    "case", ["random-0", "random-1", "random-2", "empty", "one-key", "all-reads", "all-writes"]
)
def test_index_offsets_from_the_sort_equal_two_masked_bincounts(case: str) -> None:
    """``read_offsets`` / ``write_offsets`` come from a ``searchsorted`` of
    each half of the sorted composite keys: every array equals the per-op
    ``bincount`` s, on seeded random traces and the corners."""
    seed = int(case.rsplit("-", 1)[1]) if case.startswith("random") else 7
    trace = random_trace(
        seed,
        requests=0 if case == "empty" else 2_000,
        num_keys=1 if case == "one-key" else 50,
        read_ratio={"all-reads": 1.0, "all-writes": -1.0}.get(case, 0.7),
    )
    index = trace.index()
    reads, writes = reference_offsets(trace)
    assert index.read_offsets.dtype == index.write_offsets.dtype == np.int64
    assert index.read_offsets.tolist() == reads.tolist()
    assert index.write_offsets.tolist() == writes.tolist()
    assert index.occurring.tolist() == np.flatnonzero(np.diff(reads) + np.diff(writes)).tolist()


def reference_cut_ends(times: np.ndarray, bound: float):
    """The cut ends of a replay's walk, one flush at a time as
    ``ReplayDriver._advance`` takes them — ``T``, then ``+= T`` — a cut
    ending at the first request at or past a flush."""
    ends, flush, start = [], bound, 0
    while start < times.size:
        end = int(np.searchsorted(times, flush, side="left"))
        if end > start:
            ends.append(end)
            start = end
        while start < times.size and flush <= times[start]:
            flush += bound
    return ends


def boundary_trace(seed: int, bound: float) -> CompiledTrace:
    """A trace with the awkward cuts: requests tied on flush times, intervals
    with no request, gaps several bounds long, the last request exactly on a
    flush."""
    rng = np.random.default_rng(seed)
    flushes = np.cumsum(np.full(40, bound))
    times = np.concatenate([
        rng.random(300) * flushes[9],
        np.repeat(flushes[[3, 4, 12]], 4),  # ties at a flush time
        flushes[20] + rng.random(100) * bound * 0.5,  # then a gap of many bounds
        [flushes[30]] * 3,  # the last requests on a flush
    ])
    times.sort(kind="stable")
    requests = times.size
    return CompiledTrace(
        times=times,
        key_ids=rng.integers(0, 25, size=requests),
        is_read=rng.random(requests) < 0.7,
        key_sizes=np.full(requests, 16, dtype=np.int64),
        value_sizes=rng.integers(8, 512, size=requests),
        key_names=[f"key-{index:06d}" for index in range(25)],
    )


def _prelude_state(prelude: _PreludeBlock) -> list:
    return [
        (name, np.asarray(getattr(prelude, name)).tolist())
        for name in _PreludeBlock.__slots__
        if name != "block"
    ] + [("block", _groups_state(prelude.block))]


def _groups_state(groups: _GroupBlock) -> list:
    return [np.asarray(column).tolist() for column in groups]


def _cut_state(engine, batch, position: int) -> tuple:
    """A cut, its columns, its hosts' groups and its kernel prelude, as lists."""
    return (
        batch.cuts[position],
        [column.tolist() for column in cut_columns(batch, position)],
        batch.writes[position],
        _groups_state(engine._group_block(batch).cuts(position, position + 1)),
        _prelude_state(engine._prelude_block(batch).cuts(position, position + 1)),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("bound", [0.05, 0.3])
@pytest.mark.parametrize("shape", ["single", "fleet-3-rf2-rr"])
def test_a_batch_of_cuts_equals_its_cuts_built_one_by_one(
    monkeypatch, seed: int, bound: float, shape: str
) -> None:
    """The builder's batches of a flush schedule against the same builder
    with one end per call: every cut's columns, its hosts' groups and its
    kernel prelude are equal; and the schedule's ends are the ones the
    ``ReplayDriver._advance`` flushes cut, one at a time.  (The table is told
    every cut is tiny, so one batch holds the rest of the schedule.)

    Under the default ``_CUT_GRID`` every cut is small: a batch counts its
    inner edges.  Under a grid of the median cut's requests some cuts are
    big, and a batch is built from every cut of the schedule on, so there
    are batches that bisect their inner edges (a big first cut) and
    batches that count them (a small one), each holding cuts of both
    sizes; the grid also cuts the preludes' write-run pass into blocks,
    and a grid of one write leaves groups with more, each a block alone.
    Every edge is the position of a request the cut after it holds, and
    cuts hold keys with writes and no read."""
    monkeypatch.setattr(compiled_module, "_CUT_KEY_BYTES", 1)
    blocks = [0]
    block_write_runs = sim_vector._block_write_runs

    def counted_blocks(*args):
        blocks[0] += 1
        return block_write_runs(*args)

    monkeypatch.setattr(sim_vector, "_block_write_runs", counted_blocks)

    def engine_of(trace: CompiledTrace):
        index = trace.index()
        if shape == "single":
            engine = VectorSimulation(
                trace, policy=make_policy("invalidate"), staleness_bound=bound, duration=5.0
            )
        else:
            engine = VectorClusterSimulation(
                trace, policy="invalidate", num_nodes=3, staleness_bound=bound, duration=5.0,
                replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            )
        engine._route_trace()
        engine._ctx = _ReplayContext.for_node(trace, index, engine._node_list[0])
        return engine, index

    trace = boundary_trace(seed, bound)
    schedule = trace.index().cut_ends(trace.times, bound)
    assert schedule.tolist() == reference_cut_ends(trace.times, bound)
    edges = [0, *schedule.tolist()]
    sizes = np.diff(edges)
    engine, index = engine_of(trace)
    alone = [_cut_state(engine, index.cuts(start, [end]), 0)
             for start, end in zip(edges, edges[1:])]
    # A key with writes and no read in the cut.
    assert any(lo == hi for state in alone for lo, hi in zip(*state[1][1:3]))
    default, median = compiled_module._CUT_GRID, int(np.median(sizes))
    for grid, runs_grid in ((default, default), (median, median), (median, 1)):
        monkeypatch.setattr(compiled_module, "_CUT_GRID", grid)
        monkeypatch.setattr(sim_vector, "_CUT_GRID", runs_grid)
        engine, index = engine_of(boundary_trace(seed, bound))
        kinds, most_blocks = set(), 0
        for first in range(len(alone)):
            batch = index.cuts(edges[first], edges[first + 1 :])
            assert len(batch.cuts) == len(alone) - first
            blocks[0] = 0
            assert [
                _cut_state(engine, batch, position) for position in range(len(batch.cuts))
            ] == alone[first:]
            most_blocks = max(most_blocks, blocks[0])
            big = sizes[first:] > grid
            kinds.add((bool(big[0]), len(set(big[1:].tolist()))))
        if grid == default:
            assert sizes.max() <= grid
        else:
            # Bisected and counted batches, each with big and small cuts
            # after the first; and batches whose write runs take blocks.
            assert {(True, 2), (False, 2)} <= kinds
            assert most_blocks > 1


def test_a_schedule_of_big_cuts_is_built_in_one_batch(monkeypatch) -> None:
    """A flush schedule of big cuts — PoissonZipf over 1 000 keys at T = 1,
    ten cuts of ~100 k requests each — is one call of the builder.  A
    schedule of small cuts on the same trace (T = 0.1) still takes a
    batch per ``_CUT_GRID`` requests, as its counting pass needs."""
    trace = compile_workload(
        PoissonZipfWorkload(num_keys=1000, rate_per_key=100, read_ratio=0.9, seed=0), 10.0
    )
    calls = []
    cuts = TraceIndex.cuts

    def spy(self, start, ends):
        calls.append(len(ends))
        return cuts(self, start, ends)

    monkeypatch.setattr(TraceIndex, "cuts", spy)
    index = trace.index()
    grid = compiled_module._CUT_GRID
    for bound in (1.0, 0.1):
        ends = index.cut_ends(trace.times, bound)
        calls.clear()
        start = 0
        for end in ends.tolist():
            batch, position = index.span(start, end, ends)
            assert batch.cuts[position] == (start, end)
            start = end
        schedule = ends.tolist()
        sizes = np.diff([0, *schedule])
        if bound == 1.0:
            assert len(schedule) == 10 and sizes.min() > grid
            assert calls == [10]
        else:
            # Each batch of small cuts: the cuts that end within the grid
            # of its start.
            assert sizes.max() <= grid
            taken, first = [], 0
            while first < len(schedule):
                start = schedule[first - 1] if first else 0
                last = first + 1
                while last < len(schedule) and schedule[last] <= start + grid:
                    last += 1
                taken.append(last - first)
                first = last
            assert calls == taken and len(calls) > 1


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


def _miss_version(ctx, key_id: int, position: int):
    """Version and value size a backend read at stream ``position`` returns.

    Exactly the writes preceding the read in stream order are visible, so the
    version is the count of the key's writes with smaller position and the
    value size is the latest such write's (or the backend default).
    """
    _, write_pos, write_vsz = ctx.index.writes_of(key_id)
    version = int(write_pos.searchsorted(position, side="left"))
    if version:
        return version, int(write_vsz[version - 1])
    return 0, ctx.default_value_size


class ReferenceTally(_SpanTally):
    """A tally for the per-key kernels: the objects they build with their
    stream positions — new entries, buffered writes, estimator ops — and poll
    charges as the ``(position, polls)`` tuple list they appended to, all
    applied by :func:`reference_flush`."""

    __slots__ = ("poll_events", "new_fills", "buffer_entries", "estimator_ops")

    def __init__(self) -> None:
        super().__init__()
        self.poll_events = []
        self.new_fills = []
        self.buffer_entries = []
        self.estimator_ops = []


def reference_kernel_reactive(ctx, node, tally, key_id, name, reads, writes) -> None:
    """The per-(key, span) kernel: one call per key, on its position slices,
    on ``node``'s objects.

    ``tally.estimator_ops`` collects ``(first_obs, name, reads, writes)`` for
    :func:`reference_flush` to fold.
    """
    trace = ctx.trace
    miss_position = -1
    if reads.size:
        tally.reads += int(reads.size)
        entry = node.cache._entries.get(name)
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
            node.tracker.mark_refetched(name)
    if writes.size:
        tally.buffered_writes += int(writes.size)
        if miss_position >= 0:
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
    if _estimator(node) is not None and (reads.size or writes.size):
        first_obs = int(reads[0]) if reads.size else int(writes[0])
        if writes.size and (not reads.size or int(writes[0]) < first_obs):
            first_obs = int(writes[0])
        tally.estimator_ops.append((first_obs, name, reads, writes))


def reference_flush(ctx, node, tally) -> None:
    """Apply a reference tally the way the engine once did: new entries and
    buffered writes inserted in stream order of their position (the scalar
    engine's dict orders), the counters, then the estimator folds in
    first-observation order and the poll charges one by one."""
    for _, entry in sorted(tally.new_fills, key=lambda item: item[0]):
        node.cache._entries[entry.key] = entry
    for _, buffered in sorted(tally.buffer_entries, key=lambda item: item[0]):
        node.buffer._pending[buffered.key] = buffered
    _flush_tally(ctx, node, tally)
    for _, name, reads, writes in sorted(tally.estimator_ops, key=lambda op: op[0]):
        reference_fold_estimator(_estimator(node), name, reads, writes)
    if tally.poll_events:
        # The tuple fold: poll charges replayed one by one, in global stream
        # order, against a running accumulator.
        result = node.result
        tally.poll_events.sort()
        freshness = result.freshness_cost
        miss_const = ctx.miss_const
        polls_total = 0
        for _, polls in tally.poll_events:
            polls_total += polls
            freshness += polls * miss_const
        result.polls += polls_total
        result.freshness_cost = freshness


TALLY_COUNTERS = (
    "reads", "hits", "stale_misses", "cold_misses", "violations", "expirations",
    "writes", "buffered_writes",
)


def tally_state(tally, reference: bool = False):
    """A tally's counters and poll charges as plain data (what a kernel
    builds or changes on its hosts is compared on the hosts)."""
    return {
        "counters": {name: getattr(tally, name) for name in TALLY_COUNTERS},
        "poll_events": sorted(
            tally.poll_events
            if reference
            else zip(tally.charge_positions.tolist(), tally.charge_counts.tolist())
        ),
    }


def summed_tallies(states) -> dict:
    """:func:`tally_state` s of consecutive cuts as one: counters added,
    poll charges merged."""
    states = list(states)
    return {
        "counters": {
            name: sum(state["counters"][name] for state in states) for name in TALLY_COUNTERS
        },
        "poll_events": sorted(event for state in states for event in state["poll_events"]),
    }


def host_state(node):
    """Everything a span leaves behind on a node's objects, dict orders included."""
    estimator = _estimator(node)
    return {
        "entries": [
            (key, dataclasses.asdict(entry)) for key, entry in node.cache._entries.items()
        ],
        "stats": dataclasses.asdict(node.cache.stats),
        "pending": [
            (key, dataclasses.asdict(write)) for key, write in node.buffer._pending.items()
        ],
        "total_buffered": node.buffer.total_buffered,
        "invalidated": list(node.tracker._invalidated.items()),
        "counters": None if estimator is None else [
            (key, dataclasses.asdict(counters))
            for key, counters in estimator._counters.items()
        ],
        "result": json.dumps(node.result.as_dict(), sort_keys=True),
    }


def make_kernel_host(trace, policy, bound, count_zero_runs):
    """A replay context and a fresh single-cache node, the way ``_run_spans``
    wires them: the span kernel runs on columns loaded from the node, the
    per-key reference on the node's objects."""
    simulation = VectorSimulation(
        trace,
        policy=make_policy(policy),
        staleness_bound=bound,
        duration=float(trace.times[-1]) if len(trace) else 1.0,
    )
    estimator = simulation.policy.estimator if policy == "adaptive" else None
    if estimator is not None:
        estimator.count_zero_runs = count_zero_runs
    node = simulation.node
    ctx = _ReplayContext(
        trace, trace.index(), simulation.datastore, bound, bound, 1.0, 3.0,
        node.costs.invalidate_cost(), node.costs.update_cost(),
    )
    return ctx, node


def disturb(node, rng, now: float) -> None:
    """Stand in for the background work between two spans: drain the buffer,
    then invalidate some cached entries and refresh others, leaving the rest
    with an ``as_of`` that falls ever further behind the key's writes."""
    node.buffer.drain()
    for name, entry in node.cache._entries.items():
        draw = rng.random()
        if draw < 0.3:
            entry.mark_invalidated()
            node.tracker.mark_invalidated(name, now)
        elif draw < 0.5:
            entry.refresh(version=entry.version + 1, time=now)


def assert_span_kernel_matches_reference(
    trace, cuts, policy="adaptive", bound=0.5, count_zero_runs=False, seed=0
):
    """Walk ``trace`` over ``cuts`` on two identical hosts, one per kernel.

    The window kernel replays each cut and the flush after it (at the cut's
    last request) on the new host's columns, a window of one cut at a time;
    the per-key reference replays the cut on the other host's objects, then
    the node's own flush, against the node's datastore, which takes the
    cut's writes.  After every cut the tallies and, once the columns are
    written back and the reference tally flushed, the hosts must be equal.
    Every other time both hosts are also disturbed, and the columns
    reloaded from the new host's objects — otherwise the columns carry on
    into the next cut.  Returns what the walk exercised, so callers can
    insist on their case.
    """
    ctx_new, host_new = make_kernel_host(trace, policy, bound, count_zero_runs)
    ctx_ref, host_ref = make_kernel_host(trace, policy, bound, count_zero_runs)
    index = trace.index()
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    seen = {"violations": 0, "straddled_misses": 0, "stale_misses": 0, "key_spans": 0}
    columns = _HostColumns([host_new], trace.key_names)
    start = 0
    for span_number, end in enumerate(cuts):
        batch, position = index.span(start, end)
        span = cut_columns(batch, position)
        keys = span[0]
        ref = ReferenceTally()
        ref.writes = batch.writes[position]
        now = float(trace.times[end - 1])
        prelude = _PreludeBlock(trace, index, single_cut_block(span))
        [new] = _kernel_reactive_window(ctx_new, columns, prelude, [now])
        for key, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in span)):
            reads, writes = index.read_pos[r_lo:r_hi], index.write_pos[w_lo:w_hi]
            missing = host_ref.cache._entries.get(trace.key_names[key])
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
        columns.write_back()
        reference_flush(ctx_ref, host_ref, ref)
        for at in range(start, end):
            if not trace.is_read[at]:
                host_ref.datastore.write(
                    trace.key_names[trace.key_ids[at]],
                    float(trace.times[at]),
                    int(trace.value_sizes[at]),
                )
        host_ref.flush(now)
        assert host_state(host_new) == host_state(host_ref), end
        start = end
        if span_number % 2 == 0:
            disturb(host_new, rng_new, now)
            disturb(host_ref, rng_ref, now)
            columns = _HostColumns([host_new], trace.key_names)
    return seen


def random_cuts(trace, seed: int, count: int):
    rng = np.random.default_rng(seed)
    return sorted(set(rng.integers(1, len(trace), size=count).tolist())) + [len(trace)]


@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive"])
def test_span_kernel_matches_per_key_reference(policy: str) -> None:
    """Seeded traces, arbitrary cuts: misses with span writes on both sides of
    the first read, stale misses, and entries old enough to violate the bound
    (so the exact per-read fallback runs) all occur and all match."""
    for seed in (0, 1):
        trace = random_trace(20 + seed, requests=4_000, num_keys=30, read_ratio=0.6)
        seen = assert_span_kernel_matches_reference(
            trace, random_cuts(trace, 200 + seed, 20), policy, seed=seed
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


def groups_of_hosts(groups: _GroupBlock, hosts) -> _GroupBlock:
    """The rows of the one-cut block ``groups`` that belong to ``hosts``
    (ascending), as the block of those hosts alone."""
    bounds = groups.bounds[0].tolist()
    rows = np.array(
        [row for host in hosts for row in range(bounds[host], bounds[host + 1])], dtype=np.int64
    )
    sizes = [bounds[host + 1] - bounds[host] for host in hosts]
    return _GroupBlock(
        groups.keys[rows],
        groups.first[rows],
        groups.count[rows],
        groups.stride,
        groups.write_lo[rows],
        groups.write_hi[rows],
        np.repeat(np.arange(len(hosts)), sizes),
        len(hosts),
        [0, rows.size],
        np.array([[0, *np.cumsum(sizes).tolist()]]),
        groups.writes[:, hosts],
    )


class ReferenceUnit(_Lockstep):
    """The lockstep unit of a :class:`ReferenceClusterSimulation`: per-read
    routing and the per-key kernels on the engine's ``referenced`` nodes, the
    production kernels on the others, a window of one cut at a time.  A
    referenced node keeps its state in its objects and flushes with
    :meth:`CacheNode.flush`, against a datastore of its own that takes every
    reactive cut's writes; the others keep theirs in the unit's columns,
    loaded with those nodes alone."""

    def __init__(self, engine) -> None:
        super().__init__([engine])
        self.columns = _HostColumns(
            [engine._node_list[node] for node in engine._others()], engine.trace.key_names
        )
        self.cut_store = None
        if engine._node_list[0]._reacts:
            self.cut_store = DataStore()
            for node in engine.referenced:
                engine._node_list[node].datastore = self.cut_store

    def flush(self, time: float) -> None:
        if time > self.flushed:
            engine = self.members[0]
            for node in engine.referenced:
                engine._node_list[node].deliver_until(time)
                engine._node_list[node].flush(time)
        super().flush(time)

    def window(self, engine, batch, position, until) -> None:
        ctx, index = engine._ctx, engine._ctx.index
        trace, nodes = ctx.trace, engine._node_list
        names = trace.key_names
        tallies = [ReferenceTally() for _ in nodes]
        flush = None
        if self.cut_store is not None:
            # The referenced nodes' flushes read the latest versions off
            # their own datastore, which takes each write as the scalar loop
            # does.
            for at in range(*batch.cuts[position]):
                if not trace.is_read[at]:
                    self.cut_store.write(
                        names[trace.key_ids[at]],
                        float(trace.times[at]),
                        int(trace.value_sizes[at]),
                    )
            for key, r_lo, r_hi, w_lo, w_hi in zip(
                *(column.tolist() for column in cut_columns(batch, position))
            ):
                writes = index.write_pos[w_lo:w_hi]
                primary = int(engine._plan.replicas[key, 0])
                if primary in engine.referenced:
                    tallies[primary].writes += int(writes.size)
                for node, reads in naive_node_reads(engine, key, r_lo, r_hi).items():
                    if node in engine.referenced and (reads or writes.size):
                        reference_kernel_reactive(
                            ctx, nodes[node], tallies[node], key, names[key],
                            np.array(reads, dtype=np.int64), writes,
                        )
            [flush] = self._flushes(engine, batch.cuts[position : position + 1], until)
            self._kernel_the_others(
                engine,
                batch,
                position,
                lambda groups: _kernel_reactive_window(
                    ctx, self.columns, _PreludeBlock(trace, index, groups), [flush]
                ),
            )
        else:
            # The per-(node, key) walk: one kernel call per key a node reads.
            expiry = nodes[0]._ttl_expiry
            kernel = reference_kernel_ttl_expiry if expiry else reference_kernel_ttl_polling
            groups = engine._group_block(batch).cuts(position, position + 1)
            stride = groups.stride
            for node in engine.referenced:
                tallies[node].writes = int(groups.writes[0, node])
                mine = slice(*groups.bounds[0, node : node + 2].tolist())
                for key_id, lo, reads in zip(
                    groups.keys[mine].tolist(),
                    groups.first[mine].tolist(),
                    groups.count[mine].tolist(),
                ):
                    if reads:
                        kernel(
                            ctx, nodes[node], tallies[node], key_id, names[key_id],
                            index.read_pos[lo : lo + reads * stride : stride],
                        )
            production = _kernel_ttl_expiry if expiry else _kernel_ttl_polling

            def ttl(groups):
                produced = [_SpanTally(count) for count in groups.writes[0].tolist()]
                production(ctx, self.columns, produced, groups)
                return produced

            self._kernel_the_others(engine, batch, position, ttl)
        engine.span_tallies.append(
            [tally_state(tallies[node], reference=True) for node in engine.referenced]
        )
        for node in engine.referenced:
            reference_flush(ctx, nodes[node], tallies[node])
        if flush is not None:
            for node in engine.referenced:
                nodes[node].flush(flush)
            self.flushed = flush
        self.reach = batch.cuts[position][1]

    def finish(self, member, horizon) -> None:
        """The referenced nodes end the run on their objects, as
        :meth:`CacheNode.finalize` does, against a store that holds every
        write of the trace (the engine's commits them after the unit ends);
        the others on the unit's columns."""
        engine = self.members[0]
        trace, store = engine.trace, DataStore()
        for position in np.flatnonzero(~trace.is_read).tolist():
            store.write(
                trace.key_names[trace.key_ids[position]],
                float(trace.times[position]),
                int(trace.value_sizes[position]),
            )
        for node in engine.referenced:
            node = engine._node_list[node]
            datastore, node.datastore = node.datastore, store
            node.finalize(horizon)
            node.datastore = datastore
        super().finish(member, horizon)

    def _kernel_the_others(self, engine, batch, position, kernel) -> None:
        """The production replay of the cut on every node the reference does
        not replay: their groups in one kernel call on the unit's columns,
        ``kernel(groups)`` returning their tallies."""
        others = engine._others()
        if not others:
            return
        groups = engine._group_block(batch).cuts(position, position + 1)
        tallies = kernel(groups_of_hosts(groups, others))
        for node, tally in zip(others, tallies):
            _flush_tally(engine._ctx, engine._node_list[node], tally)


class ReferenceClusterSimulation(VectorClusterSimulation):
    """The fleet engine with per-read routing and the per-key kernel on the
    ``referenced`` nodes (default: all of them), the production kernel on
    the others, through its own lockstep unit (:class:`ReferenceUnit`).
    Nodes are independent within a span, so any mix must give the rows of
    the production engine."""

    def __init__(self, trace, referenced=None, **fleet) -> None:
        super().__init__(trace, **fleet)
        self.referenced = (
            tuple(range(fleet["num_nodes"])) if referenced is None else tuple(referenced)
        )
        self.span_tallies = []

    def _others(self):
        return [node for node in range(len(self._node_list)) if node not in self.referenced]

    def replay(self, *args, **kwargs):
        replay = super().replay(*args, **kwargs)
        assert next(replay) is self  # the engine, offered for a unit: take it
        ReferenceUnit(self)
        return (yield from replay)


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
    the reference replays the ``owned`` nodes (``None``: all four) and the
    production kernel the others, with the production engine's rows.  The
    production engine takes windows of cuts: each window's tallies are the
    reference's of its cuts, summed."""
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=20.0, seed=9)
    trace = compile_workload(workload, 4.0)
    fleet = dict(
        policy=policy,
        num_nodes=4,
        replication=ReplicationConfig(factor=factor, read_policy=read_policy),
        staleness_bound=0.5,
        duration=4.0,
    )
    recorded, sizes = [], []
    flush_tally = sim_vector._flush_tally
    kernel = sim_vector._kernel_reactive_window

    def recording_flush(ctx, host, tally):
        recorded[-1].append(tally_state(tally))
        flush_tally(ctx, host, tally)

    def recording_kernel(ctx, columns, prelude, flushes):
        recorded.append([])
        sizes.append(len(flushes))
        return kernel(ctx, columns, prelude, flushes)

    reference = ReferenceClusterSimulation(trace, owned, **fleet)
    expected = reference.run()
    monkeypatch.setattr(sim_vector, "_flush_tally", recording_flush)
    monkeypatch.setattr(sim_vector, "_kernel_reactive_window", recording_kernel)
    simulation = VectorClusterSimulation(trace, **fleet)
    result = simulation.run()
    assert simulation.used_vector_path and reference.used_vector_path
    assert sum(sizes) == len(reference.span_tallies) == 8 and len(sizes) < 8
    assert all(len(window) == 4 for window in recorded)
    ends = np.cumsum(sizes).tolist()
    assert [
        [window[node] for node in reference.referenced] for window in recorded
    ] == [
        [summed_tallies(span[node] for span in reference.span_tallies[end - size : end])
         for node in range(len(reference.referenced))]
        for size, end in zip(sizes, ends)
    ]
    assert json.dumps(result.as_dict(), sort_keys=True) == json.dumps(
        expected.as_dict(), sort_keys=True
    )
    for node, reference_node in zip(simulation._node_list, reference._node_list):
        assert host_state(node) == host_state(reference_node)
    if read_policy == "round-robin":
        carried = simulation._ctx.index.read_offsets
        assert simulation.router._round_robin == {
            trace.key_names[key]: int(carried[key + 1] - carried[key])
            for key in range(len(trace.key_names))
            if carried[key + 1] > carried[key]
        }


@pytest.mark.parametrize("policy", ["ttl-expiry", "ttl-polling"])
@pytest.mark.parametrize(
    "factor, read_policy, owned",
    [
        (2, "round-robin", None),
        (2, "round-robin", (0, 2)),
        (2, "round-robin", (1,)),
        (2, "hash", (1, 2)),
        (1, "primary", None),
    ],
)
def test_fleet_ttl_replay_matches_per_node_key_reference(
    monkeypatch, policy: str, factor: int, read_policy: str, owned
) -> None:
    """One batched kernel call per node against one per-key call per
    (node, key): under RF = 2 round-robin each replica's reads are a stride-2
    run of the key's reads.  The reference replays the ``owned`` nodes
    (``None``: all three) and the production kernel the others."""
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=20.0, seed=9)
    trace = compile_workload(workload, 4.0)
    fleet = dict(
        policy=policy,
        num_nodes=3,
        replication=ReplicationConfig(factor=factor, read_policy=read_policy),
        staleness_bound=0.5,
        duration=4.0,
    )
    reference = ReferenceClusterSimulation(trace, owned, **fleet)
    expected = reference.run()
    recorded = []
    flush_tally = sim_vector._flush_tally

    def recording_flush(ctx, host, tally):
        recorded.append(tally_state(tally))
        flush_tally(ctx, host, tally)

    monkeypatch.setattr(sim_vector, "_flush_tally", recording_flush)
    simulation = VectorClusterSimulation(trace, **fleet)
    result = simulation.run()
    assert simulation.used_vector_path and reference.used_vector_path
    assert len(recorded) == 3
    assert [[recorded[node] for node in reference.referenced]] == reference.span_tallies
    if policy == "ttl-polling":
        assert all(tally["poll_events"] for tally in recorded)
    else:
        assert all(tally["counters"]["expirations"] for tally in recorded)
    assert json.dumps(result.as_dict(), sort_keys=True) == json.dumps(
        expected.as_dict(), sort_keys=True
    )
    for node, reference_node in zip(simulation._node_list, reference._node_list):
        assert host_state(node) == host_state(reference_node)
    if owned is None:
        parallel = replay_cluster_parallel(trace, workers=2, **fleet)
        assert json.dumps(parallel.as_dict(), sort_keys=True) == json.dumps(
            expected.as_dict(), sort_keys=True
        )


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

    def counted(ctx, tallies, *late):
        [tally] = tallies
        before = tally.violations
        count_violations(ctx, tallies, *late)
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


# --------------------------------------------------------------------- #
# Span table: a replay on a shared trace vs the same replay on a fresh one
# --------------------------------------------------------------------- #

TABLE_POLICIES = ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive")
TABLE_BOUNDS = (0.1, 1.0)
TABLE_SHAPES = ("single", "fleet-3", "fleet-4-rf2-rr", "workers-2")
TABLE_DURATION = 4.0


def table_workloads():
    return [
        PoissonZipfWorkload(num_keys=30, rate_per_key=300.0, read_ratio=0.85, seed=23),
        TwitterWorkload(num_keys=60, total_rate=16000.0, seed=23),
    ]


def replay_leftovers(trace, policy: str, bound: float, shape: str):
    """Replay ``trace`` on the vector path.  Returns everything the replay
    leaves that a later reader could see — the row, every host's state in
    dict order, the datastore's histories in creation order with their write
    times — and the simulation (``None`` for a forked replay: only its row
    comes back)."""
    fleet = dict(policy=policy, staleness_bound=bound, duration=TABLE_DURATION, seed=5)
    if shape == "workers-2":
        row = replay_cluster_parallel(trace, workers=2, num_nodes=3, **fleet).as_dict()
        return {"row": json.dumps(row, sort_keys=True)}, None
    if shape == "single":
        simulation = VectorSimulation(
            trace, policy=make_policy(policy), staleness_bound=bound, duration=TABLE_DURATION
        )
        result = simulation.run()
        hosts = simulation._node_list
    else:
        if shape == "fleet-3":
            fleet.update(num_nodes=3)
        else:
            fleet.update(
                num_nodes=4, replication=ReplicationConfig(factor=2, read_policy="round-robin")
            )
        simulation = VectorClusterSimulation(trace, **fleet)
        result = simulation.run()
        hosts = simulation._node_list
    assert simulation.used_vector_path
    return {
        "row": json.dumps(result.as_dict(), sort_keys=True),
        "hosts": [host_state(host) for host in hosts],
        "histories": [
            (name, list(history.write_times), history.value_size)
            for name, history in simulation.datastore._histories.items()
        ],
        "datastore": (simulation.datastore.total_writes, simulation.datastore.total_reads),
    }, simulation


def leftovers(trace, policy, bound, shape):
    return replay_leftovers(trace, policy, bound, shape)[0]


@pytest.mark.parametrize("workload", table_workloads(), ids=["poisson", "twitter"])
def test_replays_on_a_shared_trace_equal_replays_on_fresh_traces(workload, monkeypatch) -> None:
    """Every policy x bound x shape, in three shuffled orders on ONE trace
    object (so each replay finds whatever the ones before it left in the span
    table, hits and evictions alike) and each once on its own fresh trace."""
    span = TraceIndex.span
    served = []  # every (batch, position) a lookup returned, kept alive

    def recording_span(self, start, end, schedule=None):
        served.append(span(self, start, end, schedule))
        return served[-1]

    cells = [
        (policy, bound, shape)
        for policy in TABLE_POLICIES
        for bound in TABLE_BOUNDS
        for shape in TABLE_SHAPES
    ]
    fresh = {
        cell: leftovers(compile_workload(workload, TABLE_DURATION), *cell) for cell in cells
    }
    # The fresh side is the scalar loop's, history creation order included.
    for policy in ("ttl-expiry", "update"):
        for bound in TABLE_BOUNDS:
            scalar = Simulation(
                workload.iter_requests(TABLE_DURATION), policy=make_policy(policy),
                staleness_bound=bound, duration=TABLE_DURATION,
            )
            row = json.dumps(scalar.run().as_dict(), sort_keys=True)
            assert fresh[policy, bound, "single"]["row"] == row
            assert fresh[policy, bound, "single"]["histories"] == [
                (name, history.write_times, history.value_size)
                for name, history in scalar.datastore._histories.items()
            ]
    shared = compile_workload(workload, TABLE_DURATION)
    monkeypatch.setattr(TraceIndex, "span", recording_span)
    for order in range(3):
        np.random.default_rng(order).shuffle(cells)
        for cell in cells:
            assert leftovers(shared, *cell) == fresh[cell], (order, cell)
    index = shared.index()
    built = set(served)
    assert len(served) > 2 * len(built), "most lookups should have been hits"
    assert len(built) > len(
        {batch.cuts[position] for batch, position in built}
    ), "no evicted cut was ever asked for again"
    assert 0 < index.table_bytes <= index.table_cap
    assert len(index.plans) == 2  # one per fleet shape: the table is not a plan


def test_span_facts_are_read_only_and_never_aliased_into_a_replay() -> None:
    workload = table_workloads()[0]
    trace = compile_workload(workload, TABLE_DURATION)
    expected = leftovers(compile_workload(workload, TABLE_DURATION), "invalidate", 1.0, "single")
    first, simulation = replay_leftovers(trace, "invalidate", 1.0, "single")
    assert first == expected
    index = trace.index()
    for batch, _ in index.table.values():
        for column in batch.columns:
            if column.size:
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0
    # What a replay holds is its own: scribbling on it reaches no later replay.
    shared_times = list(index.write_time_list)
    for history in simulation.datastore._histories.values():
        history.write_times.append(-1.0)
        history.write_times.reverse()
    for entry in simulation.cache._entries.values():
        entry.version = -7
    assert index.write_time_list == shared_times
    assert leftovers(trace, "invalidate", 1.0, "single") == expected
    assert leftovers(trace, "adaptive", 1.0, "single") == leftovers(
        compile_workload(workload, TABLE_DURATION), "adaptive", 1.0, "single"
    )


def test_a_table_warmed_for_another_bound_changes_no_row() -> None:
    """The key is the cut itself: cuts made for bound 0.3 that a replay at
    1.0 does not make are never served to it."""
    workload = table_workloads()[0]
    trace = compile_workload(workload, TABLE_DURATION)
    for shape in ("single", "fleet-3", "workers-2"):
        leftovers(trace, "invalidate", 0.3, shape)
    guessed, asked = (
        (0, int(np.searchsorted(trace.times, bound))) for bound in (0.3, 1.0)
    )
    table = trace.index().table
    assert guessed in table and asked not in table
    for shape in TABLE_SHAPES:
        for policy in ("update", "adaptive"):
            assert leftovers(trace, policy, 1.0, shape) == leftovers(
                compile_workload(workload, TABLE_DURATION), policy, 1.0, shape
            ), (shape, policy)
    assert asked in table


def held_buffers(table) -> int:
    """Bytes of the distinct numpy buffers the span table reaches: its
    batches' columns and the values of their ``routed`` memos, each buffer
    counted once however many views reach it."""
    buffers = {}

    def visit(value) -> None:
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            buffers[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for each in value:
                visit(each)
        elif hasattr(value, "__slots__"):
            for name in value.__slots__:
                visit(getattr(value, name))

    for batch, _ in table.values():
        visit(batch.columns)
        visit(list(batch.routed.values()))
    return sum(buffers.values())


def test_the_span_table_never_outgrows_the_trace_columns() -> None:
    """Forty bounds on one trace: the oldest batches make room, the
    accounting stays exact — per batch, whole batches held — the buffers
    the table reaches stay under the cap, and a replay whose cuts were
    evicted is still the same replay."""
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=50.0, read_ratio=0.85, seed=29)
    trace = compile_workload(workload, TABLE_DURATION)
    column_bytes = sum(
        column.nbytes
        for column in (trace.times, trace.key_ids, trace.is_read, trace.key_sizes, trace.value_sizes)
    )
    bounds = np.linspace(0.2, 2.0, 40).tolist()
    evicted = False
    for bound in bounds:
        leftovers(trace, "invalidate", bound, "single")
        index = trace.index()
        assert index.table_bytes <= index.table_cap <= column_bytes, bound
        assert held_buffers(index.table) <= index.table_cap, bound
        held = {id(batch): batch for batch, _ in index.table.values()}.values()
        assert index.table_bytes == 32 * index.write_times.size + sum(
            batch.nbytes for batch in held
        ), bound
        assert all(
            index.table[cut] == (batch, position)
            for batch in held
            for position, cut in enumerate(batch.cuts)
        ), bound
        assert index.nbytes >= index.table_bytes
        evicted = evicted or (0, int(np.searchsorted(trace.times, bounds[0]))) not in index.table
    assert evicted, "forty bounds fitted under the cap: the walk never evicted a cut"
    for bound in (bounds[0], bounds[17], bounds[-1]):
        for policy in ("update", "adaptive", "ttl-polling"):
            assert leftovers(trace, policy, bound, "single") == leftovers(
                compile_workload(workload, TABLE_DURATION), policy, bound, "single"
            ), (bound, policy)


# --------------------------------------------------------------------- #
# Host-batched TTL kernels vs the per-key kernels they replaced
# --------------------------------------------------------------------- #

def reference_kernel_ttl_expiry(
    ctx: _ReplayContext,
    node: CacheNode,
    tally: _SpanTally,
    key_id: int,
    name: str,
    reads: np.ndarray,
) -> None:
    """One key's whole trace under TTL-expiry (the policy never reacts).

    The entry's life is a sequence of epochs: a fill anchors a timer, the
    first read at or past ``fetched_at + ttl`` expires and re-fetches.  With
    ``ttl <= bound`` no hit can violate the staleness bound, so the walk only
    needs the epoch boundaries — ``O(epochs)`` searchsorted jumps.
    """
    trace = ctx.trace
    read_times = trace.times[reads]
    first_position = int(reads[0])
    fetch_time = float(read_times[0])
    last_fill_position = first_position
    ttl = ctx.ttl
    refetches = 0
    cursor = 0
    total = int(reads.size)
    while True:
        cursor = int(read_times.searchsorted(fetch_time + ttl, side="left"))
        if cursor >= total:
            break
        refetches += 1
        fetch_time = float(read_times[cursor])
        last_fill_position = int(reads[cursor])
    version, value_size = _miss_version(ctx, key_id, last_fill_position)
    entry = CacheEntry(
        key=name,
        version=version,
        as_of=fetch_time,
        fetched_at=fetch_time,
        key_size=int(trace.key_sizes[first_position]),
        value_size=value_size,
        last_poll_accounted=fetch_time,
    )
    hits = total - 1 - refetches
    entry.hits = hits
    tally.new_fills.append((first_position, entry))
    tally.reads += total
    tally.cold_misses += 1
    tally.stale_misses += refetches
    tally.expirations += refetches
    tally.hits += hits


def reference_kernel_ttl_polling(
    ctx: _ReplayContext,
    node: CacheNode,
    tally: _SpanTally,
    key_id: int,
    name: str,
    reads: np.ndarray,
) -> None:
    """One key's whole trace under TTL-polling (the policy never reacts).

    The cold fill anchors the poll timer; every later read settles the polls
    since the last accounting point with the scalar engine's exact integer
    arithmetic.  The walk below jumps straight between reads that charge a
    positive number of polls, recomputing the accounting baseline with the
    same float expressions as :func:`repro.core.ttl.account_entry_polls` (the
    baseline is *not* always the previous poll count — float rounding of
    ``anchor + k * ttl`` can land it one lower, and the walk reproduces that).
    """
    trace = ctx.trace
    first_position = int(reads[0])
    anchor = float(trace.times[first_position])
    version, value_size = _miss_version(ctx, key_id, first_position)
    entry = CacheEntry(
        key=name,
        version=version,
        as_of=anchor,
        fetched_at=anchor,
        key_size=int(trace.key_sizes[first_position]),
        value_size=value_size,
        last_poll_accounted=anchor,
    )
    hits = int(reads.size) - 1
    entry.hits = hits
    tally.new_fills.append((first_position, entry))
    tally.reads += int(reads.size)
    tally.cold_misses += 1
    tally.hits += hits
    if reads.size < 2:
        return
    ttl = ctx.ttl
    read_times = trace.times[reads]
    seen = poll_counts(np.full(read_times.size, anchor), read_times, ttl)
    baseline = 0
    cursor = 1  # the fill read itself never settles (no entry existed yet)
    total = int(reads.size)
    last_position = -1
    last_poll = anchor
    events = tally.poll_events
    while True:
        jump = int(seen.searchsorted(baseline, side="right"))
        cursor = jump if jump > cursor else cursor
        if cursor >= total:
            break
        k_now = int(seen[cursor])
        polls = k_now - baseline
        if polls > 0:
            last_poll = poll_instant(anchor, k_now, ttl)
            last_position = int(reads[cursor])
            events.append((last_position, polls))
            baseline = poll_count(anchor, last_poll, ttl)
        cursor += 1
    if last_position >= 0:
        # Only the key's *final* settled state is observable between spans —
        # polls refresh the entry monotonically, so collapse the per-event
        # entry updates of the scalar engine into the last one.
        entry.last_poll_accounted = last_poll
        if last_poll > entry.as_of:
            entry.as_of = last_poll
        key_write_times, key_write_pos, _ = ctx.index.writes_of(key_id)
        # version_at(last_poll) over the writes applied before the settling
        # read: both constraints are prefixes of the same sorted column, so
        # the visible version is the shorter prefix.
        refreshed = min(
            int(key_write_times.searchsorted(last_poll, side="right")),
            int(key_write_pos.searchsorted(last_position, side="left")),
        )
        if refreshed > entry.version:
            entry.version = refreshed


def whole_trace_groups(trace) -> _GroupBlock:
    """The single cache's groups for a TTL replay: every key, all its reads."""
    batch, _ = trace.index().span(0, len(trace))
    return single_cut_block(batch.columns)


def make_ttl_host(trace, policy_class, ttl, bound=1.0):
    """A replay context, a fresh single-cache TTL node and the columns loaded
    from it, wired the way a TTL unit wires them, with the trace's writes
    already committed.  The kernels run on the columns; ``write_back()``
    puts their entries on the node."""
    simulation = VectorSimulation(
        trace,
        policy=policy_class(ttl=ttl),
        staleness_bound=bound,
        duration=float(trace.times[-1]),
    )
    assert simulation.vector_eligible()
    ctx = _ReplayContext.for_node(trace, trace.index(), simulation.node)
    _commit_trace_writes(ctx)
    return ctx, simulation.node, _HostColumns([simulation.node], trace.key_names)


def assert_ttl_kernels_match_reference(trace, ttl=None, bound=1.0):
    """Replay ``trace`` on two identical hosts per TTL policy: one call of the
    batched kernel against one per-key kernel call per read key.

    The tallies — counters, poll positions and counts — and, once flushed,
    the hosts (entry fields, dict order, ``polls``, ``freshness_cost``) must
    be equal: the batched kernel's entries come from its columns'
    ``write_back()``, the per-key kernel's from the reference flush.
    Returns the polling
    tally's poll events and the expiry tally's refetch count, so callers can
    insist their case occurred.
    """
    index = trace.index()
    groups = whole_trace_groups(trace)
    keys, read_lo, read_count = groups[:3]
    seen = {}
    # Expiry steps its keys together until fewer than a batch are live and
    # walks the rest one by one: all together, a hand-over on the way, and
    # (at the shipped constant, for traces this small) all one by one.
    for policy_class, batched, per_key, expiry_batch in (
        (TTLExpiryPolicy, _kernel_ttl_expiry, reference_kernel_ttl_expiry, 1),
        (TTLExpiryPolicy, _kernel_ttl_expiry, reference_kernel_ttl_expiry, 6),
        (TTLExpiryPolicy, _kernel_ttl_expiry, reference_kernel_ttl_expiry, None),
        (TTLPollingPolicy, _kernel_ttl_polling, reference_kernel_ttl_polling, None),
    ):
        ctx_new, host_new, columns = make_ttl_host(trace, policy_class, ttl, bound)
        ctx_ref, host_ref, _ = make_ttl_host(trace, policy_class, ttl, bound)
        new, ref = _SpanTally(), ReferenceTally()
        with pytest.MonkeyPatch.context() as patch:
            if expiry_batch is not None:
                patch.setattr(sim_vector, "_TTL_EXPIRY_BATCH", expiry_batch)
            batched(ctx_new, columns, [new], groups)
        for key, lo, reads in zip(keys.tolist(), read_lo.tolist(), read_count.tolist()):
            if reads:
                per_key(
                    ctx_ref, host_ref, ref, key, trace.key_names[key],
                    index.read_pos[lo : lo + reads],
                )
        assert tally_state(new) == tally_state(ref, reference=True), policy_class.name
        for value in (new.reads, new.hits, new.cold_misses, new.stale_misses, new.expirations):
            assert type(value) is int
        seen[policy_class.name] = (ref.stale_misses, sorted(ref.poll_events))
        _flush_tally(ctx_new, host_new, new)
        columns.write_back()
        reference_flush(ctx_ref, host_ref, ref)
        assert host_state(host_new) == host_state(host_ref), policy_class.name
        assert host_new.result.polls == host_ref.result.polls
        assert host_new.result.freshness_cost == host_ref.result.freshness_cost
        assert type(host_new.result.freshness_cost) is float
    return seen["ttl-expiry"][0], seen["ttl-polling"][1]


@pytest.mark.parametrize("ttl", [None, 0.3], ids=["ttl=bound", "ttl=0.3"])
@pytest.mark.parametrize(
    "workload",
    [
        PoissonZipfWorkload(num_keys=60, rate_per_key=25.0, read_ratio=0.8, seed=17),
        TwitterWorkload(num_keys=80, total_rate=1200.0, seed=17),
    ],
    ids=["poisson", "twitter"],
)
def test_batched_ttl_kernels_match_per_key_reference(workload, ttl) -> None:
    """Seeded traces, the TTL at the bound and overridden below it (0.3 of
    1.0): refetches, re-charged polls and polled versions all occur."""
    trace = compile_workload(workload, 6.0)
    refetches, poll_events = assert_ttl_kernels_match_reference(trace, ttl)
    assert refetches > len(trace.key_names)
    assert len(poll_events) > len(trace.key_names)
    # The float-baseline quirk: reads between two polls that charge again.
    assert sum(polls for _, polls in poll_events) > len(poll_events) // 2


def test_batched_ttl_kernels_match_with_duplicate_timestamps() -> None:
    """Runs of equal arrival times: a read tied with its key's fill settles
    nothing, and an expiry deadline met by a tie re-fetches at its first read."""
    trace = random_trace(40, requests=4_000, num_keys=25, ties=True)
    assert np.count_nonzero(np.diff(trace.times) == 0) > 1_000
    refetches, poll_events = assert_ttl_kernels_match_reference(trace, ttl=0.5)
    assert refetches and poll_events


def test_batched_ttl_kernels_match_on_single_read_and_write_only_keys() -> None:
    trace = random_trace(41, requests=600, num_keys=12, read_ratio=0.5)
    trace.is_read[trace.key_ids == 0] = False  # write-only: no entry at all
    single = np.flatnonzero(trace.key_ids == 1)
    trace.is_read[single] = False
    trace.is_read[single[len(single) // 2]] = True  # one read, writes around it
    trace.is_read[trace.key_ids == 2] = True  # read-only: version 0 for ever
    assert_ttl_kernels_match_reference(trace, ttl=0.7)
    index = trace.index()
    assert np.diff(index.read_offsets)[:2].tolist() == [0, 1]
    assert index.write_offsets[2] == index.write_offsets[3]
    ctx, node, columns = make_ttl_host(trace, TTLPollingPolicy, 0.7)
    tally = _SpanTally()
    _kernel_ttl_polling(ctx, columns, [tally], whole_trace_groups(trace))
    columns.write_back()
    filled = node.cache._entries
    assert "key-000000" not in filled
    assert filled["key-000001"].hits == 0 and filled["key-000001"].version > 0
    assert filled["key-000002"].version == 0


@pytest.mark.parametrize("block", [7, 64])
def test_batched_polling_kernel_is_blind_to_its_row_block(monkeypatch, block: int) -> None:
    """Groups straddle block edges (a block of 7 rows is shorter than every
    key's run, one of 64 than the hot keys'), in the table of keys that take
    their reads as candidates and in the table of those that take their
    polls, which the hot keys do: the carried accounting points cross the
    edges unchanged."""
    monkeypatch.setattr(polling, "_TTL_BLOCK_ROWS", block)
    tables = spy_polling_tables(monkeypatch)
    trace = compile_workload(
        PoissonZipfWorkload(num_keys=30, rate_per_key=30.0, read_ratio=0.85, seed=5), 5.0
    )
    runs = np.diff(trace.index().read_offsets)
    assert (runs.min() if block == 7 else runs.max()) > block
    _, poll_events = assert_ttl_kernels_match_reference(trace)
    assert poll_events
    # Six candidates a hot key (five polls), more than seven hot keys: a
    # block of 7 cuts through their candidates, one search a block.
    assert tables["reads"][0] > 0 and tables["runs"][0] > 7
    assert tables["searches"] >= (2 if block == 7 else 1)
    tied = random_trace(42, requests=2_000, num_keys=9, ties=True)
    assert_ttl_kernels_match_reference(tied, ttl=0.25)


def spy_polling_tables(monkeypatch) -> dict:
    """Record, per call, how many groups the polling kernel hands each of its
    two tables, and how many blocks search the run table."""
    seen = {"reads": [], "runs": [], "searches": 0}
    for name, label in (("_charge_reads", "reads"), ("_charge_runs", "runs")):
        def table(groups, which, *args, original=getattr(polling, name), label=label):
            seen[label].append(int(which.size))
            return original(groups, which, *args)

        monkeypatch.setattr(polling, name, table)
    first_reads = polling._first_reads

    def search(*args):
        seen["searches"] += 1
        return first_reads(*args)

    monkeypatch.setattr(polling, "_first_reads", search)
    return seen


def run_table_trace(seed: int = 46) -> CompiledTrace:
    """A second of requests from t = 3, quantised to 0.1 ms (timestamp ties),
    for a TTL of 0.01 (100 polls): keys 0 and 4 dense (thousands of reads;
    key 0's skip three polls, which no read sees), key 1 between (more reads
    than polls, too few to search), key 2 sparse (fewer reads than polls),
    key 3 one read, key 5 a burst of reads inside one poll interval; writes
    on every key."""
    rng = np.random.default_rng(seed)
    reads = {0: 4000, 1: 600, 2: 30, 3: 1, 4: 3000}
    writes = 300
    times = [rng.random(n) for n in reads.values()]
    gap = (times[0] >= 0.3) & (times[0] < 0.33)
    times[0][gap] -= 0.05
    times += [0.5 + 0.004 * rng.random(20), rng.random(writes)]
    keys = [np.full(n, key) for key, n in reads.items()]
    keys += [np.full(20, 5), rng.integers(0, 6, size=writes)]
    times, keys = np.round(np.concatenate(times), 4), np.concatenate(keys)
    order = np.argsort(times, kind="stable")
    return CompiledTrace(
        times=3.0 + times[order],
        key_ids=keys[order],
        is_read=(np.arange(times.size) < times.size - writes)[order],
        key_sizes=np.full(times.size, 16, dtype=np.int64),
        value_sizes=rng.integers(8, 512, size=times.size),
        key_names=[f"key-{index:06d}" for index in range(6)],
    )


@pytest.mark.parametrize("block", [1, 7, None])
def test_polling_run_table_matches_the_reference_and_the_scalar_engine(
    monkeypatch, block
) -> None:
    """Keys that take their polls as candidates and keys that take their
    reads, blocks that cut through both tables' groups (1 and 7 candidates),
    timestamp ties and slip runs: the cold kernel equals the per-key
    reference, and with a loaded ``VALID`` entry the replay equals the scalar
    engine's, rows, entries and float folds (``c_m = 0.3``) alike.  The
    loaded entry's accounting point skipped into the interval of its first
    reads' poll count, a poll count whose accounting point rounds back one
    poll: those reads are served as handed, charging nothing, where a run
    of a cold key would charge one poll on each of its later reads."""
    if block is not None:
        monkeypatch.setattr(polling, "_TTL_BLOCK_ROWS", block)
    tables = spy_polling_tables(monkeypatch)
    trace, ttl = run_table_trace(), 0.01
    index = trace.index()
    counts = np.diff(index.read_offsets).tolist()
    assert counts[2] < 100 < counts[1] < counts[4] < counts[0] and counts[3] == 1
    assert np.count_nonzero(np.diff(trace.times) == 0) > 1_000
    # Slip runs on the dense cold key: several reads share a poll count
    # whose accounting point counts back a poll short.
    reads = index.read_pos[index.read_offsets[0] : index.read_offsets[1]]
    anchor = float(trace.times[reads[0]])
    seen = poll_counts(np.full(reads.size, anchor), trace.times[reads], ttl)
    slipped = poll_counts(np.full(reads.size, anchor), poll_instant(anchor, seen, ttl), ttl)
    repeats = seen[1:] == seen[:-1]
    assert np.count_nonzero(repeats & (slipped[1:] == seen[1:] - 1)) > 50
    _, poll_events = assert_ttl_kernels_match_reference(trace, ttl=ttl, bound=0.5)
    assert poll_events
    assert tables["reads"] and tables["runs"] and min(tables["reads"] + tables["runs"]) > 0
    assert tables["searches"] > (1 if block else 0)
    # A loaded valid entry of key 4.
    reads = index.read_pos[index.read_offsets[4] : index.read_offsets[5]]
    first = float(trace.times[reads[0]])
    for polls in range(20, 200):
        anchor = first - (polls + 0.5) * ttl
        if poll_count(anchor, poll_instant(anchor, polls, ttl), ttl) == polls - 1:
            break
    served = poll_counts(np.full(reads.size, anchor), trace.times[reads], ttl) == polls
    assert served[:3].all()
    engines = []
    for engine in (Simulation, VectorSimulation):
        simulation = engine(
            trace, policy=TTLPollingPolicy(ttl=ttl), staleness_bound=0.5, duration=4.0,
            costs=CostModel(miss=0.3),
        )
        simulation.node.cache._entries["key-000004"] = CacheEntry(
            key="key-000004", version=0, as_of=poll_instant(anchor, polls - 1, ttl),
            fetched_at=anchor, key_size=16, value_size=64, state=EntryState.VALID,
            last_poll_accounted=poll_instant(anchor, polls, ttl) + 0.3 * ttl, hits=2,
        )
        row = simulation.run().as_dict()
        engines.append((row, json.dumps(row, sort_keys=True), host_state(simulation.node)))
    assert simulation.used_vector_path
    assert engines[0] == engines[1]


def test_expiry_kernel_steps_past_a_ttl_the_clock_cannot_resolve(
    monkeypatch, wall_clock_limit
) -> None:
    """``fetched_at + ttl == fetched_at``: the envelope keeps such a run off
    the vector path, but the kernel itself must still terminate — its search
    starts after the current fill — with what the scalar engine counts: a
    read past its key's fill time is an expiry."""
    trace = random_trace(45, requests=400, num_keys=6, ties=True)
    policy = TTLExpiryPolicy(ttl=1e-19)
    scalar = Simulation(
        trace.iter_requests(), policy=policy, staleness_bound=1.0, duration=10.0
    ).run()
    for expiry_batch in (1, 128):  # stepped together / walked one by one
        # A fresh host each time: the kernel starts from the rows it is handed.
        ctx, _, columns = make_ttl_host(trace, TTLExpiryPolicy, 0.5)
        columns.ttl[:] = 1e-19  # the kernel reads each host's TTL off the columns
        monkeypatch.setattr(sim_vector, "_TTL_EXPIRY_BATCH", expiry_batch)
        tally = _SpanTally()
        with wall_clock_limit(5.0):
            _kernel_ttl_expiry(ctx, columns, [tally], whole_trace_groups(trace))
        # (Reads tied with a fill at t = 0, where 1e-19 does resolve, still hit.)
        assert (tally.hits, tally.stale_misses) == (scalar.hits, scalar.stale_misses)
        assert tally.expirations == tally.stale_misses > 0.9 * tally.reads


def test_cumsum_poll_fold_is_the_scalar_left_fold() -> None:
    """``_flush_tally`` folds the charges with a seeded ``cumsum``; it has to
    produce the float a one-by-one ``+=`` does, on top of a running total."""
    rng = np.random.default_rng(8)
    trace = random_trace(43, requests=10, num_keys=2)
    ctx, node, _ = make_ttl_host(trace, TTLPollingPolicy, None)
    ctx.miss_const = 2.7
    node.result.freshness_cost = expected = 0.1 + 0.2
    tally = _SpanTally()
    tally.charge_positions = rng.permutation(5_000)
    tally.charge_counts = rng.integers(1, 9, size=5_000)
    tally.polls = int(tally.charge_counts.sum())
    for polls in tally.charge_counts[np.argsort(tally.charge_positions)].tolist():
        expected += polls * 2.7
    _flush_tally(ctx, node, tally)
    assert node.result.freshness_cost == expected
    assert node.result.polls == tally.polls


def scalar_poll_walk(anchor: float, ttl: float, read_times, miss_const: float):
    """``account_entry_polls`` on one entry, read by read: the scalar engine."""
    entry = CacheEntry(
        key="k", version=0, as_of=anchor, fetched_at=anchor, last_poll_accounted=anchor
    )

    class Sink:
        polls = 0
        freshness_cost = 0.0

    charges = []
    slipped = 0  # charges whose accounting point counts back one poll short
    for rank, now in enumerate(read_times):
        before = Sink.polls
        account_entry_polls(entry, now, ttl, Sink, None, miss_const)
        if Sink.polls != before:
            charges.append((rank, Sink.polls - before))
            slipped += poll_count(anchor, entry.last_poll_accounted, ttl) < poll_count(
                anchor, now, ttl
            )
    return charges, entry.last_poll_accounted, entry.as_of, slipped


def test_polling_closed_form_matches_scalar_arithmetic_up_to_the_resolvability_edge() -> None:
    """2 000 seeded (anchor, ttl) pairs, the TTLs log-uniform from the edge of
    :func:`_ttl_resolvable` upwards: the closed form's charges, accounting
    point and ``as_of`` equal ``account_entry_polls`` walked read by read,
    and past the edge the engine takes the scalar path instead."""
    rng = np.random.default_rng(2024)
    anchors_per_ttl, reads_per_anchor = 50, 12
    slipped = 0
    for case in range(40):
        end = float(10.0 ** rng.uniform(-2, 4))
        edge = max(4 * np.spacing(end), end / 2.0**50 * (1 + 1e-9))
        # A quarter of the TTLs sit within a factor 4 of the edge.
        ttl = float(edge * 10.0 ** rng.uniform(0, 0.6 if case % 4 == 0 else 14))
        times = np.sort(rng.random(anchors_per_ttl * reads_per_anchor - 1) * end)
        times = np.append(times, end)
        key_ids = rng.integers(0, anchors_per_ttl, size=times.size)
        trace = CompiledTrace(
            times=times,
            key_ids=key_ids,
            is_read=np.ones(times.size, dtype=np.bool_),
            key_sizes=np.full(times.size, 16, dtype=np.int64),
            value_sizes=np.full(times.size, 64, dtype=np.int64),
            key_names=[f"key-{index:06d}" for index in range(anchors_per_ttl)],
        )
        ctx, node, columns = make_ttl_host(trace, TTLPollingPolicy, ttl, bound=max(ttl, 1.0))
        index = trace.index()
        groups = whole_trace_groups(trace)
        tally = _SpanTally()
        _kernel_ttl_polling(ctx, columns, [tally], groups)
        columns.write_back()
        got = dict(zip(tally.charge_positions.tolist(), tally.charge_counts.tolist()))
        entries = node.cache._entries
        for key, lo, reads in zip(*(column.tolist() for column in groups[:3])):
            positions = index.read_pos[lo : lo + reads]
            read_times = times[positions].tolist()
            charges, accounted, as_of, slips = scalar_poll_walk(
                read_times[0], ttl, read_times, ctx.miss_const
            )
            entry = entries[trace.key_names[key]]
            assert [
                (rank, got[position])
                for rank, position in enumerate(positions.tolist())
                if position in got
            ] == charges, (end, ttl, key)
            assert (entry.last_poll_accounted, entry.as_of) == (accounted, as_of)
            slipped += slips
    # The float-baseline quirk the closed form has to reproduce is common.
    assert slipped > 1_000


@pytest.mark.parametrize("policy_class", [TTLExpiryPolicy, TTLPollingPolicy])
def test_ttl_resolvability_edge_is_where_the_helper_says(policy_class) -> None:
    trace = random_trace(44, requests=200, num_keys=5)
    end = float(trace.times[-1])

    def eligible(ttl: float) -> bool:
        simulation = VectorSimulation(
            trace, policy=policy_class(ttl=ttl), staleness_bound=1.0, duration=10.0
        )
        assert simulation.vector_eligible() == _ttl_resolvable(simulation.node, trace)
        return simulation.vector_eligible()

    assert eligible(1.0) and eligible(1e-9)
    assert eligible(max(4 * np.spacing(end), end / 2.0**50 * 1.001))
    assert not eligible(3.9 * np.spacing(end))
    assert not eligible(end / 2.0**50 * 0.999)
    assert not eligible(1e-19)


# --------------------------------------------------------------------- #
# The batched interval flush vs the per-message flush it replaced
# --------------------------------------------------------------------- #

class PerMessageChannel(Channel):
    """The old ``Channel.send``: its own loss / retry / jitter walk, ending in
    a ``DeliveryRecord`` per message (``transit`` is never called)."""

    def send(self, message: Message) -> DeliveryRecord:
        self.sent += 1
        if self.outage:
            self.dropped += 1
            return DeliveryRecord(message=message, delivered=False, deliver_at=float("inf"))
        loss = self._effective_loss()
        retry_penalty = 0.0
        if loss > 0.0 and self._rng.random() < loss:
            recovered = False
            for attempt in range(1, self.retries + 1):
                self.retried += 1
                retry_penalty += (
                    self.retry_timeout + self.retry_backoff * 2 ** (attempt - 1)
                )
                if self._rng.random() >= loss:
                    recovered = True
                    break
            if not recovered:
                self.dropped += 1
                return DeliveryRecord(
                    message=message, delivered=False, deliver_at=float("inf")
                )
            self.recovered += 1
        extra = abs(float(self._rng.normal(0.0, self.jitter))) if self.jitter > 0 else 0.0
        if self.degraded:
            extra += self._degraded_delay
            if self._degraded_jitter > 0:
                extra += abs(float(self._rng.normal(0.0, self._degraded_jitter)))
        self.delivered += 1
        return DeliveryRecord(
            message=message,
            delivered=True,
            deliver_at=message.sent_at + self.delay + extra + retry_penalty,
        )


class PerMessageNode(CacheNode):
    """The old flush: per dirty key one ``_decide``, a handler looked up by
    action, a frozen message object, ``Channel.send``, a ``DeliveryRecord``,
    ``_transmit`` and an ``isinstance`` in ``_apply_message``."""

    def flush(self, flush_time: float) -> None:
        if self.l1 is not None:
            self.l1.flush(flush_time)
        handlers = {
            Action.NOTHING: None,
            Action.INVALIDATE: self._send_invalidate,
            Action.UPDATE: self._send_update,
        }
        decide = self._decide
        for buffered in self.buffer.drain():
            handler = handlers[decide(buffered.key, flush_time)]
            if handler is None:
                self.result.decisions_nothing += 1
            else:
                handler(buffered.key, buffered.key_size, flush_time)
        if self.detector is not None:
            self.result.hot_pressure += self.detector.pressure()
            self.detector.end_interval()

    def _decide(self, key: str, time: float) -> Action:
        if self.detector is not None and self.detector.is_hot(key):
            if self.hot_policy is not None:
                self.result.hot_decisions += 1
                return self.hot_policy.decide(key, time)
        if not self.policy.reacts_to_writes:
            return Action.NOTHING
        return self.policy.decide(key, time)

    def _send_invalidate(self, key: str, key_size: int, time: float) -> None:
        if self.tracker.is_invalidated(key):
            self.result.suppressed_invalidates += 1
            return
        self.result.invalidates_sent += 1
        self.result.freshness_cost += self.costs.invalidate_cost(key_size)
        self.tracker.mark_invalidated(key, time)
        message = InvalidateMessage(
            key=key,
            sent_at=time,
            key_size=key_size,
            version=self.datastore.latest_version(key),
        )
        if self.datastore.journal is not None:
            self.datastore.journal.log_message("invalidate", key, time, message.version)
        self._transmit(message)

    def _send_update(self, key: str, key_size: int, time: float) -> None:
        value_size = self.datastore.value_size(key)
        self.result.updates_sent += 1
        self.result.freshness_cost += self.costs.update_cost(key_size, value_size)
        self.tracker.mark_refetched(key)
        message = UpdateMessage(
            key=key,
            sent_at=time,
            key_size=key_size,
            value_size=value_size,
            version=self.datastore.latest_version(key),
        )
        if self.datastore.journal is not None:
            self.datastore.journal.log_message("update", key, time, message.version)
        self._transmit(message)

    def _transmit(self, message: Message) -> None:
        record = self.channel.send(message)
        if not record.delivered:
            self.result.messages_dropped += 1
            return
        if record.deliver_at <= message.sent_at:
            self._apply_message(message, message.sent_at)
        else:
            self._pending.append(PendingDelivery(message=message, deliver_at=record.deliver_at))
            if self._pending_registry is not None:
                self._pending_registry.add(self.node_id)

    def deliver_until(self, until: float) -> None:
        if not self._pending:
            return
        remaining = []
        for pending in self._pending:
            if pending.deliver_at <= until:
                self._apply_message(pending.message, pending.deliver_at)
            else:
                remaining.append(pending)
        self._pending = remaining
        if not remaining and self._pending_registry is not None:
            self._pending_registry.discard(self.node_id)

    def _apply_message(self, message: Message, time: float) -> None:
        if isinstance(message, UpdateMessage):
            applied = self.cache.apply_update(
                message.key, version=message.version, time=time, value_size=message.value_size
            )
            if self.l1 is not None:
                l1_applied = self.l1.apply_update(
                    message.key, version=message.version, time=time,
                    value_size=message.value_size,
                )
                applied = applied or l1_applied
            if not applied:
                self.result.updates_wasted += 1
        else:
            self.cache.apply_invalidate(message.key, time)
            if self.l1 is not None:
                self.l1.apply_invalidate(message.key, time)


FLUSH_KEYS = [f"key-{index:02d}" for index in range(24)]
FLUSH_INTERVALS = 6


class NeighbourPolicy(FreshnessPolicy):
    """A user policy whose decision reads what the *previous send of the same
    flush* may have changed: the tracker, and another key's cache entry.  An
    eager flush (all decisions first, then all sends) decides differently."""

    name = "neighbour"
    reacts_to_writes = True

    def decide(self, key: str, time: float) -> Action:
        neighbour = FLUSH_KEYS[FLUSH_KEYS.index(key) - 1]
        if neighbour in self.context.tracker:
            return Action.UPDATE
        entry = self.context.cache.peek(neighbour)
        if entry is not None and entry.is_valid and entry.as_of == time:
            return Action.NOTHING
        return Action.INVALIDATE


FLUSH_POLICIES = {
    "invalidate": AlwaysInvalidatePolicy,
    "update": AlwaysUpdatePolicy,
    "adaptive": AdaptivePolicy,
    "adaptive+cs": CacheStateAdaptivePolicy,
    "adaptive-slo": lambda: AdaptivePolicy(staleness_slo=0.3),
    "user-subclass": NeighbourPolicy,
}


def _degrade_mid_run(channel: Channel, interval: int) -> None:
    if interval == 2:
        channel.set_degraded(loss=0.2, delay=0.1, jitter=0.2)
    elif interval == 4:
        channel.clear_degraded()


def _cut_mid_run(channel: Channel, interval: int) -> None:
    channel.outage = interval in (2, 3)


#: name -> (constructor arguments, what happens to the channel as interval N starts)
FLUSH_CHANNELS = {
    "ideal": (dict(), None),
    "loss+retries": (
        dict(loss_probability=0.3, retries=2, retry_timeout=0.05, retry_backoff=0.02), None
    ),
    "delay+jitter": (dict(delay=0.2, jitter=0.3), None),
    "outage": (dict(), _cut_mid_run),
    "degraded": (dict(loss_probability=0.1), _degrade_mid_run),
}

#: name -> CacheNode arguments (built afresh per node)
FLUSH_VARIANTS = {
    "plain": lambda: dict(),
    "bounded-cache": lambda: dict(cache_capacity=6),
    "l1-write-through": lambda: dict(tier=TierConfig(l1_capacity=8, admission="always")),
    "l1-write-back": lambda: dict(
        tier=TierConfig(l1_capacity=8, mode="write-back", admission="always")
    ),
    "cost-breakdown": lambda: dict(costs=CostModel.cpu_bottleneck()),
    "hot-key": lambda: dict(
        detector=HotKeyDetector(HotKeyConfig(hot_fraction=0.08, min_observations=30)),
        hot_policy=AlwaysUpdatePolicy(),
    ),
    "journal": lambda: dict(),
}


def flush_observables(node: CacheNode) -> dict:
    """Everything a flush may touch, in the order the containers keep it."""

    def entries(cache):
        return [(entry.key, entry.state, entry.version, entry.as_of) for entry in cache.entries()]

    channel = node.channel
    return {
        "result": dataclasses.asdict(node.result),
        "cache": entries(node.cache),
        "cache_stats": dataclasses.asdict(node.cache.stats),
        "l1": None if node.l1 is None else (entries(node.l1.cache), sorted(node.l1.dirty)),
        "tracker": list(node.tracker._invalidated.items()),
        "buffer": len(node.buffer),
        "pending": [
            (type(pending.message).__name__, dataclasses.astuple(pending.message), pending.deliver_at)
            for pending in node._pending
        ],
        "channel": (
            channel.sent, channel.dropped, channel.delivered, channel.retried,
            channel.recovered, channel._rng.bit_generator.state,
        ),
        "decisions": [
            (getattr(policy, "decisions_update", None), getattr(policy, "decisions_invalidate", None))
            for policy in (node.policy, node.hot_policy)
            if policy is not None
        ],
    }


def drive_flushes(node_class, channel_class, policy: str, channel: str, variant: str, log_path):
    """Replay one seeded request mix against a node, flushing at every interval
    boundary; the observable state after each flush and after ``finalize``."""
    arguments, script = FLUSH_CHANNELS[channel]
    datastore = DataStore()
    journal = None
    if variant == "journal":
        journal = Journal(WriteAheadLog(log_path, flush_every=16))
        datastore.attach_journal(journal)
    config = dict(costs=CostModel(), channel=channel_class(seed=3, **arguments))
    config.update(FLUSH_VARIANTS[variant]())
    node = node_class(
        "node-000", FLUSH_POLICIES[policy](), 1.0, datastore=datastore, result=NodeResult(), **config
    )
    rng = np.random.default_rng(11)
    states = []
    for interval in range(FLUSH_INTERVALS):
        if script is not None:
            script(node.channel, interval)
        times = np.sort(rng.uniform(interval, interval + 1.0, size=90)).tolist()
        # Skewed towards the low keys, so a few are hot and most intervals
        # leave neighbouring keys dirty together.
        picks = np.minimum(rng.geometric(0.12, size=90) - 1, len(FLUSH_KEYS) - 1).tolist()
        for time, pick, is_read in zip(times, picks, (rng.random(90) < 0.6).tolist()):
            key = FLUSH_KEYS[pick]
            node.deliver_until(time)
            if is_read:
                node.handle_read(time, key, 16, 128)
            else:
                value_size = 64 + 8 * pick
                datastore.write(key, time, value_size)
                node.observe_write(time, key, 16, value_size, True)
        node.deliver_until(interval + 1.0)
        node.flush(interval + 1.0)
        states.append(flush_observables(node))
    node.finalize(FLUSH_INTERVALS + 0.5)
    states.append(flush_observables(node))
    if journal is not None:
        journal.sync()
        journal.wal.close()
        states.append((list(scan_wal(log_path)), journal.messages_logged, journal.wal.stats.as_dict()))
    return states


@pytest.mark.parametrize("variant", list(FLUSH_VARIANTS))
@pytest.mark.parametrize("channel", list(FLUSH_CHANNELS))
@pytest.mark.parametrize("policy", list(FLUSH_POLICIES))
def test_batched_flush_matches_the_per_message_flush(
    policy: str, channel: str, variant: str, tmp_path
) -> None:
    reference = drive_flushes(
        PerMessageNode, PerMessageChannel, policy, channel, variant, tmp_path / "reference.log"
    )
    batched = drive_flushes(CacheNode, Channel, policy, channel, variant, tmp_path / "batched.log")
    for flush, (expected, got) in enumerate(zip(reference, batched)):
        assert expected == got, f"diverged at flush {flush}"
    assert len(reference) == len(batched)


def test_the_flush_reference_drive_reaches_every_branch(tmp_path) -> None:
    """The seeded mix is only a pin if it exercises what it claims to."""
    def final(policy, channel, variant):
        return drive_flushes(CacheNode, Channel, policy, channel, variant, tmp_path / "wal.log")

    plain = final("adaptive", "ideal", "plain")[-1]
    assert plain["decisions"][0][0] > 0 and plain["decisions"][0][1] > 0
    assert plain["result"]["suppressed_invalidates"] > 0
    assert final("update", "ideal", "plain")[-1]["result"]["updates_wasted"] > 0
    assert final("adaptive+cs", "ideal", "plain")[-1]["result"]["decisions_nothing"] > 0
    user = final("user-subclass", "ideal", "plain")[-1]["result"]
    assert min(user["updates_sent"], user["invalidates_sent"], user["decisions_nothing"]) > 0
    delayed = final("update", "delay+jitter", "plain")
    assert any(state["pending"] for state in delayed[:-1])
    lossy = final("invalidate", "loss+retries", "plain")[-1]
    assert lossy["result"]["messages_dropped"] > 0 and lossy["channel"][3] > 0 < lossy["channel"][4]
    assert final("invalidate", "outage", "plain")[-1]["result"]["messages_dropped"] > 0
    bounded = final("update", "ideal", "bounded-cache")[-1]
    assert len(bounded["cache"]) == 6 and bounded["cache_stats"]["evictions"] > 0
    assert final("invalidate", "ideal", "hot-key")[-1]["result"]["hot_decisions"] > 0
    assert final("update", "ideal", "l1-write-back")[-1]["result"]["l1_writebacks"] > 0
    records, logged, _ = final("adaptive", "delay+jitter", "journal")[-1]
    assert logged == sum(record["k"] == "m" for record in records) > 0


def counted(cls, counts: dict):
    """A subclass of ``cls`` that counts its constructions (``isinstance`` holds)."""

    class Counted(cls):
        __slots__ = ()

        def __init__(self, *args, **kwargs) -> None:
            counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
            cls.__init__(self, *args, **kwargs)

    return Counted


@pytest.mark.parametrize("policy", ["invalidate", "update", "adaptive"])
def test_a_flush_builds_an_object_only_for_a_deferred_delivery(policy: str, monkeypatch) -> None:
    counts: dict = {}
    for cls in (InvalidateMessage, UpdateMessage, PendingDelivery):
        monkeypatch.setattr(node_module, cls.__name__, counted(cls, counts))
    monkeypatch.setattr(channel_module, "DeliveryRecord", counted(DeliveryRecord, counts))
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=30.0, seed=7)

    def replay(channel: Channel) -> Channel:
        counts.clear()
        Simulation(
            workload.iter_requests(5.0), policy=make_policy(policy), staleness_bound=1.0,
            duration=5.0, channel=channel,
        ).run()
        return channel

    ideal = replay(Channel(seed=1))
    assert ideal.sent == ideal.delivered > 0
    assert counts == {}
    delayed = replay(Channel(delay=0.2, seed=1))
    assert delayed.delivered > 0
    messages = counts.get("InvalidateMessage", 0) + counts.get("UpdateMessage", 0)
    assert messages == counts["PendingDelivery"] == delayed.delivered
    assert "DeliveryRecord" not in counts
