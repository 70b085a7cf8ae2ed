"""The hosts' replay state as columns (:class:`_HostColumns`), a batch of
cuts as group and prelude blocks, the trace's writes committed with their
histories deferred, and the folds of a kernel call's tallies into results."""

from __future__ import annotations

import math
import sys
from functools import partial, reduce
from itertools import repeat
from operator import add
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore, KeyHistory
from repro.cache.entry import CacheEntry, EntryState
from repro.core.adaptive import AdaptivePolicy
from repro.sim.node import CacheNode
from repro.sim.vector.envelope import _VECTOR_POLICIES
from repro.sketch.exact import ExactEWTracker, _KeyCounters
from repro.workload.compiled import _CUT_GRID, CompiledTrace, TraceIndex


class _ReplayContext:
    """Everything the kernels need, resolved once per run."""

    __slots__ = (
        "trace",
        "index",
        "datastore",
        "bound",
        "ttl",
        "serve_const",
        "miss_const",
        "invalidate_const",
        "update_const",
        "default_value_size",
    )

    def __init__(
        self,
        trace: CompiledTrace,
        index: TraceIndex,
        datastore: DataStore,
        bound: float,
        ttl: float,
        serve_const: float,
        miss_const: float,
        invalidate_const: Optional[float] = None,
        update_const: Optional[float] = None,
    ) -> None:
        self.trace = trace
        self.index = index
        self.datastore = datastore
        self.bound = bound
        self.ttl = ttl
        self.serve_const = serve_const
        self.miss_const = miss_const
        self.invalidate_const = invalidate_const
        self.update_const = update_const
        self.default_value_size = datastore.default_value_size

    @classmethod
    def for_node(
        cls, trace: CompiledTrace, index: TraceIndex, node: CacheNode
    ) -> "_ReplayContext":
        """The context of a replay whose caches are configured like ``node``
        (bound, TTL and cost constants are per-run: any node of a fleet will do)."""
        return cls(
            trace=trace,
            index=index,
            datastore=node.datastore,
            bound=node.staleness_bound,
            ttl=node._ttl_value,
            serve_const=node._serve_cost_const,
            miss_const=node._miss_cost_const,
            invalidate_const=node.costs.invalidate_cost(),
            update_const=node.costs.update_cost(),
        )


#: The charge columns of a tally no polling kernel has written to (every
#: reactive span's): shared, never mutated.
_NO_CHARGES = np.empty(0, dtype=np.int64)
_NO_CHARGES.flags.writeable = False


class _SpanTally:
    """One host's counter deltas of one kernel call, folded into its result
    and cache stats in bulk by :func:`_flush_tally`, plus the freshness
    charges that fold in order: TTL-polling's, in stream order, and a
    reactive window's (``charges``), with its flushes' message counts
    (``messages``).

    A kernel that streams its charges streams every one of them: its stale
    misses are among them, one miss's worth each, and fold in order with
    its polls or messages instead of as one constant.
    """

    __slots__ = (
        "reads",
        "hits",
        "stale_misses",
        "cold_misses",
        "violations",
        "expirations",
        "writes",
        "buffered_writes",
        "polls",
        "charge_positions",
        "charge_counts",
        "charges",
        "messages",
    )

    def __init__(self, writes: int = 0) -> None:
        self.reads = 0
        self.hits = 0
        self.stale_misses = 0
        self.cold_misses = 0
        self.violations = 0
        self.expirations = 0
        self.writes = writes
        self.buffered_writes = 0
        self.polls = 0
        # TTL-polling charges, as two aligned columns: the stream position
        # of each charging read, and how many misses' worth it charges (the
        # polls it settles, or 1 for its stale miss).
        self.charge_positions = self.charge_counts = _NO_CHARGES
        # A reactive window's freshness addends of a host that sent a
        # message, in the scalar engine's order; its flushes' counts.
        self.charges: Optional[np.ndarray] = None
        self.messages: Optional[List[int]] = None


def _commit_trace_writes(ctx: _ReplayContext) -> int:
    """Commit every write of the trace to the datastore, byte-identical to
    the scalar loop: count them in ``total_writes`` now and hand the store
    the deferred build of their histories (:func:`_build_histories`), which
    runs on the first read of ``DataStore._histories``.

    A replay commits once, after its unit's end and before the driver's
    finalize: no kernel, flush or settle reads a history (miss,
    update and poll versions are positions in the index), and neither does
    the finalize of a columnar replay, so a caller that reads none — a
    sweep, a benchmark — never builds one.  Returns the number of writes
    committed.
    """
    ctx.datastore.total_writes += ctx.index.write_pos.size
    ctx.datastore.defer_histories(partial(_build_histories, ctx.trace.key_names, ctx.index))
    return ctx.index.write_pos.size


def _build_histories(names: List[str], index: TraceIndex, histories: dict) -> None:
    """Add every write of ``index``'s trace to ``histories``, as the scalar
    loop's ``DataStore.write`` calls would.

    A history is created per written key in first-write order (the scalar
    engine's insertion order), copies its key's write times out of the
    index's shared list (:meth:`~repro.workload.compiled.TraceIndex.listed_write_times`)
    and ends at the key's last value size; a key the dict already holds
    extends its history.
    """
    offsets = index.write_offsets
    written = np.diff(offsets).nonzero()[0]
    written = written[np.argsort(index.write_pos[offsets[written]], kind="stable")]
    ends = offsets[written + 1]
    write_times = index.listed_write_times()
    for key_id, lo, hi, value_size in zip(
        written.tolist(),
        offsets[written].tolist(),
        ends.tolist(),
        index.write_value_sizes[ends - 1].tolist(),
    ):
        name = names[key_id]
        history = histories.get(name)
        if history is None:
            histories[name] = KeyHistory(name, write_times[lo:hi], value_size)
        else:
            history.write_times.extend(write_times[lo:hi])
            history.value_size = value_size


def _write_runs(
    index: TraceIndex,
    first: np.ndarray,
    count: np.ndarray,
    stride: int,
    write_lo: np.ndarray,
    num_writes: np.ndarray,
) -> np.ndarray:
    """Where each group's span writes fall among its span reads.

    For groups that have both, one row each: the number of writes before
    the first read, the number before the last read, and the number of reads
    after the first that have a write since the previous read.  A write's
    rank among the group's reads is arithmetic on ``write_read_rank``, so
    this touches the span's writes once and no read at all.  The groups go
    in blocks of at most :data:`~repro.workload.compiled._CUT_GRID` writes
    (a group with more is a block alone; no block splits a group), so the
    temporaries stay bounded however many cuts the groups cover.
    """
    runs = np.empty((3, num_writes.size), dtype=np.int64)
    ends = np.cumsum(num_writes)
    lo = 0
    while lo < num_writes.size:
        # The groups whose writes end within the grid of the block's first write.
        room = ends[lo] - num_writes[lo] + _CUT_GRID
        hi = max(lo + 1, int(np.searchsorted(ends, room, side="right")))
        block = slice(lo, hi)
        runs[:, block] = _block_write_runs(
            index, first[block], count[block], stride, write_lo[block], num_writes[block]
        )
        lo = hi
    return runs


def _block_write_runs(
    index: TraceIndex,
    first: np.ndarray,
    count: np.ndarray,
    stride: int,
    write_lo: np.ndarray,
    num_writes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_write_runs` of one block of groups, in one pass over their writes."""
    starts = np.cumsum(num_writes) - num_writes
    group = np.repeat(np.arange(num_writes.size), num_writes)
    flat = np.arange(group.size) + (write_lo - starts)[group]
    rank = index.write_read_rank[flat].astype(np.int64)
    rank = (rank - first[group] + (stride - 1)) // stride
    reads = count[group]
    np.clip(rank, 0, reads, out=rank)
    groups = num_writes.size
    before_first = np.bincount(group[rank == 0], minlength=groups)
    before_last = num_writes - np.bincount(group[rank == reads], minlength=groups)
    # Ranks ascend within a group, so each distinct rank strictly between the
    # ends is one later read closing a non-empty run.
    opens = np.ones(group.size, dtype=np.bool_)
    opens[1:] = (rank[1:] != rank[:-1]) | (group[1:] != group[:-1])
    opens &= (rank > 0) & (rank < reads)
    runs_closed = np.bincount(group[opens], minlength=groups)
    return before_first, before_last, runs_closed


#: A row's entry state in :class:`_HostColumns`: the key is not cached, or
#: cached in the :class:`EntryState` at that index of :data:`_ENTRY_STATES`.
_ABSENT, _VALID, _INVALIDATED = 0, 1, 2
_ENTRY_STATES = (None, EntryState.VALID, EntryState.INVALIDATED, EntryState.EXPIRED)

#: The order position of a row nothing has put in its dict yet.
_UNSEEN = np.iinfo(np.int64).max


class _HostColumns:
    """Every host's columnar replay state as columns, one row per (host, key id).

    Row ``k * len(hosts) + h`` is key ``k`` on host ``h``: a cut's groups
    index it directly (:attr:`_PreludeBlock.rows`), and host ``h``'s rows are
    the strided view ``column[h::len(hosts)]``, indexed by key id.  The key
    ids are the trace's key table, then any name a host held at load that
    the trace never mentions (``names``).  The columns stand for the four
    dicts the scalar engine keeps per cache:

    * the cache's entries — ``state`` (:data:`_ABSENT` or an entry state),
      ``version``, ``as_of``, ``fetched_at``, ``accounted``
      (``last_poll_accounted``), ``key_size``, ``value_size``, ``hits``;
    * the invalidation tracker — ``tracked`` and ``tracked_at``;
    * the write buffer — ``dirty``, ``first_write_time``,
      ``last_write_time``, ``write_count``, ``write_key_size``,
      ``write_value_size``;
    * the E[W] counters — ``sample_sum``, ``sample_count``,
      ``writes_since_read``.

    Each dict's insertion order is a position per row — ``filled`` (the
    first fill), ``tracked_seq`` (the invalidation), ``first_write`` (the
    first surviving write) and ``seen`` (the first observation) — and rows
    loaded from the hosts' objects take negative positions in their dict's
    order, ahead of everything the replay adds.  ``hosts`` are the
    :class:`~repro.sim.node.CacheNode` s the columns were loaded from — a
    lockstep unit's members' nodes, stacked — and ``tables`` each host's
    four dicts (the E[W] counters ``None`` without an estimator), which the
    write-back fills.  Each host keeps its own policy: ``kinds`` is each
    host's policy class as an index
    into :data:`_VECTOR_POLICIES` (a TTL replay never flushes, so the flush
    never decides for a TTL host), ``prior`` its estimator's E[W] before
    the first sample and ``zero_runs`` whether that estimator counts
    zero-length runs.
    ``folds`` says whether each host folds an E[W] estimator (the kernel
    folds its rows, and only its rows write back), ``sequence`` numbers the
    trackers' next insertion.  ``ttl`` and ``bound`` are each host's TTL
    (``inf`` without a TTL timer) and staleness bound: the members of a TTL
    unit each keep their own, and the TTL kernels read them per group.
    """

    __slots__ = (
        "hosts", "tables", "names", "kinds", "prior", "zero_runs", "folds", "sequence",
        "ttl", "bound",
        "state", "version", "as_of", "fetched_at", "accounted",
        "key_size", "value_size", "hits", "filled",
        "tracked", "tracked_at", "tracked_seq",
        "dirty", "first_write", "first_write_time", "last_write_time",
        "write_count", "write_key_size", "write_value_size",
        "sample_sum", "sample_count", "writes_since_read", "seen",
    )

    def __init__(self, hosts: Sequence[CacheNode], names: List[str]) -> None:
        """Load the hosts' objects: cache entries, tracker, buffer and E[W]
        counters, each in its dict's order."""
        estimators = [_estimator(host) for host in hosts]
        # Reading the dicts through their owners runs any build a replay
        # before this one left pending.
        held = [
            (
                host.cache._entries,
                host.tracker._invalidated,
                host.buffer._pending,
                None if estimator is None else estimator._counters,
            )
            for host, estimator in zip(hosts, estimators)
        ]
        ids: dict = {}
        if any(table for tables in held for table in tables):
            ids = {name: key for key, name in enumerate(names)}
            foreign = [
                name for tables in held for table in tables if table for name in table
                if name not in ids
            ]
            if foreign:
                names = names + list(dict.fromkeys(foreign))
                ids = {name: key for key, name in enumerate(names)}
        self.hosts = list(hosts)
        self.tables = held
        self.names = names
        self.kinds = np.array(
            [_VECTOR_POLICIES.index(type(host.policy)) for host in hosts], dtype=np.int8
        )
        self.prior = np.array(
            [math.nan if each is None else each.default_estimate for each in estimators]
        )
        self.zero_runs = np.array(
            [each is not None and each.count_zero_runs for each in estimators], dtype=np.bool_
        )
        self.folds = np.array([each is not None for each in estimators], dtype=np.bool_)
        self.ttl = np.array([host._ttl_value for host in hosts], dtype=np.float64)
        self.bound = np.array([host.staleness_bound for host in hosts], dtype=np.float64)
        self.sequence = 0
        size = len(hosts) * len(names)
        self.state = np.zeros(size, dtype=np.int8)
        self.tracked = np.zeros(size, dtype=np.bool_)
        self.dirty = np.zeros(size, dtype=np.bool_)
        for name in ("as_of", "fetched_at", "accounted", "tracked_at",
                     "first_write_time", "last_write_time"):
            setattr(self, name, np.zeros(size, dtype=np.float64))
        for name in ("version", "key_size", "value_size", "hits", "filled", "tracked_seq",
                     "first_write", "write_count", "write_key_size", "write_value_size",
                     "sample_sum", "sample_count", "writes_since_read"):
            setattr(self, name, np.zeros(size, dtype=np.int64))
        self.seen = np.full(size, _UNSEEN, dtype=np.int64)
        stride = len(hosts)
        for host, (entries, invalidated, pending, counters) in enumerate(held):
            if entries:
                rows = self._rows(host, stride, ids, entries, self.filled)
                loaded = entries.values()
                self.state[rows] = [_ENTRY_STATES.index(entry.state) for entry in loaded]
                for column in ("version", "as_of", "fetched_at", "key_size", "value_size", "hits"):
                    getattr(self, column)[rows] = [getattr(entry, column) for entry in loaded]
                self.accounted[rows] = [entry.last_poll_accounted for entry in loaded]
            if invalidated:
                rows = self._rows(host, stride, ids, invalidated, self.tracked_seq)
                self.tracked[rows] = True
                self.tracked_at[rows] = list(invalidated.values())
            if pending:
                rows = self._rows(host, stride, ids, pending, self.first_write)
                loaded = pending.values()
                self.dirty[rows] = True
                for column in ("first_write_time", "last_write_time", "write_count"):
                    getattr(self, column)[rows] = [getattr(write, column) for write in loaded]
                self.write_key_size[rows] = [write.key_size for write in loaded]
                self.write_value_size[rows] = [write.value_size for write in loaded]
            if counters:
                rows = self._rows(host, stride, ids, counters, self.seen)
                loaded = counters.values()
                for column in ("sample_sum", "sample_count", "writes_since_read"):
                    getattr(self, column)[rows] = [getattr(row, column) for row in loaded]

    @staticmethod
    def _rows(host: int, stride: int, ids: dict, table: dict, order: np.ndarray) -> np.ndarray:
        """Host ``host``'s rows of ``table``'s keys, their dict order written
        into ``order``."""
        rows = np.array([ids[name] * stride + host for name in table], dtype=np.int64)
        order[rows] = np.arange(-rows.size, 0)
        return rows

    def write_back(self, host: Optional[int] = None) -> None:
        """Rebuild host ``host``'s objects — every host's when ``None`` — in
        the dicts they were loaded from, each in the scalar engine's
        insertion order.  The columns stay as they are."""
        names, stride = self.names, len(self.tables)
        for host in range(stride) if host is None else (host,):
            entries, invalidated, pending, counters = self.tables[host]
            mine = slice(host, None, stride)

            def rows_of(held: np.ndarray, order: np.ndarray):
                """The host's rows where ``held``, in ``order``, and their key names."""
                keys = np.flatnonzero(held[mine])
                keys = keys[np.argsort(order[mine][keys], kind="stable")]
                return keys * stride + host, list(map(names.__getitem__, keys.tolist()))

            rows, cached = rows_of(self.state != _ABSENT, self.filled)
            built = map(
                CacheEntry,
                cached,
                *_gather(rows, self.version, self.as_of, self.fetched_at, self.key_size,
                         self.value_size),
                map(_ENTRY_STATES.__getitem__, self.state[rows].tolist()),
                *_gather(rows, self.accounted, self.hits),
            )
            entries.clear()
            entries.update(zip(cached, built))
            rows, tracked = rows_of(self.tracked, self.tracked_seq)
            invalidated.clear()
            invalidated.update(zip(tracked, *_gather(rows, self.tracked_at)))
            rows, dirty = rows_of(self.dirty, self.first_write)
            writes = map(
                BufferedWrite,
                dirty,
                *_gather(rows, self.first_write_time, self.last_write_time, self.write_count,
                         self.write_key_size, self.write_value_size),
            )
            pending.clear()
            pending.update(zip(dirty, writes))
            if counters is not None:
                rows, observed = rows_of(self.seen != _UNSEEN, self.seen)
                folded = map(
                    _KeyCounters,
                    *_gather(rows, self.sample_sum, self.sample_count, self.writes_since_read),
                )
                counters.clear()
                counters.update(zip(observed, folded))

    def defer(self) -> None:
        """Leave each host's objects to a build on their first read: every
        state owner of host ``h`` — cache, tracker, buffer, E[W] tracker —
        gets the one pending :meth:`write_back` of ``h``
        (:meth:`Deferrable.defer <repro.deferred.Deferrable.defer>`).  The
        columns then let go of their hosts, so a node nothing reads dies
        by reference count, its pending build and the columns with it."""
        for host, node in enumerate(self.hosts):
            build = _HostBuild(self, host)
            for owner in (node.cache, node.tracker, node.buffer, _estimator(node)):
                if owner is not None:
                    owner.defer(build)
        self.hosts = []


class _HostBuild:
    """Host ``host``'s pending :meth:`_HostColumns.write_back`: the first of
    its owners to be read runs it, and the others find it done."""

    __slots__ = ("columns", "host")

    def __init__(self, columns: _HostColumns, host: int) -> None:
        self.columns: Optional[_HostColumns] = columns
        self.host = host

    def __call__(self) -> None:
        columns, self.columns = self.columns, None
        if columns is not None:
            columns.write_back(self.host)


def _estimator(node: CacheNode) -> Optional[ExactEWTracker]:
    """The E[W] estimator ``node``'s policy folds; ``None`` if it folds none."""
    policy = node.policy
    return policy.estimator if isinstance(policy, AdaptivePolicy) else None


def _gather(rows: np.ndarray, *columns: np.ndarray) -> List[list]:
    """``columns`` at ``rows``, as lists."""
    return [column[rows].tolist() for column in columns]


class _GroupBlock(NamedTuple):
    """Every host's share of each cut of a batch, as one table of columns
    ordered by (cut, host, key).

    Group ``g`` is key ``keys[g]`` on host ``host[g]`` (among ``hosts``);
    its reads are ``read_pos[first[g] + j * stride]`` for ``j < count[g]``
    and its writes the slice ``[write_lo[g], write_hi[g])`` of the write
    columns.  Every group has at least one read or one write.  Cut ``j``'s
    groups are rows ``[offsets[j], offsets[j + 1])``, keys ascending within
    a host; ``bounds[j]`` are its host bounds relative to its first group
    (a host may have none) and ``writes[j]`` the writes each host counts in
    it (``cuts x (hosts + 1)`` and ``cuts x hosts`` integer matrices).  A
    kernel takes a block of the cuts it replays (:meth:`cuts`).  Built once per batch and
    fleet shape (the single cache is the one-host shape), or stacked for a
    lockstep unit (:func:`_stack_groups`).
    """

    keys: np.ndarray
    first: np.ndarray
    count: np.ndarray
    stride: int
    write_lo: np.ndarray
    write_hi: np.ndarray
    host: np.ndarray
    hosts: int
    offsets: List[int]
    bounds: np.ndarray
    writes: np.ndarray

    def cuts(self, lo: int, hi: int) -> "_GroupBlock":
        """Cuts ``lo`` to ``hi``: views of this block's rows and matrices."""
        start, stop = self.offsets[lo], self.offsets[hi]
        return _GroupBlock(
            self.keys[start:stop], self.first[start:stop], self.count[start:stop], self.stride,
            self.write_lo[start:stop], self.write_hi[start:stop], self.host[start:stop],
            self.hosts, [at - start for at in self.offsets[lo : hi + 1]], self.bounds[lo:hi],
            self.writes[lo:hi],
        )


def _stack_groups(blocks: Sequence[_GroupBlock], lo: int, hi: int) -> _GroupBlock:
    """The members' group blocks of one batch, cuts ``lo`` to ``hi``, as one
    block of their stacked hosts: member ``m``'s host ``h`` is ``h`` plus
    the hosts of the members before it, and each cut's groups are every
    member's groups of the cut, member after member — still ordered by
    (cut, stacked host, key)."""
    cuts = hi - lo
    members = len(blocks)
    shift = np.cumsum([0] + [block.hosts for block in blocks])
    rows = [slice(block.offsets[lo], block.offsets[hi]) for block in blocks]
    order = np.argsort(
        np.concatenate([
            np.repeat(np.arange(cuts) * members + member, np.diff(block.offsets[lo : hi + 1]))
            for member, block in enumerate(blocks)
        ]),
        kind="stable",
    )

    def stacked(name: str) -> np.ndarray:
        return np.concatenate(
            [getattr(block, name)[mine] for block, mine in zip(blocks, rows)]
        )[order]

    counts = np.hstack([np.diff(block.bounds[lo:hi], axis=1) for block in blocks])
    bounds = np.zeros((cuts, counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=bounds[:, 1:])
    return _GroupBlock(
        stacked("keys"), stacked("first"), stacked("count"), blocks[0].stride,
        stacked("write_lo"), stacked("write_hi"),
        np.concatenate(
            [block.host[mine] + base for block, mine, base in zip(blocks, rows, shift)]
        )[order],
        int(shift[-1]),
        [0, *np.cumsum(bounds[:, -1]).tolist()],
        bounds,
        np.hstack([block.writes[lo:hi] for block in blocks]),
    )


class _PreludeBlock:
    """The policy-independent half of :func:`_kernel_reactive_window` for
    every cut of a :class:`_GroupBlock`: what its groups are under *any*
    write-reactive policy, bound and cache state, as flat columns computed
    once for the whole block; :meth:`cuts` takes a window of cuts out, as
    views.  Built once per batch and fleet shape — memoised in the span
    table and shared by every replay, read, never written — or once per
    stretch of a batch's cuts for a lockstep unit's stacked hosts.

    Attributes:
        block: The hosts' :class:`_GroupBlock`.
        rows: Each group's row of :class:`_HostColumns` (``key * hosts +
            host``).
        versions: Each group's key's writes up to its cut's end.
        num_writes: Span writes per group.
        reading / first_read / last_read: The groups with span reads
            (ascending group indices), the position of each one's first
            span read and the time of its last.
        host_reads / host_writes: Per cut, per host, its span reads and its
            span writes (``cuts x hosts`` integer matrices).
        write_runs: ``(before_first, before_last, runs_closed)``:
            :func:`_write_runs` of every group that reads and writes, zero
            elsewhere.  A miss fetches the version as of its position, and
            the estimator folds runs.
        first_seen: Each group's first observation: its first read or write,
            whichever comes first in the stream — where the scalar engine
            creates the host's counter row for the key.
        reading_at: Per cut, where its groups start in ``reading``, and the
            total (ints).
    """

    __slots__ = (
        "block", "rows", "versions", "num_writes", "reading", "first_read", "last_read",
        "host_reads", "host_writes", "write_runs", "first_seen", "reading_at",
    )

    def __init__(self, trace: CompiledTrace, index: TraceIndex, block: _GroupBlock) -> None:
        keys, first, count, stride, write_lo, write_hi, host, hosts, offsets, _, _ = block
        self.block = block
        self.rows = keys * hosts + host
        self.versions = write_hi - index.write_offsets[keys]
        self.num_writes = num_writes = write_hi - write_lo
        self.reading = reading = count.nonzero()[0]
        read_first, read_count = first[reading], count[reading]
        self.first_read = first_read = index.read_pos[read_first].astype(np.int64)
        self.last_read = trace.times[index.read_pos[read_first + (read_count - 1) * stride]]
        self.reading_at = np.searchsorted(reading, offsets).tolist()
        cuts = len(offsets) - 1
        cell = np.repeat(np.arange(cuts) * hosts, np.diff(offsets)) + host
        self.host_reads, self.host_writes = (
            np.bincount(cell, weights=column, minlength=cuts * hosts)
            .astype(np.int64).reshape(cuts, hosts)
            for column in (count, num_writes)
        )
        runs = np.zeros((3, keys.size), dtype=np.int64)
        mixed = (count * num_writes).nonzero()[0]
        if mixed.size:
            runs[:, mixed] = _write_runs(
                index, first[mixed], count[mixed], stride, write_lo[mixed], num_writes[mixed]
            )
        self.write_runs = runs
        # The position columns may be unsigned: the "no read" sentinel goes
        # into a signed array they are then copied into.
        seen = np.full(keys.size, _UNSEEN, dtype=np.int64)
        seen[reading] = first_read
        writing = num_writes.nonzero()[0]
        seen[writing] = np.minimum(seen[writing], index.write_pos[write_lo[writing]])
        self.first_seen = seen

    def cuts(self, lo: int, hi: int) -> "_PreludeBlock":
        """Cuts ``lo`` to ``hi``: a block of views of this one's columns."""
        group = slice(self.block.offsets[lo], self.block.offsets[hi])
        read = slice(self.reading_at[lo], self.reading_at[hi])
        prelude = _PreludeBlock.__new__(_PreludeBlock)
        prelude.block = self.block.cuts(lo, hi)
        prelude.rows = self.rows[group]
        prelude.versions = self.versions[group]
        prelude.num_writes = self.num_writes[group]
        prelude.reading = self.reading[read] - group.start
        prelude.first_read = self.first_read[read]
        prelude.last_read = self.last_read[read]
        prelude.host_reads = self.host_reads[lo:hi]
        prelude.host_writes = self.host_writes[lo:hi]
        prelude.write_runs = self.write_runs[:, group]
        prelude.first_seen = self.first_seen[group]
        prelude.reading_at = [at - read.start for at in self.reading_at[lo : hi + 1]]
        return prelude


#: Fewest additions :func:`_fold_constant` takes in closed form.  Measured on
#: a 2-vCPU x86 container under CPython 3.11: the plain ``sum`` costs 0.2 µs
#: plus 3.6 ns an addend (3.7 µs for 1 000), the closed form 1.1 µs inside
#: one binade plus about 1.3 µs for each binade the sum climbs (7 µs for
#: 1 000 addends from 0, 16 µs for 3 000).  They break even near 300 addends
#: on a grown sum and near 5 000 on a sum that starts at 0; at 1 000 either
#: costs a few µs, and the short spans of a tight bound stay on the loop.
_FOLD_CLOSED_FORM_FROM = 1000

#: ``sum`` of floats is a plain left fold up to Python 3.11; from 3.12 on it
#: compensates (Neumaier), which the scalar engine's ``+=`` never does.
_SUM_IS_PLAIN = sys.version_info < (3, 12)


def _left_fold(acc: float, values: Iterable[float]) -> float:
    """``acc += value`` for each of ``values``, one addition at a time."""
    if _SUM_IS_PLAIN:
        return sum(values, acc)
    return reduce(add, values, acc)


def _plain_fold(acc: float, c: float, n: int) -> float:
    """``acc += c``, ``n`` times, one addition at a time."""
    return _left_fold(acc, repeat(c, n))


def _fold_constant(acc: float, c: float, n: int) -> float:
    """``acc`` after ``n`` in-order additions of ``c``, bit for bit.

    While the running sum stays below the next power of two its ulp ``u``
    is fixed, so every addition rounds by the same step: ``c / u = q + f``
    ulps rounds to ``q`` ulps, or ``q + 1`` when ``f > 1/2`` — exact integer
    arithmetic on the sum's mantissa advances a whole binade at once, and
    the addition that crosses into the next binade is a float addition.
    A tie (``f == 1/2``) rounds to even, which is no constant step: it takes
    the plain loop, like a short fold, a negative sum, an addend that is not
    positive and anything not finite.
    """
    if n < _FOLD_CLOSED_FORM_FROM or not (0.0 <= acc < math.inf and 0.0 < c < math.inf):
        return _plain_fold(acc, c, n)
    while n and acc < math.inf:
        ulp = math.ulp(acc)
        mantissa = int(acc / ulp)
        # Ulps from the sum to the top of its binade; a subnormal sum's grid
        # runs on past that top (and 0's top is its own ulp), so it is only
        # a safe place to stop.
        room = (1 << mantissa.bit_length()) - mantissa
        ulps = c / ulp  # exact: ``ulp`` is a power of two
        if ulps >= room:
            acc += c
            n -= 1
            continue
        whole = int(ulps)
        fraction = ulps - whole
        if fraction == 0.5:
            return _plain_fold(acc, c, n)
        step = whole + (fraction > 0.5)
        if not step:
            return acc
        # The additions whose exact sum stays below the top: ``k * step <
        # room - whole``.
        taken = min(n, -(-(room - whole) // step))
        acc = (mantissa + taken * step) * ulp
        n -= taken
    return acc


def _flush_tally(ctx: _ReplayContext, node: CacheNode, tally: _SpanTally) -> None:
    """Fold one kernel call's counter deltas, charges and flush counts into
    the node's result, cache stats and channel, in scalar-identical float
    order.  Every cold miss is one insertion: the envelope's caches never
    evict."""
    result = node.result
    stats = node.cache.stats
    result.reads += tally.reads
    result.writes += tally.writes
    result.hits += tally.hits
    result.stale_misses += tally.stale_misses
    result.stale_refetches += tally.stale_misses
    result.cold_misses += tally.cold_misses
    result.staleness_violations += tally.violations
    result.polls += tally.polls
    stats.lookups += tally.reads
    stats.hits += tally.hits
    stats.stale_misses += tally.stale_misses
    stats.cold_misses += tally.cold_misses
    stats.expirations += tally.expirations
    misses = tally.stale_misses + tally.cold_misses
    ctx.datastore.total_reads += misses
    # Constant-cost accumulations: the scalar engine's n in-order additions.
    if tally.reads:
        result.useful_work = _fold_constant(result.useful_work, ctx.serve_const, tally.reads)
    streamed = tally.charge_counts.size
    if tally.stale_misses and not streamed and tally.charges is None:
        result.freshness_cost = _fold_constant(
            result.freshness_cost, ctx.miss_const, tally.stale_misses
        )
    if tally.cold_misses:
        result.cold_miss_cost = _fold_constant(
            result.cold_miss_cost, ctx.miss_const, tally.cold_misses
        )
    stats.insertions += tally.cold_misses
    if tally.buffered_writes:
        node.buffer.total_buffered += tally.buffered_writes
    if streamed:
        # Poll charges are the one varying-order float sum: fold every
        # charge in global stream order onto the running accumulator (the
        # per-entry state those charges refresh was already settled by the
        # kernel).
        result.freshness_cost = _fold_charges(
            result.freshness_cost, tally.charge_positions, tally.charge_counts, ctx.miss_const
        )
    elif tally.charges is not None:
        result.freshness_cost = _seeded_sum(result.freshness_cost, tally.charges)
    if tally.messages is not None:
        # A reactive window's flushes: the messages sent (each delivered),
        # suppressed and wasted, the entries they refreshed or dropped, and
        # the policy's decisions.
        updates, invalidates, suppressions, ignored, dropped, nothing, choices, chose_update = (
            tally.messages
        )
        result.updates_sent += updates
        result.invalidates_sent += invalidates
        result.suppressed_invalidates += suppressions
        result.updates_wasted += ignored
        if nothing:
            result.decisions_nothing += nothing
        if choices:
            node.policy.decisions_update += chose_update
            node.policy.decisions_invalidate += choices - chose_update
        stats.updates_applied += updates - ignored
        stats.updates_ignored += ignored
        stats.invalidations += dropped
        node.channel.sent += updates + invalidates
        node.channel.delivered += updates + invalidates


def _fold_charges(acc: float, positions: np.ndarray, counts: np.ndarray, miss: float) -> float:
    """``acc`` after ``acc += count * miss`` for each charge, in ascending
    ``positions`` (ties in their given order)."""
    order = np.argsort(positions, kind="stable")
    return _seeded_sum(acc, counts[order] * miss)


def _seeded_sum(acc: float, addends: np.ndarray) -> float:
    """``acc`` after ``acc += addend`` for each of ``addends`` in order.
    ``cumsum`` adds strictly left to right, so seeding its first addend
    gives the float the scalar engine's one-by-one ``+=`` does.  Takes
    ``addends`` over."""
    addends[0] += acc
    return float(np.cumsum(addends, out=addends)[-1])
