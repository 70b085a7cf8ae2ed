"""Columnar trace compilation: request streams as parallel numpy arrays.

A :class:`CompiledTrace` is a whole stream laid out as parallel arrays
(timestamps, key ids, op flags, sizes) plus a key-id -> key-name table.  The
vectorized engine (``repro.sim.vector``) replays it in spans, and what a span
is — its per-key slices, its write batch, each host's share — is a fact of
the trace: the :class:`TraceIndex` keeps a bounded table of cut batches
(:class:`CutBatch`), shared by every replay.  A replay's flush schedule cuts
the trace at ends the index works out once per bound (:meth:`TraceIndex.cut_ends`),
and the table's one builder (:meth:`TraceIndex.cuts`) makes a whole run of
those cuts — a batch — with a fixed number of segmented searches over keys
x cuts, whatever the cuts hold; a cut is its batch and its place in it.  The
scalar drivers take the trace :data:`~repro.workload.base.STREAM_CHUNK_SIZE`
rows at a time through :meth:`CompiledTrace.chunks`, without building a
request object.

A native generator has one draw loop, which writes each chunk into views
its caller hands it: its chunk generator (``iter_columns``) hands fresh
chunk arrays, and a compiled Poisson or Twitter trace is the same loop
drawing into slices of whole-trace columns — the draw loop is not repeated
here — so ``compile_workload(w, d).iter_requests()`` yields a stream
byte-identical to ``w.iter_requests(d)`` by construction.  Workloads
without a draw loop fall back to batching their object stream, which is
slower to compile but just as identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.base import (
    STREAM_CHUNK_SIZE,
    Chunk,
    ChunkStream,
    Columns,
    OpType,
    Request,
    Workload,
    in_order,
    validate_duration,
)
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload


def _check_key_ids(key_ids: np.ndarray, num_keys: int) -> None:
    """Refuse key ids outside ``[0, num_keys)``: one pass over the column.

    Raises:
        WorkloadError: If any id is negative or not below ``num_keys``.
    """
    if key_ids.size and not 0 <= int(key_ids.min()) <= int(key_ids.max()) < num_keys:
        raise WorkloadError(
            f"compiled trace has key ids outside its {num_keys}-name key table"
        )


class TraceIndex:
    """Per-key layout of one compiled trace: built once, replayed many times.

    Everything here is a pure function of the trace columns — no policy, no
    staleness bound, no cache state — so every replay of the same trace
    (each policy of a comparison, each cell of a sweep) shares one index
    instead of re-sorting its spans.

    One sort of a composite key per request (write flag, key id, stream
    position) lays the reads out key-major, then the writes; within a key
    the positions ascend.  A key's reads (or writes) restricted to any
    position range ``[start, end)`` are therefore a contiguous *slice* of
    its run, which is what :meth:`span` hands the span kernels: bounds into
    the columns, never sorted copies.

    The index holds arrays only — never the trace — so it cannot keep its
    owner alive, and it lives exactly as long as the trace object does.

    Attributes:
        time_ordered: Whether the arrival times are ascending (the engines'
            ordering check, computed once).
        read_pos: Stream positions of the reads, key-major.
        read_offsets: ``read_pos[read_offsets[k]:read_offsets[k + 1]]`` are
            key ``k``'s reads (``int64``, length ``num_keys + 1``).
        write_pos: Stream positions of the writes, key-major.
        write_offsets: Per-key bounds into the three write columns.
        write_times: Commit time of each write, aligned with ``write_pos``.
        write_value_sizes: Value size of each write, aligned with
            ``write_pos``.
        write_read_rank: For each write, aligned with ``write_pos``, the
            index into ``read_pos`` of the same key's first later read (the
            key's read bound when none follows): ``read_pos[i]`` precedes
            the write in the stream exactly when ``i`` is below it, so a
            write's rank among any run of the key's reads is arithmetic.
        occurring: The ids of the keys with at least one request, ascending.
        plans: Memo for trace-wide artefacts that depend on configuration
            but not on replay state (the fleet routing plan), keyed by that
            configuration: one entry per fleet shape.
        schedules: :meth:`cut_ends`'s memo, by staleness bound.
        write_time_list: ``write_times`` as Python floats, made by the
            first deferred history build that runs — when a caller first
            reads a columnar replay's datastore histories
            (:meth:`listed_write_times`) — and charged to the table from
            then on: every such build copies slices of this one list instead
            of boxing the floats anew.  ``None`` while no build has run.
        table: The span table — :meth:`span`'s memo: each cut ``(start,
            end)`` the table holds, mapped to ``(batch, position)``, its
            :class:`CutBatch` and its place in it.  The table holds whole
            batches, oldest first: a batch's cuts enter together
            (:meth:`cuts`) and leave together (:meth:`_drop`).
        table_bytes: Bytes the table holds — each held batch's
            :attr:`CutBatch.nbytes` (its columns and its ``routed`` memo),
            and the write list once made; never above ``table_cap``, the
            bytes of the four trace columns the index is derived from.
    """

    __slots__ = (
        "key_ids",
        "is_read",
        "time_ordered",
        "read_pos",
        "read_offsets",
        "write_pos",
        "write_offsets",
        "write_times",
        "write_value_sizes",
        "write_read_rank",
        "occurring",
        "plans",
        "schedules",
        "write_time_list",
        "table",
        "table_bytes",
        "table_cap",
        "__weakref__",
    )

    def __init__(
        self,
        times: np.ndarray,
        key_ids: np.ndarray,
        is_read: np.ndarray,
        value_sizes: np.ndarray,
        num_keys: int,
    ) -> None:
        _check_key_ids(key_ids, num_keys)
        self.key_ids = key_ids
        self.is_read = is_read
        # ``>=`` so that a NaN time, which compares false, counts as disorder.
        self.time_ordered = in_order(times) if times.size else True
        # One composite key a request — the write flag, the key id and the
        # stream position, from the high bit down — built in place and
        # sorted: all reads key-major, then all writes key-major, positions
        # ascending within a key.
        total, reads = key_ids.size, int(np.count_nonzero(is_read))
        position_bits = max(total - 1, 0).bit_length()
        write_shift = max(num_keys - 1, 0).bit_length() + position_bits
        width = np.uint32 if write_shift < 32 else np.uint64
        composite = key_ids.astype(width)
        composite <<= width(position_bits)
        composite |= np.arange(total, dtype=width)
        writes = np.logical_not(is_read).astype(width)
        writes <<= width(write_shift)
        composite |= writes
        del writes
        composite.sort()
        # Without the flag both halves are ``key << position_bits | position``:
        # key ``k``'s run starts at ``k << position_bits`` in either, and a
        # write's rank among the reads counts the reads below it.
        composite[reads:] ^= width(1 << write_shift)
        starts = np.arange(num_keys + 1, dtype=width) << width(position_bits)
        self.read_offsets = np.searchsorted(composite[:reads], starts)
        self.write_offsets = np.searchsorted(composite[reads:], starts)
        self.occurring = np.flatnonzero(np.diff(self.read_offsets + self.write_offsets))
        positions = np.uint32 if total <= np.iinfo(np.uint32).max else np.int64
        self.write_read_rank = np.searchsorted(composite[:reads], composite[reads:]).astype(
            positions
        )
        composite &= width((1 << position_bits) - 1)
        self.read_pos = composite[:reads].astype(positions, copy=False)
        self.write_pos = composite[reads:].astype(positions, copy=False)
        self.write_times = times[self.write_pos]
        self.write_value_sizes = value_sizes[self.write_pos]
        self.plans: Dict[Hashable, Any] = {}
        self.schedules: Dict[float, np.ndarray] = {}
        self.write_time_list: Optional[List[float]] = None
        self.table: Dict[Tuple[int, int], Tuple[CutBatch, int]] = {}
        self.table_bytes = 0
        self.table_cap = sum(c.nbytes for c in (times, key_ids, is_read, value_sizes))

    @property
    def nbytes(self) -> int:
        """Bytes the index adds on top of the trace columns, span table included."""
        return self.table_bytes + sum(
            column.nbytes
            for column in (
                self.read_pos,
                self.read_offsets,
                self.write_pos,
                self.write_offsets,
                self.write_times,
                self.write_value_sizes,
                self.write_read_rank,
                self.occurring,
            )
        )

    def writes_of(self, key_id: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(times, positions, value_sizes)`` of the key's writes.

        In stream order.  Every positional/temporal version query the span
        kernels make (miss versions, staleness windows, poll refreshes) is a
        ``searchsorted`` against these slices.
        """
        start, end = self.write_offsets[key_id], self.write_offsets[key_id + 1]
        return (
            self.write_times[start:end],
            self.write_pos[start:end],
            self.write_value_sizes[start:end],
        )

    def cut_ends(self, times: np.ndarray, bound: float) -> np.ndarray:
        """Where a replay flushing every ``bound`` cuts the trace: the ends of
        its cuts, ascending, the last one the trace's length.

        ``ReplayDriver._advance`` flushes at ``bound`` and then ``+=
        bound``; each cut ends at the first request at or past a flush, and
        flushes that pass between two requests end the same cut.  Worked out
        once per bound (the float sums are an exact ``cumsum``, a block of
        flushes at a time) and memoised on the index.
        """
        ends = self.schedules.get(bound)
        if ends is None:
            ends = self.schedules[bound] = _flush_cut_ends(times, bound)
        return ends

    def span(
        self, start: int, end: int, schedule: Optional[np.ndarray] = None
    ) -> Tuple["CutBatch", int]:
        """The cut ``[start, end)`` as ``(batch, position)``, from the table.

        A cut that is not in the table is built by :meth:`cuts` — with the
        cuts of ``schedule`` (:meth:`cut_ends`) that follow it, as many as
        the table holds, when the caller walks one.  The key is the cut
        itself, so whichever cuts a replay asks for — a wrong guess of
        another replay's boundaries, an evicted batch — it gets that cut:
        the table saves time and never changes a row.
        """
        cut = self.table.get((start, end))
        if cut is None:
            cut = self.cuts(start, self._batch_ends(start, end, schedule)), 0
        return cut

    def _batch_ends(
        self, start: int, end: int, schedule: Optional[np.ndarray]
    ) -> List[int]:
        """``end`` and the ends of ``schedule`` after it that one batch may
        search: no more than :data:`_CUT_GRID` cells of keys x cut edges,
        no more cuts than the table has room for, and none past the first
        cut the table holds.  A batch of small cuts, whose inner edges
        :func:`_search_runs` counts request by request, also holds no more
        than :data:`_CUT_GRID` requests; a batch whose first cut alone holds
        more (a big cut) has its inner edges bisected, and its cells bound
        it alone.  The room (:meth:`_batch_keys`) is asked of each cut's
        most keys — its requests, or the trace's keys if fewer — so the
        builder keeps every cut it is offered."""
        if schedule is None:
            return [end]
        later = schedule[np.searchsorted(schedule, end, side="right") :]
        keys = self.occurring.size
        taken = max(0, _CUT_GRID // max(keys, 1) - 2)
        if end - start <= _CUT_GRID:
            taken = min(taken, int(np.searchsorted(later, start + _CUT_GRID, side="right")))
        most = np.minimum(np.diff(later[:taken], prepend=end), keys)
        room = self._batch_keys() - min(end - start, keys)
        taken = min(taken, int(np.searchsorted(np.cumsum(most), room, side="right")))
        ends = [end]
        for later_end in later[:taken].tolist():
            if (ends[-1], later_end) in self.table:
                break
            ends.append(later_end)
        return ends

    def _batch_keys(self) -> int:
        """Most keys the cuts of one batch hold together: the table's room —
        the cap, short of the write list once one is made — at
        :data:`_CUT_KEY_BYTES` a key."""
        listed = 0 if self.write_time_list is None else _WRITE_BYTES * self.write_times.size
        return (self.table_cap - listed) // _CUT_KEY_BYTES

    def cuts(self, start: int, ends: List[int]) -> "CutBatch":
        """The one builder of cuts: the batch of ``[start, ends[0])``,
        ``[ends[0], ends[1])`` ..., built in one pass and put in the table
        (:meth:`span` offers as many as the table has room for, at
        :data:`_CUT_KEY_BYTES` a key).

        For every key that occurs in the trace and every cut edge, where the
        key's reads and writes stand at the edge is a segmented search
        (:func:`_search_runs`) on the key-major columns, so the build is a
        fixed number of numpy calls over keys x cuts, and its temporaries
        hold keys x cuts cells and, for a batch of small cuts, the batch's
        requests — never one per request of the trace.  A key's span
        requests are the slice between two edges; the keys with any are the
        cut's, ascending.  A held batch that shares a cut with the new one
        leaves the table first, so a cut is in one batch only.
        """
        edges = np.array([start, *ends], dtype=np.int64)
        keys = self.occurring
        total = self.key_ids.size
        read_at = _search_runs(self.read_pos, self.read_offsets, keys, edges, total)
        write_at = _search_runs(self.write_pos, self.write_offsets, keys, edges, total)
        read_lo, read_hi = read_at[:, :-1].T, read_at[:, 1:].T
        write_lo, write_hi = write_at[:, :-1].T, write_at[:, 1:].T
        # Cut-major, keys ascending within a cut.
        active = (read_hi > read_lo) | (write_hi > write_lo)
        _, key_of = active.nonzero()
        batch = CutBatch(
            list(zip(edges[:-1].tolist(), edges[1:].tolist())),
            (keys[key_of], read_lo[active], read_hi[active], write_lo[active], write_hi[active]),
            [0, *np.cumsum(active.sum(axis=1)).tolist()],
            (write_hi - write_lo).sum(axis=1).tolist(),
        )
        for position, cut in enumerate(batch.cuts):
            held = self.table.get(cut)
            if held is not None:
                self._drop(held[0])
            self.table[cut] = batch, position
        self._charge(batch.nbytes)
        return batch

    def listed_write_times(self) -> List[float]:
        """:attr:`write_time_list`, made on first use and charged to the table.

        Its one user is the deferred build of a replay's datastore histories
        (``repro.sim.vector.columns._build_histories``), which runs on the first
        read of them: a sweep or a benchmark that reads none never makes the
        list, and its table keeps the room."""
        if self.write_time_list is None:
            self.write_time_list = self.write_times.tolist()
            self.table_bytes += _WRITE_BYTES * self.write_times.size
        return self.write_time_list

    def routed(
        self, batch: "CutBatch", key: Hashable, build: Callable[["CutBatch"], Tuple[Any, int]]
    ):
        """``batch.routed[key]``, built on first use by ``build(batch) ->
        (value, nbytes)`` for every cut of the batch at once: what the cuts
        are under one configuration (a fleet shape's groups, their kernel
        prelude) but still under no policy, bound or cache state.  The
        batch's charge grows by ``nbytes`` while the table holds it; a
        batch already evicted keeps its memo for the walk that holds it."""
        value = batch.routed.get(key)
        if value is None:
            value, nbytes = build(batch)
            batch.routed[key] = value
            if self.table.get(batch.cuts[0]) == (batch, 0):
                batch.nbytes += nbytes
                self._charge(nbytes)
        return value

    def _charge(self, nbytes: int) -> None:
        """Account ``nbytes`` more in the table; the oldest batches make room."""
        self.table_bytes += nbytes
        while self.table_bytes > self.table_cap and self.table:
            self._drop(self.table[next(iter(self.table))][0])

    def _drop(self, batch: "CutBatch") -> None:
        """Take ``batch`` — every cut of it — out of the table."""
        for cut in batch.cuts:
            del self.table[cut]
        self.table_bytes -= batch.nbytes


#: Flushes :func:`_flush_cut_ends` sums at a time.
_FLUSH_BLOCK = 1 << 16


def _flush_cut_ends(times: np.ndarray, bound: float) -> np.ndarray:
    """:meth:`TraceIndex.cut_ends` of ``times``, worked out.

    ``cumsum`` adds strictly left to right, so seeding the first addend of a
    block with the last flush of the one before gives ``ReplayDriver``'s
    floats.
    Each block keeps only the ends it adds, so the memory is the cuts'.
    """
    if times.size == 0:
        return np.empty(0, dtype=np.int64)
    last, flush, end = float(times[-1]), 0.0, 0
    parts = []
    while flush <= last:
        steps = np.full(int(min((last - flush) / bound, _FLUSH_BLOCK)) + 2, bound)
        steps[0] += flush
        flushes = np.cumsum(steps)
        found = np.searchsorted(times, flushes, side="left")
        # Ascending: the first of each run of equal ends, past the last kept.
        parts.append(found[found > np.concatenate(([end], found[:-1]))])
        end = int(found[-1])
        if flushes[-1] <= flush:
            # A bound below the clock's resolution: the flush never moves.
            break
        flush = float(flushes[-1])
    if end < times.size:
        # The flush past the last request ends the last cut at the trace's end.
        parts.append(np.array([times.size]))
    return np.concatenate(parts)


def _search_runs(
    values: np.ndarray, offsets: np.ndarray, keys: np.ndarray, edges: np.ndarray, total: int
) -> np.ndarray:
    """A ``keys x edges`` grid of segmented ``searchsorted`` calls: for key
    ``k`` (its ascending run ``values[offsets[k]:offsets[k + 1]]`` of stream
    positions below ``total``) and each edge, the index of the run's first
    value at or past the edge — the run's end when there is none.

    The outer edges are bisected in every key's run; between them, each
    key's run is a slice.  When the first cut is big (more than
    :data:`_CUT_GRID` requests), the inner edges are one more bisection
    over the keys x inner edges grid, each cell within its key's slice;
    otherwise a key's rank at an inner edge counts the slice's values below
    it: one ``searchsorted`` of the slices' values into the inner edges and
    one ``bincount``.  So the temporaries hold keys x edges cells and, for
    a batch of small cuts, the requests between the outer edges (at most
    :data:`_CUT_GRID`, :meth:`TraceIndex._batch_ends`), never one per
    request of the trace.
    """
    lo, hi = offsets[keys], offsets[keys + 1]

    def bisect(start: np.ndarray, edge: int) -> np.ndarray:
        return bisect_groups(lambda _, rank: values[rank], start, hi, np.full(keys.size, edge))

    first = lo if edges[0] <= 0 else bisect(lo, edges[0])
    last = hi if edges[-1] >= total else bisect(first, edges[-1])
    grid = np.repeat(first, edges.size).reshape(keys.size, edges.size)
    grid[:, -1] = last
    if edges.size > 2 and edges[1] - edges[0] > _CUT_GRID:
        inner = edges.size - 2
        grid[:, 1:-1] = bisect_groups(
            lambda _, rank: values[rank],
            np.repeat(first, inner),
            np.repeat(last, inner),
            np.tile(edges[1:-1], keys.size),
        ).reshape(keys.size, inner)
    elif edges.size > 2:
        cuts = edges.size - 1
        live = (last > first).nonzero()[0]
        lengths = (last - first)[live]
        slot = np.repeat(np.arange(live.size) * cuts, lengths)
        at = np.arange(slot.size) + np.repeat(first[live] - (np.cumsum(lengths) - lengths), lengths)
        slot += np.searchsorted(edges[1:-1], values[at], side="right")
        counts = np.bincount(slot, minlength=live.size * cuts).reshape(live.size, cuts)
        grid[live, 1:] = first[live, None] + np.cumsum(counts, axis=1)
    return grid


def bisect_groups(value_at, lo, hi, needle, right: bool = False) -> np.ndarray:
    """Segmented bisection: one binary search per group, all groups at once.

    Group ``g`` owns an ascending run of values; ``value_at(groups, ranks)``
    gathers element ``ranks[i]`` of group ``groups[i]``.  Returns, per group,
    the first rank in ``[lo[g], hi[g])`` whose value is at or above
    ``needle[g]`` (above it when ``right``), or ``hi[g]`` when there is none:
    ``searchsorted`` for every group in ``O(log(longest run))`` numpy steps.
    """
    lo, hi = lo.copy(), hi.copy()
    pending = np.flatnonzero(lo < hi)
    while pending.size:
        low, high = lo[pending], hi[pending]
        middle = (low + high) >> 1
        value = value_at(pending, middle)
        below = value <= needle[pending] if right else value < needle[pending]
        low = np.where(below, middle + 1, low)
        high = np.where(below, high, middle)
        lo[pending], hi[pending] = low, high
        pending = pending[low < high]
    return lo


#: Table bytes a batch is sized for, per key of each of its cuts: the cut's
#: five 8-byte fact columns and the groups of the single cache and of a
#: fleet shape (40 + 16 + 48, what a sweep's lockstep units build).  An
#: estimate for :meth:`TraceIndex._batch_ends`, never charged: the table
#: charges what a batch holds.  A replay that also memoises its kernel
#: prelude (up to 112 more) may outgrow the estimate, and the table then
#: evicts its oldest batches; a walk rebuilds what it asks for again,
#: unchanged.
_CUT_KEY_BYTES = 128

#: Most cells of keys x cut edges one batch searches, and most requests a
#: batch of small cuts holds (a cut of more is big: a batch it starts
#: bisects its inner edges instead of counting them); also the most writes
#: a kernel prelude's write-run pass takes at a time.  With the passes'
#: handful of 8-byte temporaries a cell, request or write, a few MiB at
#: most, whatever the trace.
_CUT_GRID = 1 << 15


#: One span of a trace: ``(keys, read_lo, read_hi, write_lo, write_hi)`` —
#: the ids of the keys that occur in the span, ascending, and for each the
#: bounds of its span reads in ``read_pos`` and of its span writes in the
#: write columns.
Span = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


#: Table bytes charged per write of the trace: a float and its slot in
#: ``write_time_list``.
_WRITE_BYTES = 32


class CutBatch:
    """Consecutive cuts built in one pass by :meth:`TraceIndex.cuts`.

    What the cuts are, whoever replays them: a pure function of the trace
    and the cut positions, so every policy and sweep cell that replays a
    cut shares its batch — read-only.  Holds no reference to the trace.
    A cut is ``(batch, position)``, its place in :attr:`cuts`.

    Attributes:
        cuts: The cuts ``(start, end)``, in stream order.
        columns: Their :data:`Span` columns, flat: cut ``j``'s rows are
            ``[offsets[j], offsets[j + 1])``, keys ascending.  Read-only.
        offsets: Per cut, where its rows start, and the total (ints).
        writes: Per cut, its number of writes (ints).
        routed: Memo filled through :meth:`TraceIndex.routed`.
        nbytes: Table bytes charged for the batch: its columns, and the
            memo values built while the table held it.
    """

    __slots__ = ("cuts", "columns", "offsets", "writes", "routed", "nbytes")

    def __init__(
        self, cuts: List[Tuple[int, int]], columns: Span, offsets: List[int], writes: List[int]
    ) -> None:
        for column in columns:
            column.flags.writeable = False
        self.cuts = cuts
        self.columns = columns
        self.offsets = offsets
        self.writes = writes
        self.routed: Dict[Hashable, Any] = {}
        self.nbytes = sum(column.nbytes for column in columns)


#: What each column of a :class:`CompiledTrace` holds: ``(field, numpy kind,
#: wording)``, in the order they are checked.
_COLUMN_KINDS = (
    ("times", np.floating, "float"),
    ("key_ids", np.integer, "integer"),
    ("is_read", np.bool_, "bool"),
    ("key_sizes", np.integer, "integer"),
    ("value_sizes", np.integer, "integer"),
)


@dataclass(slots=True)
class CompiledTrace:
    """A request stream as parallel columnar arrays.

    Compile once and reuse the object when comparing policies: the first
    vectorized replay builds the trace's :class:`TraceIndex` (see
    :meth:`index`) and every later replay of the same object shares it, the
    span cuts it made included.

    Attributes:
        times: Arrival times, ascending (``float64``).
        key_ids: Per-request index into :attr:`key_names` (``int64``).
        is_read: ``True`` where the request is a read (``bool``).
        key_sizes: Per-request key size in bytes (``int64``).
        value_sizes: Per-request value size in bytes (``int64``).
        key_names: Key-id -> key-name table.  Ids are dense but the table may
            contain names that never occur in the trace (e.g. cold ranks of a
            Zipf population).
    """

    times: np.ndarray
    key_ids: np.ndarray
    is_read: np.ndarray
    key_sizes: np.ndarray
    value_sizes: np.ndarray
    key_names: List[str]
    _index: Optional[TraceIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Check the five columns' shapes and dtypes (O(1): no pass over the
        rows, so a :func:`~repro.workload.base.constant_column` view passes).

        Raises:
            WorkloadError: Naming the first column that is not a 1-D array of
                its kind, or whose length differs from ``times``.
        """
        rows = None
        for name, kind, wording in _COLUMN_KINDS:
            column = getattr(self, name)
            if not (
                isinstance(column, np.ndarray)
                and column.ndim == 1
                and np.issubdtype(column.dtype, kind)
            ):
                got = (
                    f"{column.dtype} of shape {column.shape}"
                    if isinstance(column, np.ndarray)
                    else type(column).__name__
                )
                raise WorkloadError(
                    f"compiled trace column {name} must be a 1-D {wording} array, got {got}"
                )
            if rows is None:
                rows = column.size
            elif column.size != rows:
                raise WorkloadError(
                    f"compiled trace column {name} has {column.size} rows, times has {rows}"
                )

    def __len__(self) -> int:
        return int(self.times.size)

    def __reduce__(self):
        # The memoised index is derived state: never pickled or copied.
        return (
            CompiledTrace,
            (
                self.times,
                self.key_ids,
                self.is_read,
                self.key_sizes,
                self.value_sizes,
                self.key_names,
            ),
        )

    def index(self) -> TraceIndex:
        """The trace's :class:`TraceIndex`, built on first use and memoised.

        Building it freezes the five columns (``writeable=False``): the
        index is derived from them, so a later in-place edit would leave it
        stale.  Scalar replays (including the vector engines' scalar
        fallback) never call this.

        Raises:
            WorkloadError: If a key id falls outside :attr:`key_names`.
        """
        if self._index is None:
            self._index = TraceIndex(
                self.times, self.key_ids, self.is_read, self.value_sizes, len(self.key_names)
            )
            for column in (
                self.times, self.key_ids, self.is_read, self.key_sizes, self.value_sizes
            ):
                column.flags.writeable = False
        return self._index

    def _slices(self) -> Iterator[Columns]:
        columns = (self.times, self.key_ids, self.is_read, self.key_sizes, self.value_sizes)
        for start in range(0, len(self), STREAM_CHUNK_SIZE):
            yield tuple(column[start : start + STREAM_CHUNK_SIZE] for column in columns)

    def iter_requests(self) -> ChunkStream:
        """Decompile back into the scalar :class:`Request` stream.

        The yielded stream is byte-identical to the generator stream the
        trace was compiled from: same floats, same interned key strings,
        same op objects.

        Raises:
            WorkloadError: If a key id falls outside :attr:`key_names` (the
                check :meth:`index` makes, so both engines refuse alike).
        """
        _check_key_ids(self.key_ids, len(self.key_names))
        return ChunkStream(self._slices(), self.key_names)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.iter_requests())

    def chunks(self) -> Iterator[Chunk]:
        """The trace as :data:`~repro.workload.base.Chunk` lists, column
        slices converted once per chunk (what the scalar drivers replay)."""
        return self.iter_requests().chunks()


def _capacity(workload: PoissonZipfWorkload | TwitterWorkload, duration: float) -> int:
    """Rows to lay out for a native compile: the arrivals expected over
    ``duration`` and four standard deviations more.  Twitter's loop writes
    its accepted arrivals only, whose rate integrates the diurnal envelope;
    Poisson's draws each chunk whole before it drops the tail past the
    horizon, so its rows round up to whole chunks.  :func:`_compile_native`
    grows the columns should a draw outrun them anyway."""
    if isinstance(workload, TwitterWorkload):
        turn = 2.0 * math.pi / workload.diurnal_period
        swing = workload.diurnal_amplitude * (1.0 - math.cos(turn * duration)) / turn
        expected = workload.total_rate * (duration + swing)
        return int(expected + 4.0 * math.sqrt(expected)) + 1
    expected = workload.rate_per_key * workload.num_keys * duration
    chunks = int(expected + 4.0 * math.sqrt(expected)) // STREAM_CHUNK_SIZE + 1
    return chunks * STREAM_CHUNK_SIZE


def _compile_native(
    workload: PoissonZipfWorkload | TwitterWorkload, duration: float
) -> CompiledTrace:
    """Run a native generator's draw loop into whole-trace columns.

    The loop writes each chunk into the slices of the columns at the cursor
    that ``take`` hands it, so the trace is drawn in place, never held as
    chunks and a copy.  Columns that would overflow are grown to twice
    their size (or to what the chunk needs) with their drawn rows copied,
    and the rows past the last one drawn are given back at the end.
    """
    columns = [np.empty(_capacity(workload, duration), dtype) for dtype in workload._DRAWN]
    filled = 0

    def take(rows: int) -> Tuple[np.ndarray, ...]:
        if filled + rows > columns[0].size:
            size = max(2 * columns[0].size, filled + rows)
            for i, column in enumerate(columns):
                columns[i] = np.empty(size, column.dtype)
                columns[i][:filled] = column[:filled]
        return tuple(column[filled : filled + rows] for column in columns)

    for drawn in workload._draw(duration, take):
        filled += drawn[0].size
    del drawn
    for column in columns:
        # Hand the rows never drawn back to the allocator, in place: the
        # loop has ended, so no view of the column is left to move.
        column.resize(filled, refcheck=False)
    return CompiledTrace(*workload._columns(columns), key_names=list(workload.key_names()))


def _compile_mix(workload: PoissonMixWorkload, duration: float) -> CompiledTrace:
    """Native compiler for the two-component mixture.

    Compiles both Poisson halves natively, offsets the write-heavy key ids
    past the read-heavy table, and interleaves by time with a *stable* sort —
    which reproduces :func:`heapq.merge` tie-breaking exactly (the read-heavy
    stream is listed first, so it wins timestamp ties).
    """
    read_heavy, write_heavy = workload.components
    first = _compile_native(read_heavy, duration)
    second = _compile_native(write_heavy, duration)
    offset = len(first.key_names)
    times = np.concatenate([first.times, second.times])
    order = np.argsort(times, kind="stable")
    return CompiledTrace(
        times=times[order],
        key_ids=np.concatenate([first.key_ids, second.key_ids + offset])[order],
        is_read=np.concatenate([first.is_read, second.is_read])[order],
        key_sizes=np.concatenate([first.key_sizes, second.key_sizes])[order],
        value_sizes=np.concatenate([first.value_sizes, second.value_sizes])[order],
        key_names=first.key_names + second.key_names,
    )


def _compile_generic(workload: Workload, duration: float) -> CompiledTrace:
    """Fallback compiler: batch the scalar object stream into columns.

    Identical by construction (it consumes ``iter_requests`` itself); used
    for trace-backed and third-party workloads that have no native columnar
    path.  Key names are interned in first-appearance order.
    """
    key_ids: dict[str, int] = {}
    names: List[str] = []
    times: List[float] = []
    ids: List[int] = []
    is_read: List[bool] = []
    key_sizes: List[int] = []
    value_sizes: List[int] = []
    for request in workload.iter_requests(duration):
        key_id = key_ids.get(request.key)
        if key_id is None:
            key_id = key_ids[request.key] = len(names)
            names.append(request.key)
        times.append(request.time)
        ids.append(key_id)
        is_read.append(request.op is OpType.READ)
        key_sizes.append(request.key_size)
        value_sizes.append(request.value_size)
    return CompiledTrace(
        times=np.asarray(times, dtype=np.float64),
        key_ids=np.asarray(ids, dtype=np.int64),
        is_read=np.asarray(is_read, dtype=np.bool_),
        key_sizes=np.asarray(key_sizes, dtype=np.int64),
        value_sizes=np.asarray(value_sizes, dtype=np.int64),
        key_names=names,
    )


def compile_workload(workload: Workload, duration: float) -> CompiledTrace:
    """Compile a workload's request stream into columnar arrays.

    Runs the generator's own draw loop into the trace's columns when the
    workload type has one (the synthetic Poisson, mixture, and Twitter generators),
    otherwise batches the scalar stream.  Either way the result decompiles to
    a stream byte-identical to ``workload.iter_requests(duration)``.

    Raises:
        WorkloadError: If ``duration`` is not positive and finite.
    """
    duration = validate_duration(duration)
    # Exact-type dispatch: a subclass may override ``iter_requests`` in ways
    # its inherited chunk generator would not reproduce, so only the known
    # generator classes take the fast path.
    workload_type = type(workload)
    if workload_type in (PoissonZipfWorkload, TwitterWorkload):
        return _compile_native(workload, duration)
    if workload_type is PoissonMixWorkload:
        return _compile_mix(workload, duration)
    return _compile_generic(workload, duration)
