"""The TTL kernels, one call for a unit's whole trace (:func:`_kernel_ttl_expiry`,
:func:`_kernel_ttl_polling`), and TTL-polling's settle at the end of a run."""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.ttl import poll_counts, poll_instant
from repro.sim.vector.columns import (
    _ABSENT, _NO_CHARGES, _VALID, _GroupBlock, _HostColumns, _ReplayContext, _SpanTally,
    _fold_charges,
)
from repro.sim.vector.reactive import _count_violations
from repro.workload.compiled import bisect_groups


def _segments(groups: List[int], bounds: List[int]) -> List[int]:
    """Per-host bounds into ``groups``, an ascending list of group indices:
    one bisection per host bound."""
    return [bisect_left(groups, bound) for bound in bounds]


def _lengths(segments: List[int]) -> List[int]:
    """Per host, the length of its segment."""
    return [hi - lo for lo, hi in zip(segments, segments[1:])]


def _segment_sums(values: List[int], segments: List[int]) -> List[int]:
    """Per host, the sum of its segment of ``values``."""
    rows = iter(values)
    return [sum(islice(rows, length)) for length in _lengths(segments)]


def _held_violations(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
    held: np.ndarray,
    served: np.ndarray,
    as_of: np.ndarray,
    bound: np.ndarray,
) -> None:
    """Staleness violations among the reads loaded entries serve as they
    were handed: the first ``served[i]`` reads of group ``held[i]``, against
    the entry's ``as_of[i]`` and its host's staleness ``bound[i]``."""
    some = served.nonzero()[0]
    held, served, as_of, bound = held[some], served[some], as_of[some], bound[some]
    last = ctx.index.read_pos[groups.first[held] + (served - 1) * groups.stride]
    horizon = ctx.trace.times[last] - bound
    late = (horizon > as_of).nonzero()[0]
    if late.size:
        count = np.zeros_like(groups.count)
        count[held] = served
        _count_violations(
            ctx, tallies, groups._replace(count=count), held[late], as_of[late], horizon[late],
            bound[late],
        )


#: Keys the TTL-expiry kernel steps together.  A batched step finds every
#: live key's next epoch with a few hundred numpy calls (~0.3 ms) however few
#: keys are live; a scalar ``searchsorted`` on one key costs ~2 µs, so below
#: about this many live keys the per-key walk is the cheaper way to finish —
#: and the only bearable one for a hot key with tens of thousands of epochs.
_TTL_EXPIRY_BATCH = 128


def _versions_before(
    ctx: _ReplayContext, keys: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Per key, how many of its writes precede stream position ``positions[g]``.

    Exactly those writes are visible to a backend read at that position, so
    this is the version the read returns.
    """
    index = ctx.index
    write_lo = index.write_offsets[keys]
    return bisect_groups(
        lambda groups, rank: index.write_pos[write_lo[groups] + rank],
        np.zeros(keys.size, dtype=np.int64),
        index.write_offsets[keys + 1] - write_lo,
        positions,
    )


def _backend_reads(
    ctx: _ReplayContext, keys: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Version and value size a backend read of each key returns, the read
    of ``keys[g]`` sitting at stream position ``positions[g]``: the value
    size is the latest visible write's, or the backend default."""
    index = ctx.index
    version = _versions_before(ctx, keys, positions)
    value_size = np.full(keys.size, ctx.default_value_size, dtype=np.int64)
    written = version.nonzero()[0]
    value_size[written] = index.write_value_sizes[
        index.write_offsets[keys[written]] + version[written] - 1
    ]
    return version, value_size


def _ttl_start(
    columns: _HostColumns, groups: _GroupBlock, reading: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each reading group's entry starts the trace: its row of
    ``columns``, whether that row holds a ``VALID`` entry (the first read
    may hit it) and whether it holds none (the first read is a cold miss).
    Any other row's first read is a stale miss that refetches."""
    rows = groups.keys[reading] * len(columns.hosts) + groups.host[reading]
    state = columns.state[rows]
    return rows, state == _VALID, state == _ABSENT


def _fetch_ttl_rows(
    ctx: _ReplayContext,
    columns: _HostColumns,
    rows: np.ndarray,
    keys: np.ndarray,
    positions: np.ndarray,
) -> None:
    """Refresh each of ``rows`` with a backend read of its key, ``keys``, by
    the read at stream position ``positions``: version and value size as
    that read saw them, fetched (and accounted) at its time."""
    columns.version[rows], columns.value_size[rows] = _backend_reads(ctx, keys, positions)
    when = ctx.trace.times[positions]
    for column in (columns.as_of, columns.fetched_at, columns.accounted):
        column[rows] = when


def _close_ttl_rows(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    segments: List[int],
    rows: np.ndarray,
    cold: np.ndarray,
    position: np.ndarray,
    count: np.ndarray,
    hits: np.ndarray,
    stale: np.ndarray,
) -> None:
    """What every reading row keeps across the trace, and each host's
    counts.  The row ends ``VALID`` (a TTL host never drops an entry) with
    ``hits`` more hits.  A ``cold`` row was filled at its first read, stream
    position ``position``: that is its ``filled`` order, the scalar engine's
    cache dict order, and its key size; a loaded row keeps both (a refetch
    refreshes an entry in place).  Each host's tally gains its rows' reads
    (``count``), hits, cold fills and ``stale`` misses."""
    columns.state[rows] = _VALID
    columns.hits[rows] += hits
    filled = position[cold]
    columns.filled[rows[cold]] = filled
    columns.key_size[rows[cold]] = ctx.trace.key_sizes[filled]
    sums = (_segment_sums(column.tolist(), segments) for column in (count, hits, cold, stale))
    for tally, reads, host_hits, fills, misses in zip(tallies, *sums):
        tally.reads += reads
        tally.hits += host_hits
        tally.cold_misses += fills
        tally.stale_misses += misses


def _kernel_ttl_expiry(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
) -> None:
    """Every host's whole trace under TTL-expiry (the policy never reacts),
    from the entries in ``columns`` to each key's final entry, scattered
    into its row.

    An entry's life is a sequence of epochs: a fetch anchors a timer, the
    first read at or past ``fetched_at + ttl`` expires and re-fetches.  A
    loaded ``VALID`` entry's epoch runs from its own ``fetched_at`` (its
    fetch ranks before the first read, which may already expire it); any
    other row's first read fetches, cold or stale.  With ``ttl <= bound`` no
    hit can violate the staleness bound (an entry's ``as_of`` is at or after
    its ``fetched_at``: a fetch sets both, and only a poll moves ``as_of``),
    so only the epoch boundaries matter, and every key's next one is
    bisected out of its read run at once, on every host: ``O(keys x epochs x
    log reads)``, no pass over the reads.  The search starts after the
    current fetch, so it advances even where ``fetched_at + ttl`` rounds
    back to ``fetched_at``.  Keys leave the batch as their runs end; the
    last :data:`_TTL_EXPIRY_BATCH` of them — typically the hot keys, with
    the most epochs — finish one at a time.
    """
    keys, first, count, stride = groups[:4]
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    segments = _segments(reading.tolist(), groups.bounds[0].tolist())
    rows, valid, cold = _ttl_start(columns, groups, reading)
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos = ctx.trace.times, ctx.index.read_pos
    ttl = columns.ttl[groups.host[reading]]
    first_position = read_pos[first]
    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.
    start = -valid.astype(np.int64)
    fill = start.copy()
    fetch_time = np.where(valid, columns.fetched_at[rows], times[first_position])
    refetches = np.zeros(keys.size, dtype=np.int64)
    live = np.arange(keys.size)
    while live.size >= _TTL_EXPIRY_BATCH:
        run = first[live]
        expired = bisect_groups(
            lambda groups, rank: times[read_pos[run[groups] + rank * stride]],
            fill[live] + 1,
            count[live],
            fetch_time[live] + ttl[live],
        )
        refetched = expired < count[live]
        live, expired = live[refetched], expired[refetched]
        fill[live] = expired
        fetch_time[live] = times[read_pos[first[live] + expired * stride]]
        refetches[live] += 1
    # The keys still live are too few to share a step's fixed cost, and each
    # is a chain of epochs that has to be walked in order: one scalar
    # ``searchsorted`` per epoch on the key's own read times.
    for group in live.tolist():
        run_times = times[read_pos[first[group] : first[group] + count[group] * stride : stride]]
        rank, fetched, epochs, life = int(fill[group]), fetch_time[group], 0, ttl[group]
        while True:
            expired = max(int(run_times.searchsorted(fetched + life, side="left")), rank + 1)
            if expired >= run_times.size:
                break
            rank, fetched, epochs = expired, run_times[expired], epochs + 1
        fill[group], fetch_time[group] = rank, fetched
        refetches[group] += epochs
    hits = count - 1 - start - refetches
    # A row the trace fetched holds the last fetch; a loaded entry that
    # never expired is as it was.
    fetched = (fill >= 0).nonzero()[0]
    _fetch_ttl_rows(
        ctx, columns, rows[fetched], keys[fetched],
        read_pos[first[fetched] + fill[fetched] * stride],
    )
    _close_ttl_rows(
        ctx, columns, tallies, segments, rows, cold, first_position, count, hits,
        refetches + ~(valid | cold),
    )
    for tally, expirations in zip(tallies, _segment_sums(refetches.tolist(), segments)):
        tally.expirations += expirations


def _kernel_ttl_polling(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
) -> None:
    """Every host's whole trace under TTL-polling (the policy never reacts),
    from the entries in ``columns`` to each key's final entry, scattered
    into its row.

    A key's poll timer is anchored at ``a``: a loaded ``VALID`` entry's
    ``fetched_at``, else the first read's time (a cold fill, or the stale
    miss that refetches a loaded entry, which first settles the polls owed
    on its old anchor).  Every read of an entry settles the polls since the
    last accounting point with the scalar engine's arithmetic, the pair
    :func:`~repro.core.ttl.poll_count` / :func:`~repro.core.ttl.poll_instant`
    (the array half here).  A read at ``t`` has seen ``k = poll_count(a, t)``
    polls, and once it settles them the accounting point is
    ``poll_instant(a, k)``, which the next read counts back as
    ``s = poll_count(a, poll_instant(a, k))`` — *not* always ``k``: float
    rounding can land it one lower, and the closed form reproduces that.
    ``k`` never decreases along a key's reads and ``s <= k`` for a TTL the
    trace's clock resolves (:func:`_ttl_resolvable`), so a read that settles
    nothing leaves ``s`` where the previous read's ``k`` puts it, and read
    ``i`` charges ``k[i] - s[i - 1]`` polls whether or not read ``i - 1``
    charged any.

    So a key's reads fall into runs of equal ``k``: a run's first read
    charges ``k`` less the previous run's ``s``, and each later read ``k -
    s``, which is 0, or 1 on every read of a run whose ``poll_instant``
    rounds back (the slip, reproduced).  Where a key has many reads a poll,
    most of them charge nothing.  So a key whose runs a bisection finds in
    fewer probes than it has reads takes its polls as candidates
    (:func:`_charge_runs`, ``O(polls x log reads + charges)``), and any other
    key takes its reads (:func:`_charge_reads`, a fixed number of column
    operations a read).  The rule weighs a key's probes against its reads
    only: the run table's fixed cost, some ten rounds of numpy calls a
    block, is not in it, so where only a few keys take their polls (a
    sweep's Twitter cell at T = 1) the kernel is slower than one pass over
    every read would be.  Each table runs group after group,
    :data:`_TTL_BLOCK_ROWS` candidates at a time, and its charges are handed
    on as they are, not merged back into one group order: a host's charges
    are its reads table's, then its runs table's, and the flush sorts them
    by stream position anyway (a merge costs two more arrays the size of
    the charges, which showed in the peak RSS of a replay).

    A loaded ``VALID`` entry counts back from ``paid = poll_count(a,
    accounted)`` until one of its reads charges: the reads with ``k <=
    paid`` are served by the entry as it was handed, and the first read past
    them charges ``k - paid``.  Its accounting point may sit off the poll
    grid, with ``as_of`` behind it — a warm rejoin or a partition's end moves
    the point over polls nobody performed — so those served reads are
    checked against the staleness bound.  Every later hit is on an entry a
    poll refreshed less than ``ttl <= bound`` ago and cannot violate it.
    """
    keys, first, count, stride = groups[:4]
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    segments = _segments(reading.tolist(), groups.bounds[0].tolist())
    rows, valid, cold = _ttl_start(columns, groups, reading)
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos = ctx.trace.times, ctx.index.read_pos
    ttl = columns.ttl[groups.host[reading]]
    first_position = read_pos[first]
    first_time = times[first_position]
    loaded_anchor = columns.fetched_at[rows]
    anchor = np.where(valid, loaded_anchor, first_time)
    # The polls a loaded entry has settled, and what each first read
    # charges: a loaded entry's polls since then, on its own anchor; nothing
    # at a cold fill.
    paid = poll_counts(loaded_anchor, columns.accounted[rows], ttl)
    owed = poll_counts(loaded_anchor, first_time, ttl) - paid
    owed[cold] = 0
    np.maximum(owed, 0, out=owed)
    # How many reads each loaded valid entry serves before one charges.
    served = np.zeros(keys.size, dtype=np.int64)
    held = valid.nonzero()[0]
    if held.size:
        served[held] = bisect_groups(
            lambda groups, rank: poll_counts(
                loaded_anchor[held[groups]],
                times[read_pos[first[held[groups]] + rank * stride]],
                ttl[held[groups]],
            ),
            np.zeros(held.size, dtype=np.int64),
            count[held],
            paid[held],
            right=True,
        )
        _held_violations(
            ctx, tallies, groups, reading[held], served[held], columns.as_of[rows[held]],
            columns.bound[groups.host[reading[held]]],
        )
    refetching = ~(valid | cold)
    # Every group's charging reads, per table: stream positions and polls
    # charged, host ``h``'s at ``[split[h], split[h + 1])``.  Per group, the
    # polls its last charging read had seen (-1 where none charges) and that
    # read's stream position.
    polling = _PollingGroups(times, read_pos, ttl, stride, first, count, anchor, owed, served, paid)
    seen_first = poll_counts(anchor, first_time, ttl)
    spanned = poll_counts(anchor, times[read_pos[first + (count - 1) * stride]], ttl) - seen_first
    by_polls = (spanned + 1) * np.frexp(count)[1] < count
    settled_polls = np.full(count.size, -1, dtype=np.int64)
    settled_position = np.zeros(count.size, dtype=np.int64)
    settled = (settled_polls, settled_position)
    tables = [
        (position, charge, np.searchsorted(owner, segments).tolist())
        for owner, position, charge in (
            _charge_reads(polling, (~by_polls).nonzero()[0], settled),
            _charge_runs(polling, by_polls.nonzero()[0], seen_first, spanned, settled),
        )
    ]
    # Each host's freshness charges: its polls, then the stale miss of each
    # refetching first read, which lands after that read's polls (the
    # flush's sort by stream position is stable).
    missed = first_position[refetching]
    miss_split = np.searchsorted(refetching.nonzero()[0], segments).tolist()
    for host, tally in enumerate(tallies):
        lo, hi = miss_split[host], miss_split[host + 1]
        positions = [position[split[host] : split[host + 1]] for position, _, split in tables]
        counts = [charge[split[host] : split[host + 1]] for _, charge, split in tables]
        if hi > lo or any(piece.size for piece in positions):
            tally.charge_positions = np.concatenate(positions + [missed[lo:hi]])
            tally.charge_counts = np.concatenate(counts + [np.ones(hi - lo, dtype=np.int64)])
            tally.polls += int(tally.charge_counts.sum()) - (hi - lo)
    # A row the trace fetched was fetched at its first read.  Only a key's
    # *final* settled state is observable after the trace: polls refresh the
    # entry monotonically, so the scalar engine's per-read entry updates
    # collapse into the last one.
    fetched = (~valid).nonzero()[0]
    _fetch_ttl_rows(ctx, columns, rows[fetched], keys[fetched], first_position[fetched])
    _close_ttl_rows(
        ctx, columns, tallies, segments, rows, cold, first_position, count, count - 1 + valid,
        refetching,
    )
    charged = (settled_polls >= 0).nonzero()[0]
    keys = keys[charged]
    # version_at(last_poll) over the writes applied before the settling read:
    # both constraints are prefixes of the key's writes, so the refreshed
    # version is the shorter prefix.
    _refresh_polled(
        ctx, columns, rows[charged], keys, _versions_before(ctx, keys, settled_position[charged]),
        poll_instant(anchor[charged], settled_polls[charged], ttl[charged]),
    )


#: Candidates (read rows, or polls) a table settles at a time.  A block makes
#: about a dozen 8-byte temporaries per candidate, so it holds them near 1 MiB
#: however many reads the trace — or one hot key, or a TTL unit's stacked
#: members — has; the block-size note in docs/guides/performance.md has the
#: peak RSS and the kernel's time measured at other sizes.
_TTL_BLOCK_ROWS = 8_192


class _PollingGroups(NamedTuple):
    """The reading groups of one TTL-polling kernel call, as columns.

    Group ``g``'s reads are ``read_pos[first[g] + r * stride]`` for ``r <
    count[g]``, at ``times`` of those stream positions.  Its poll timer is
    anchored at ``anchor[g]`` and runs every ``ttl[g]`` — its host's TTL: the
    groups of a TTL unit's members each keep their own; its first read charges
    ``owed[g]`` polls.  A loaded ``VALID`` entry serves its first
    ``served[g]`` reads as it was handed and has ``paid[g]`` polls settled;
    the read after them charges the polls past ``paid[g]``.
    """

    times: np.ndarray
    read_pos: np.ndarray
    ttl: np.ndarray
    stride: int
    first: np.ndarray
    count: np.ndarray
    anchor: np.ndarray
    owed: np.ndarray
    served: np.ndarray
    paid: np.ndarray


#: A table's charges as it collects them, block by block, group after group:
#: each charging read's group, stream position and polls charged.
_Charges = Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]


def _settle(
    table: _Charges,
    settled: Tuple[np.ndarray, np.ndarray],
    owner: np.ndarray,
    position: np.ndarray,
    charge: np.ndarray,
    seen: np.ndarray,
) -> None:
    """Add a block's charging reads to ``table``, and each group's last one
    so far — the polls it had seen and its position — to ``settled``."""
    if not owner.size:
        return
    final = np.append(owner[1:] != owner[:-1], True)
    settled[0][owner[final]] = seen[final]
    settled[1][owner[final]] = position[final]
    for column, values in zip(table, (owner, position, charge)):
        column.append(values)


def _stacked(table: _Charges) -> List[np.ndarray]:
    """A table's blocks as one array per column."""
    return [np.concatenate(column) if column else _NO_CHARGES for column in table]


def _first_reads(groups: _PollingGroups, group: np.ndarray, polls: np.ndarray) -> np.ndarray:
    """Where each of ``group`` reaches a poll count: the rank of its first
    read that has seen ``polls`` polls, a read past its first one and at or
    before its last (``poll_counts`` grows with ``t``, so one segmented
    bisection finds every candidate's at once)."""
    times, read_pos, ttl, stride = groups[:4]
    start, anchor, ttl = groups.first[group], groups.anchor[group], ttl[group]
    return bisect_groups(
        lambda pending, rank: poll_counts(
            anchor[pending], times[read_pos[start[pending] + rank * stride]], ttl[pending]
        ),
        np.ones(group.size, dtype=np.int64),
        groups.count[group],
        polls,
    )


def _charge_reads(
    groups: _PollingGroups, which: np.ndarray, settled: Tuple[np.ndarray, np.ndarray]
) -> List[np.ndarray]:
    """The charges of the groups ``which``, which take their reads as
    candidates: one table of rows, group after group, row ``r`` of group
    ``g`` the read ``read_pos[slot[g] + r * stride]``.  Read ``i`` charges
    ``k[i] - s[i - 1]``, the polls it has seen past the previous read's
    accounting point, whether or not that read charged any; a first read
    charges what it owes."""
    times, read_pos, ttl, stride = groups[:4]
    count = groups.count[which]
    ends = np.cumsum(count)
    starts = ends - count
    slot = groups.first[which] - starts * stride
    anchor, owed, served = groups.anchor[which], groups.owed[which], groups.served[which]
    ttl = ttl[which]
    holding = bool(served.any())
    table: _Charges = ([], [], [])
    carried = 0  # ``s`` of the row before the block
    for lo in range(0, int(ends[-1]) if ends.size else 0, _TTL_BLOCK_ROWS):
        hi = min(lo + _TTL_BLOCK_ROWS, int(ends[-1]))
        # The groups with a row in the block, and how many each has there.
        head, tail = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
        members = slice(head, tail + 1)
        group = np.repeat(
            np.arange(head, tail + 1),
            np.minimum(ends[members], hi) - np.maximum(starts[members], lo),
        )
        position = read_pos[slot[group] + np.arange(lo, hi) * stride]
        base, life = anchor[group], ttl[group]
        seen = poll_counts(base, times[position], life)
        counted = poll_counts(base, poll_instant(base, seen, life), life)
        charge = seen.copy()
        charge[1:] -= counted[:-1]
        charge[0] -= carried
        carried = counted[-1]
        opened = np.arange(head, tail + 1)
        opened = opened[starts[opened] >= lo]
        charge[starts[opened] - lo] = owed[opened]
        if holding and served[members].any():
            # A loaded entry's reads up to its first charging one count back
            # from its own accounting point.
            rank = np.arange(lo, hi) - starts[group]
            settling = ((rank > 0) & (rank <= served[group])).nonzero()[0]
            charge[settling] = np.maximum(
                seen[settling] - groups.paid[which[group[settling]]], 0
            )
        charging = charge.nonzero()[0]
        _settle(
            table, settled, which[group[charging]], position[charging], charge[charging],
            seen[charging],
        )
    return _stacked(table)


def _charge_runs(
    groups: _PollingGroups,
    which: np.ndarray,
    seen_first: np.ndarray,
    spanned: np.ndarray,
    settled: Tuple[np.ndarray, np.ndarray],
) -> List[np.ndarray]:
    """The charges of the groups ``which``, which take their polls as
    candidates: one table, group after group.

    Candidate ``j`` of group ``g`` is the first read that has seen
    ``seen_first[g] + j`` polls (:func:`_first_reads`), for ``j <=
    spanned[g]``, and its run of reads ends where the next candidate's
    starts, or at the group's last read; a run no read has seen exactly that
    many polls for is empty.  A run's first read charges the polls past the
    previous run's accounting point (a group's first read what it owes), and
    every later read of the run what its own accounting point counts back
    short: none, or one poll.  A loaded entry's runs charge nothing until the
    one that starts at the first read past the reads it serves, which
    charges the polls past ``paid``.
    """
    _, read_pos, ttl, stride, first, count, anchor, owed, served, paid = groups
    ends = np.cumsum(spanned[which] + 1)
    starts = ends - spanned[which] - 1
    holding = bool(served[which].any())
    table: _Charges = ([], [], [])
    carried = 0  # ``s`` of the last run before the block
    for lo in range(0, int(ends[-1]) if ends.size else 0, _TTL_BLOCK_ROWS):
        hi = min(lo + _TTL_BLOCK_ROWS, int(ends[-1]))
        # The block's candidates and the one after it, where the block's
        # last run ends.
        ahead = min(hi + 1, int(ends[-1]))
        head, tail = np.searchsorted(ends, (lo, ahead - 1), side="right").tolist()
        members = slice(head, tail + 1)
        local = np.repeat(
            np.arange(head, tail + 1),
            np.minimum(ends[members], ahead) - np.maximum(starts[members], lo),
        )
        group = which[local]
        j = np.arange(lo, ahead) - starts[local]
        rank = np.zeros(j.size, dtype=np.int64)
        later = j.nonzero()[0]
        if later.size:
            rank[later] = _first_reads(groups, group[later], seen_first[group[later]] + j[later])
        end = np.append(rank[1:], 0)
        last = np.append(local[1:] != local[:-1], True)
        end[last] = count[group[last]]
        length = end[: hi - lo] - rank[: hi - lo]
        run = length.nonzero()[0]
        if not run.size:
            continue
        group, rank, length = group[run], rank[run], length[run]
        seen = seen_first[group] + j[run]
        base, life = anchor[group], ttl[group]
        counted = poll_counts(base, poll_instant(base, seen, life), life)
        lead = seen - np.append(carried, counted[:-1])
        carried = counted[-1]
        again = seen - counted
        opened = (rank == 0).nonzero()[0]
        lead[opened] = owed[group[opened]]
        if holding:
            # A loaded entry's runs up to its first charging read count back
            # from its own accounting point.
            limit = served[group]
            settling = ((rank == limit) & (limit > 0)).nonzero()[0]
            lead[settling] = seen[settling] - paid[group[settling]]
            quiet = rank < limit
            lead[quiet] = 0
            again[quiet] = 0
        # Each run's charging reads in turn, its first read's charge ahead
        # of its later reads', a block of them at a time: run ``unit``
        # charges on ``emitted[unit]`` reads.
        leads = lead != 0
        emitted = leads + np.where(again != 0, length - 1, 0)
        emitted_ends = np.cumsum(emitted)
        emitted_starts = emitted_ends - emitted
        total = int(emitted_ends[-1])
        for row_lo in range(0, total, _TTL_BLOCK_ROWS):
            row = np.arange(row_lo, min(row_lo + _TTL_BLOCK_ROWS, total))
            unit = np.searchsorted(emitted_ends, row, side="right")
            offset = row - emitted_starts[unit]
            leading = leads[unit]
            owner = group[unit]
            _settle(
                table,
                settled,
                owner,
                read_pos[first[owner] + (rank[unit] + offset + ~leading) * stride],
                np.where(leading & (offset == 0), lead[unit], again[unit]),
                seen[unit],
            )
    return _stacked(table)


def _refresh_polled(
    ctx: _ReplayContext,
    columns: _HostColumns,
    rows: np.ndarray,
    keys: np.ndarray,
    writes: np.ndarray,
    last_poll: np.ndarray,
) -> None:
    """Each of ``rows`` (key ``keys``) as its last poll, at ``last_poll``,
    leaves it: accounted there, ``as_of`` at least that, and its version at
    least ``version_at(last_poll)`` over the key's first ``writes`` writes."""
    write_lo = ctx.index.write_offsets[keys]
    polled_version = bisect_groups(
        lambda groups, rank: ctx.index.write_times[write_lo[groups] + rank],
        np.zeros(keys.size, dtype=np.int64),
        writes,
        last_poll,
        right=True,
    )
    columns.version[rows] = np.maximum(columns.version[rows], polled_version)
    columns.as_of[rows] = np.maximum(columns.as_of[rows], last_poll)
    columns.accounted[rows] = last_poll


def _settle_polls(
    ctx: _ReplayContext, columns: _HostColumns, horizon: float, hosts: slice
) -> None:
    """TTL-polling's end of run on the columns: each of ``hosts``' (one
    member's stacked hosts, replayed under ``ctx``)
    :meth:`CacheNode.account_polls <repro.sim.node.CacheNode.account_polls>`
    at ``horizon`` for each cached entry, as the node's finalize makes it.

    An entry anchored at ``a = fetched_at`` owes the polls it has seen by
    the horizon less those counted back from its accounting point,
    ``poll_count(a, horizon) - poll_count(a, accounted)``
    (:func:`~repro.core.ttl.poll_counts`).  One that owes any ends
    accounted at its last poll, ``poll_instant(a, k)``, with ``as_of`` at
    least that and its version at least the key's writes up to it — from
    the index's write columns, which hold every write of the trace.  The
    charges fold onto each host's ``freshness_cost`` in the host's cache
    dict order (``filled``), as :func:`_flush_tally` folds a span's (:func:`_fold_charges`).
    """
    stride = len(columns.hosts)
    lo, hi, _ = hosts.indices(stride)
    rows = (columns.state != _ABSENT).nonzero()[0]
    host_of = rows % stride
    rows = rows[(host_of >= lo) & (host_of < hi)]
    anchor = columns.fetched_at[rows]
    seen = poll_counts(anchor, horizon, ctx.ttl)
    polls = seen - poll_counts(anchor, columns.accounted[rows], ctx.ttl)
    charged = (polls > 0).nonzero()[0]
    rows, polls = rows[charged], polls[charged]
    offsets = ctx.index.write_offsets
    # A name the trace never mentions (a loaded entry's) reads as the key
    # past the last one, which has no write.
    keys = np.minimum(rows // stride, offsets.size - 1)
    _refresh_polled(
        ctx, columns, rows, keys, np.append(np.diff(offsets), 0)[keys],
        poll_instant(anchor[charged], seen[charged], ctx.ttl),
    )
    host_of = rows % stride
    for host in range(lo, hi):
        node = columns.hosts[host]
        mine = (host_of == host).nonzero()[0]
        if mine.size:
            result = node.result
            result.polls += int(polls[mine].sum())
            result.freshness_cost = _fold_charges(
                result.freshness_cost, columns.filled[rows[mine]], polls[mine], ctx.miss_const
            )
