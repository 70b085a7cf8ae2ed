"""Which reads of a TTL-polling replay charge polls, and how many.

The columnar TTL-polling kernel (:func:`repro.sim.vector._kernel_ttl_polling`)
replays every host's whole trace in one call.  What it has to find is a
column question: for every group (one key on one host) and every one of its
reads, the polls that read settles.  This module answers it for all groups
at once and hands back the charging reads only (:class:`PollingCharges`);
the kernel keeps everything that touches entries, tallies and the staleness
bound.

A key's poll timer is anchored at ``a``.  A read at ``t`` has seen ``k =
poll_count(a, t)`` polls, and once it settles them the accounting point is
``poll_instant(a, k)``, which the next read counts back as ``s =
poll_count(a, poll_instant(a, k))`` — ``k``, or one lower where float
rounding lands the instant just short of the poll.  ``k`` never decreases
along a key's reads, so the reads fall into runs of equal ``k``: a run's first
read charges ``k`` less the previous run's ``s``, and each later read ``k -
s``, which is 0, or 1 on every read of a run whose ``poll_instant`` rounds
back (the slip, reproduced).  Where a key has many reads a poll, most of them
charge nothing.  So a key whose runs a bisection finds in fewer probes than
it has reads takes its polls as candidates (:func:`_charge_runs`,
``O(polls x log reads + charges)``), and any other key takes its reads
(:func:`_charge_reads`, a fixed number of column operations a read).  The
rule weighs a key's probes against its reads only: the run table's fixed
cost, some ten rounds of numpy calls a block, is not in it, so where only a
few keys take their polls (a sweep's Twitter cell at T = 1) the kernel is
slower than one pass over every read would be.  Each table runs group after
group, :data:`_TTL_BLOCK_ROWS` candidates at a time.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.ttl import poll_counts, poll_instant
from repro.workload.compiled import bisect_groups

#: Candidates (read rows, or polls) a table settles at a time.  A block makes
#: about a dozen 8-byte temporaries per candidate, so it holds them near 1 MiB
#: however many reads the trace — or one hot key, or a TTL unit's stacked
#: members — has; the block-size note in docs/guides/performance.md has the
#: peak RSS and the kernel's time measured at other sizes.
_TTL_BLOCK_ROWS = 8_192

_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


class PollingGroups(NamedTuple):
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


class PollingCharges(NamedTuple):
    """Every charging read of every group: per table, its stream
    ``position`` s and the polls each ``charge`` s, group after group and in
    stream order within a group, with host ``h``'s charges at ``[split[h],
    split[h + 1])``.  Per group, the polls its last charging read had seen
    (-1 where none charges) and that read's stream position
    (``settled_polls``, ``settled_position``)."""

    tables: List[Tuple[np.ndarray, np.ndarray, List[int]]]
    settled_polls: np.ndarray
    settled_position: np.ndarray


#: A table's charges as it collects them, block by block, group after group:
#: each charging read's group, stream position and polls charged.
_Charges = Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]


def polling_charges(groups: PollingGroups, segments: List[int]) -> PollingCharges:
    """The charges of ``groups``, whose host ``h`` holds the groups
    ``[segments[h], segments[h + 1])``.

    The two tables are handed over as they are, not merged back into one
    group order: a host's charges are its reads table's, then its runs
    table's, and the flush sorts them by stream position anyway (a merge
    costs two more arrays the size of the charges, which showed in the
    peak RSS of a replay)."""
    times, read_pos, ttl, stride, first, count, anchor = groups[:7]
    seen_first = poll_counts(anchor, times[read_pos[first]], ttl)
    last_time = times[read_pos[first + (count - 1) * stride]]
    spanned = poll_counts(anchor, last_time, ttl) - seen_first
    by_polls = (spanned + 1) * np.frexp(count)[1] < count
    settled = (np.full(count.size, -1, dtype=np.int64), np.zeros(count.size, dtype=np.int64))
    tables = [
        _charge_reads(groups, (~by_polls).nonzero()[0], settled),
        _charge_runs(groups, by_polls.nonzero()[0], seen_first, spanned, settled),
    ]
    return PollingCharges(
        [(position, charge, np.searchsorted(owner, segments).tolist())
         for owner, position, charge in tables],
        *settled,
    )


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
    return [np.concatenate(column) if column else _NONE for column in table]


def _first_reads(groups: PollingGroups, group: np.ndarray, polls: np.ndarray) -> np.ndarray:
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
    groups: PollingGroups, which: np.ndarray, settled: Tuple[np.ndarray, np.ndarray]
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
    groups: PollingGroups,
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
