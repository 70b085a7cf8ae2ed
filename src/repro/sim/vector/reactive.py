"""The write-reactive window kernel (:func:`_kernel_reactive_window`): a
window of cuts of every host, each with its interval flush, in one call."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decision import DecisionRule
from repro.core.policy import Action
from repro.sim.vector.columns import (
    _ABSENT, _INVALIDATED, _UNSEEN, _VALID, _GroupBlock, _HostColumns, _PreludeBlock,
    _ReplayContext, _SpanTally,
)
from repro.sim.vector.envelope import _ADAPTIVE, _CACHE_STATE, _UPDATE


def _kernel_reactive_window(
    ctx: _ReplayContext,
    columns: _HostColumns,
    prelude: _PreludeBlock,
    flushes: Sequence[float],
) -> List[_SpanTally]:
    """A window of cuts of every host under its write-reactive policy, in
    one call: cut ``j`` of ``prelude``, then the interval flush at
    ``flushes[j]``, for each ``j``.  Returns each host's tally of the
    window, its flushes' counts and charges in it.

    Within a cut no messages arrive and nothing expires, so a key's entry
    changes state at most once: the first read of an absent/invalid entry
    misses and re-fetches, after which every read is a hit; a key valid at
    the cut's start serves only hits.  What a cut does to a key therefore
    follows from *endpoints* — read count, first and last read, the writes
    before the first read — which the :class:`_PreludeBlock` holds for all
    keys of all hosts.  From cut to cut only a row's cache state feeds
    back — whether its entry is valid (a hit or a miss), whether the
    tracker holds it (a suppressed invalidate), its ``as_of`` (a late hit's
    violations) — and the flush after each cut changes it again: each host
    drains the rows its cut left dirty and takes its policy's action for
    each (:meth:`CacheNode.flush <repro.sim.node.CacheNode.flush>` on an
    instant channel).  :func:`_step_cuts` carries that state from cut to
    cut with a fixed number of column operations per cut and records what
    each group found.  Everything else is done once for the window, from
    those records: the E[W] folds and the adaptive hosts' choices, which no
    cache state feeds (:func:`_fold_estimators`, :func:`_adaptive_updates`),
    the counts, fills, versions and violations, the trackers' sequence
    numbers, and each host's freshness charges — its message costs in drain
    order (first surviving write first) after each cut's stale misses, for
    one seeded ``cumsum``.  No entry, message or buffered write is built.

    A buffer handed in at load drains at the replay's first flush: its rows
    the first cut does not hold join it ahead of its groups as groups
    without requests, and a first-cut group keeps its loaded writes unless
    it misses.  A window of one empty cut is a flush alone.
    """
    hosts = len(columns.kinds)
    groups = prelude.block
    loaded = columns.dirty.nonzero()[0]
    extra = loaded
    if loaded.size:
        extra = loaded[~np.isin(loaded, prelude.rows[: groups.offsets[1]])]
    ahead = extra.size
    rows, host, count, writes, runs, first_seen = _records(prelude, extra, hosts)
    offsets = [0, *(ahead + at for at in groups.offsets[1:])]
    edges = np.asarray(offsets)
    reads = count > 0
    reading = prelude.reading + ahead if ahead else prelude.reading
    fetch_time = np.zeros(rows.size, dtype=np.float64)
    fetch_time[reading] = ctx.trace.times[prelude.first_read]
    kinds = columns.kinds[host]
    held = np.zeros(rows.size, dtype=np.bool_)
    if loaded.size:
        held[: offsets[1]] = columns.dirty[rows[: offsets[1]]]
        columns.dirty[loaded] = False
    prefers = kinds == _UPDATE
    if columns.folds.any():
        # The rows of the hosts that fold an estimator (all of them, or a
        # gather of theirs), and the adaptive ones a flush may decide.
        mine = slice(None) if columns.folds.all() else columns.folds[host].nonzero()[0]
        chosen = (kinds[mine] >= _ADAPTIVE) & ((writes[mine] > 0) | held[mine])
        estimate = _fold_estimators(
            columns, rows[mine], host[mine], count[mine], writes[mine], runs[:, mine],
            first_seen[mine], chosen,
        )
        picked = np.arange(rows.size)[mine][chosen]
        if picked.size:
            prefers[picked] = _adaptive_updates(columns, rows[picked], host[picked], estimate)
    state_in, as_of_in, tracked, dirty = _step_cuts(
        columns, rows, offsets, flushes, reads, writes > runs[0], writes > 0, prefers,
        kinds == _CACHE_STATE, fetch_time, held if loaded.size else None,
    )

    # The reads: hits, misses and cold fills, and the late hits' violations.
    miss = reads & (state_in != _VALID)
    cold = miss & (state_in == _ABSENT)
    tallies = [_SpanTally(count) for count in groups.writes.sum(axis=0).tolist()]
    horizon = prelude.last_read - ctx.bound
    late = ((state_in[reading] == _VALID) & (horizon > as_of_in[reading])).nonzero()[0]
    if late.size:
        _count_violations(
            ctx, tallies, groups, prelude.reading[late], as_of_in[reading[late]], horizon[late],
            ctx.bound,
        )
    fills = rows[cold]
    filled = prelude.first_read[cold[reading]]
    columns.filled[fills] = filled
    columns.key_size[fills] = ctx.trace.key_sizes[filled]
    columns.hits[fills] = 0
    np.add.at(columns.hits, rows[reading], count[reading] - miss[reading])

    # The flushes: what each drained row's host did with it.
    drained = dirty.nonzero()[0]
    drain_host = host[drained]
    valid = reads[drained] | (state_in[drained] == _VALID)
    absent = ~reads[drained] & (state_in[drained] == _ABSENT)
    decided = valid | (kinds[drained] != _CACHE_STATE)
    update = decided & prefers[drained]
    invalidate = decided & ~prefers[drained]
    suppressed = invalidate & tracked[drained]
    invalidate &= ~tracked[drained]
    adaptive = decided & (kinds[drained] >= _ADAPTIVE)
    flags = [
        update, invalidate, suppressed, update & absent, invalidate & valid, ~decided,
        adaptive, adaptive & update,
    ]
    counts = np.array(
        [np.bincount(drain_host, weights=flag, minlength=hosts) for flag in flags]
    ).astype(np.int64).T.tolist()
    for tally, messages in zip(tallies, counts):
        tally.messages = messages
    # Drain order: flush by flush, host by host, each host's rows by first
    # surviving write — a loaded buffer's in its own order, ahead of the trace's.
    own = held[drained] & ~miss[drained]
    first_write = np.empty(drained.size, dtype=np.int64)
    first_write[own] = columns.first_write[rows[drained[own]]]
    traced = drained[~own] - ahead
    skipped = np.where(miss[drained[~own]], prelude.write_runs[0][traced], 0)
    first_write[~own] = ctx.index.write_pos[groups.write_lo[traced] + skipped]
    drain_cut = np.searchsorted(edges, drained, side="right") - 1
    order = np.lexsort((first_write, drain_host, drain_cut))

    # The invalidates sent number the trackers' rows in drain order; a row
    # keeps its last.
    sent = order[invalidate[order]]
    if sent.size:
        sent_rows = rows[drained[sent]]
        base = columns.sequence
        np.maximum.at(columns.tracked_seq, sent_rows, base + np.arange(sent.size))
        sent_at = np.asarray(flushes)[drain_cut[sent]]
        columns.tracked_at[sent_rows] = sent_at[columns.tracked_seq[sent_rows] - base]
        columns.sequence += sent.size

    # A row's version, value size and fetch times are its last fetch's: a
    # miss's, as of its read, or an update's, as of its cut's end.
    refreshed = np.zeros(rows.size, dtype=np.bool_)
    refreshed[drained[update & ~absent]] = True
    fetched = (miss | refreshed).nonzero()[0]
    if fetched.size:
        fetched_rows, last = np.unique(
            rows[fetched[::-1]].astype(np.min_scalar_type(columns.state.size)), return_index=True
        )
        last = fetched[::-1][last]
        version = np.zeros(last.size, dtype=np.int64)
        keys = rows[last] // hosts
        traced = last >= ahead
        group = last[traced] - ahead
        version[traced] = np.where(
            refreshed[last[traced]],
            prelude.versions[group],
            groups.write_lo[group] + prelude.write_runs[0][group]
            - ctx.index.write_offsets[keys[traced]],
        )
        held_rows = (~traced).nonzero()[0]
        if held_rows.size:
            # A loaded row's update carries its key's writes up to the first
            # cut's end, as every group of the key in that cut counts them.
            first = slice(0, groups.offsets[1])
            carried = dict(zip(groups.keys[first].tolist(), prelude.versions[first].tolist()))
            version[held_rows] = [carried.get(key, 0) for key in keys[held_rows].tolist()]
        value_size = np.full(last.size, ctx.default_value_size, dtype=np.int64)
        written = version.nonzero()[0]
        value_size[written] = ctx.index.write_value_sizes[
            ctx.index.write_offsets[keys[written]] + version[written] - 1
        ]
        columns.version[fetched_rows] = version
        columns.value_size[fetched_rows] = value_size
        columns.fetched_at[fetched_rows] = columns.accounted[fetched_rows] = (
            columns.as_of[fetched_rows]
        )

    # Each host's reads, then its freshness charges: every cut's stale
    # misses, then its flush's messages in drain order.
    misses = np.bincount(host[miss], minlength=hosts).tolist()
    colds = np.bincount(host[cold], minlength=hosts).tolist()
    for tally, host_reads, host_writes, host_misses, host_colds in zip(
        tallies, prelude.host_reads.sum(axis=0).tolist(),
        prelude.host_writes.sum(axis=0).tolist(), misses, colds,
    ):
        tally.reads = host_reads
        tally.hits = host_reads - host_misses
        tally.cold_misses = host_colds
        tally.stale_misses = host_misses - host_colds
        tally.buffered_writes = host_writes
    charged = order[(update | invalidate)[order]]
    if charged.size:
        stale = (miss & ~cold).nonzero()[0]
        _charge_hosts(
            ctx, tallies, host[stale], np.searchsorted(edges, stale, side="right") - 1,
            len(flushes), drain_host[charged], drain_cut[charged], update[charged],
        )
    return tallies


def _records(prelude: _PreludeBlock, extra: np.ndarray, hosts: int) -> Tuple[np.ndarray, ...]:
    """A window's groups — rows, hosts, read counts, writes, write runs and
    first observations — with the rows of ``extra`` ahead of them, as groups
    without requests."""
    groups = prelude.block
    records = (
        prelude.rows, groups.host, groups.count, prelude.num_writes, prelude.write_runs,
        prelude.first_seen,
    )
    if not extra.size:
        return records
    none = np.zeros(extra.size, dtype=np.int64)
    ahead = (extra, extra % hosts, none, none, np.zeros((3, extra.size), dtype=np.int64),
             np.full(extra.size, _UNSEEN, dtype=np.int64))
    return tuple(np.concatenate(pair, axis=-1) for pair in zip(ahead, records))


def _step_cuts(
    columns: _HostColumns,
    rows: np.ndarray,
    offsets: List[int],
    flushes: Sequence[float],
    reads: np.ndarray,
    kept: np.ndarray,
    written: np.ndarray,
    prefers: np.ndarray,
    cache_state: np.ndarray,
    fetched: np.ndarray,
    held: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Carry the columns' ``state``, ``tracked`` and ``as_of`` through each
    cut of a window (groups ``offsets[j]`` to ``offsets[j + 1]``) and the
    flush after it, at ``flushes[j]``.

    Each group reads (``reads``), misses if its row's entry is not valid,
    which fetches at ``fetched`` and drops the writes before the read, and
    leaves its row dirty if writes survive: ``kept`` after a miss,
    ``written`` otherwise, or a loaded buffer (``held``, first cut only)
    without a miss.  The flush then decides each dirty row — an update if
    ``prefers``, an invalidate otherwise, nothing on a ``cache_state`` host
    without a valid entry.  Returns, per group, the state and ``as_of`` its
    row starts the cut with, whether the tracker holds the row at the
    flush, and whether the flush drains it.
    """
    state, tracked, as_of = columns.state, columns.tracked, columns.as_of
    state_in = np.empty(rows.size, dtype=np.int8)
    as_of_in = np.empty(rows.size, dtype=np.float64)
    tracked_in = np.empty(rows.size, dtype=np.bool_)
    dirty = np.empty(rows.size, dtype=np.bool_)
    for lo, hi, flush in zip(offsets, offsets[1:], flushes):
        mine = rows[lo:hi]
        read = reads[lo:hi]
        start, since = state[mine], as_of[mine]
        valid = start == _VALID
        miss = read & ~valid
        drains = np.where(miss, kept[lo:hi], written[lo:hi])
        if held is not None and lo == 0:
            drains |= held[lo:hi] & ~miss
        holds = tracked[mine] & ~miss
        valid |= read
        prefer = prefers[lo:hi]
        decided = drains & (valid | ~cache_state[lo:hi])
        update = decided & prefer
        send = decided & ~prefer & ~holds
        refresh = update & (read | (start != _ABSENT))
        state[mine] = np.where(send & valid, _INVALIDATED, np.where(refresh | read, _VALID, start))
        tracked[mine] = (holds | send) & ~update
        as_of[mine] = np.where(refresh, flush, np.where(miss, fetched[lo:hi], since))
        state_in[lo:hi] = start
        as_of_in[lo:hi] = since
        tracked_in[lo:hi] = holds
        dirty[lo:hi] = drains
    return state_in, as_of_in, tracked_in, dirty


def _fold_estimators(
    columns: _HostColumns,
    rows: np.ndarray,
    host: np.ndarray,
    count: np.ndarray,
    writes: np.ndarray,
    runs: np.ndarray,
    first_seen: np.ndarray,
    asked: np.ndarray,
) -> np.ndarray:
    """Fold a window's groups into the E[W] columns; the E[W] of each
    ``asked`` group's row after it — ``C1 / C2``, or its host's prior
    before the first sample — in group order.

    The closed form of replaying observe_read / observe_write in stream
    order: each read closes the run of writes since the previous read, the
    first run absorbing the carried ``writes_since_read``.  No cache state
    feeds it, so a row's groups fold in one pass, cut after cut: sorted by
    row, a group's carry is the writes since its row's last read — counted
    from the row's first group, less the loaded carry, or from the group
    after its last read — and the sums are prefix sums.
    """
    by_row = np.argsort(rows.astype(np.min_scalar_type(columns.state.size)), kind="stable")
    row = rows[by_row]
    size = row.size
    starts = np.ones(size, dtype=np.bool_)
    np.not_equal(row[1:], row[:-1], out=starts[1:])
    reads, added = count[by_row], writes[by_row]
    before_first, before_last, runs_closed = runs[:, by_row]
    observed = reads > 0
    spent = np.cumsum(added)
    spent -= added
    anchor = np.where(starts, spent - columns.writes_since_read[row], 0)
    resumed = np.zeros(size, dtype=np.bool_)
    resumed[1:] = observed[:-1] & ~starts[1:]
    anchor[1:] = np.where(resumed[1:], spent[:-1] + before_last[:-1], anchor[1:])
    places = np.arange(size)
    carry = spent - anchor[np.maximum.accumulate(np.where(starts | resumed, places, 0))]
    sums = np.where(observed, before_last + carry, 0)
    closed = np.where(observed, runs_closed + (before_first + carry > 0), 0)
    if columns.zero_runs.any():
        # Every read closes a run on a host that counts the empty ones.
        closed = np.where(columns.zero_runs[host[by_row]], reads, closed)
    first = np.maximum.accumulate(np.where(starts, places, 0))
    last = np.append(starts[1:], True).nonzero()[0]
    rows_of = row[last]
    since_read = np.where(observed, added - before_last, carry + added)
    columns.writes_since_read[rows_of] = since_read[last]
    firsts = row[starts]
    columns.seen[firsts] = np.minimum(columns.seen[firsts], first_seen[by_row][starts])

    def totals(column: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Each group's ``column`` after it: its row's loaded value plus the
        prefix of the row's deltas; each row's last written back."""
        total = np.cumsum(delta)
        total -= (total - delta)[first]
        total += column[row]
        column[rows_of] = total[last]
        return total

    sums, closed = totals(columns.sample_sum, sums), totals(columns.sample_count, closed)
    wanted = asked[by_row].nonzero()[0]
    estimate = np.where(
        closed[wanted] > 0,
        sums[wanted] / np.maximum(closed[wanted], 1),
        columns.prior[host[by_row[wanted]]],
    )
    return estimate[np.argsort(by_row[wanted], kind="stable")]


def _adaptive_updates(
    columns: _HostColumns, rows: np.ndarray, host_of: np.ndarray, estimate: np.ndarray
) -> np.ndarray:
    """Whether each of ``rows`` — rows of the adaptive hosts ``host_of``,
    whose E[W] is ``estimate`` — gets an update rather than an invalidate.

    Each host's policy builds its own rule (for the first of its keys, as
    :meth:`AdaptivePolicy.decisions` does), and each distinct (rule, E[W])
    pair across all hosts is asked of that rule once (:func:`_ew_updates`).
    """
    values, which = np.unique(estimate, return_inverse=True)
    by_host = np.argsort(host_of, kind="stable")
    starts = np.ones(by_host.size, dtype=np.bool_)
    np.not_equal(host_of[by_host[1:]], host_of[by_host[:-1]], out=starts[1:])
    starts = by_host[starts]
    rules: dict = {}
    for host, row in zip(host_of[starts].tolist(), rows[starts].tolist()):
        rule = columns.hosts[host].policy._decision_rule_for(
            columns.names[row // len(columns.hosts)]
        )
        rules.setdefault(rule, []).append(host)
    if len(rules) == 1:
        return _ew_updates(next(iter(rules)), values)[which]
    rule_of = np.zeros(len(columns.hosts), dtype=np.int64)
    for number, hosts in enumerate(rules.values()):
        rule_of[hosts] = number
    pairs, which = np.unique(rule_of[host_of] * values.size + which, return_inverse=True)
    picks = np.empty(pairs.size, dtype=np.bool_)
    for number, rule in enumerate(rules):
        mine = pairs // values.size == number
        picks[mine] = _ew_updates(rule, values[pairs[mine] % values.size])
    return picks[which]


def _ew_updates(rule: DecisionRule, values: np.ndarray) -> np.ndarray:
    """Whether ``rule`` picks an update for each of ``values``, ascending
    E[W] estimates.  A flat rule — exactly a :class:`DecisionRule`, with no
    staleness SLO — is :func:`~repro.core.decision.ew_decision`'s own float
    comparison, ``E[W] * c_u < c_i + c_m``, over the whole column (a
    negative estimate raises its error); any other rule is asked value by
    value."""
    if type(rule) is DecisionRule and rule.staleness_slo is None:
        negative = values < 0
        if negative.any():
            rule.from_ew(float(values[negative][0]))
        # ``inf * 0`` is NaN, which picks no update, as in Python, unwarned.
        with np.errstate(invalid="ignore"):
            return values * rule.update_cost < rule.invalidate_cost + rule.miss_cost
    return np.array(
        [rule.from_ew(value) is Action.UPDATE for value in values.tolist()], dtype=np.bool_
    )


def _charge_hosts(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    stale_host: np.ndarray,
    stale_cut: np.ndarray,
    cuts: int,
    charge_host: np.ndarray,
    charge_cut: np.ndarray,
    update: np.ndarray,
) -> None:
    """Hand each host that sent a message in a window its freshness
    charges, in the order the scalar engine adds them: each cut's stale
    misses (one per group at ``stale_host`` / ``stale_cut``), then the
    messages of the flush after it, in the order given (drain order); the
    other hosts fold their stale misses as one constant."""
    hosts = len(tallies)
    charging = np.bincount(charge_host, minlength=hosts) > 0
    mine = charging[stale_host]
    cells = np.bincount(stale_host[mine] * cuts + stale_cut[mine], minlength=hosts * cuts)
    keys = np.concatenate([
        np.repeat(np.arange(hosts * cuts) * 2, cells), (charge_host * cuts + charge_cut) * 2 + 1
    ])
    addends = np.concatenate([
        np.full(int(cells.sum()), ctx.miss_const),
        np.where(update, ctx.update_const, ctx.invalidate_const),
    ])
    order = np.argsort(keys, kind="stable")
    ends = np.searchsorted(keys[order], np.arange(hosts + 1) * (cuts * 2)).tolist()
    addends = addends[order]
    for host_id in charging.nonzero()[0].tolist():
        tallies[host_id].charges = addends[ends[host_id] : ends[host_id + 1]]


def _count_violations(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
    late: np.ndarray,
    as_of: np.ndarray,
    horizon: np.ndarray,
    bound,
) -> None:
    """Staleness violations among hits on entries older than the bound.

    ``late`` are the groups served from a valid entry whose last read's
    ``horizon`` ``t - T`` lies past the entry's ``as_of``, ``T`` their
    host's ``bound`` (one for all, or one per group).  A hit violates the
    bound when the key was written in ``(as_of, t - T]``; that needs the
    key's last write before the span to be newer than the entry (or, at a
    float-rounding edge, its first span write to reach back to the horizon),
    which with ideal channels it never is — only groups passing that check
    pay for the per-read count, into their own host's tally.
    """
    keys, first, count, stride, write_lo = groups[:5]
    index = ctx.index
    write_times = index.write_times
    if write_times.size == 0:
        return
    lo = write_lo[late]
    key_ids = keys[late]
    # Clamped gathers: the bound checks mask what a clamp made up.
    suspect = (lo > index.write_offsets[key_ids]) & (
        write_times[np.maximum(lo, 1) - 1] > as_of
    )
    suspect |= (lo < index.write_offsets[key_ids + 1]) & (
        write_times[np.minimum(lo, write_times.size - 1)] <= horizon
    )
    if not suspect.any():
        return
    bounds = np.broadcast_to(bound, late.shape)[suspect]
    late = late[suspect]
    for g, host, key_id, entry_as_of, group_bound in zip(
        late.tolist(),
        groups.host[late].tolist(),
        key_ids[suspect].tolist(),
        as_of[suspect].tolist(),
        bounds.tolist(),
    ):
        reads = index.read_pos[first[g] : first[g] + count[g] * stride : stride]
        horizons = ctx.trace.times[reads] - group_bound
        candidates = horizons > entry_as_of
        key_write_times, _, _ = index.writes_of(key_id)
        stale_writes = key_write_times.searchsorted(
            horizons[candidates], side="right"
        ) - key_write_times.searchsorted(entry_as_of, side="right")
        tallies[host].violations += int(np.count_nonzero(stale_writes))
