"""The walk of a replay through its trace, a window of cuts at a time, and
the lockstep unit (:class:`_Lockstep`) whose kernel call serves every member."""

from __future__ import annotations

import math
from typing import Any, Generator, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.vector.columns import (
    _flush_tally, _GroupBlock, _HostColumns, _PreludeBlock, _SpanTally, _stack_groups,
)
from repro.sim.vector.reactive import _kernel_reactive_window
from repro.sim.vector.ttl import _kernel_ttl_expiry, _kernel_ttl_polling, _settle_polls
from repro.workload.compiled import CutBatch

#: Most stacked groups a lockstep unit builds one prelude for, and so the
#: most a window of its cuts holds: with their group columns and the window
#: kernel's temporaries, a few hundred bytes a group.  ``sweep-grid``'s
#: peak RSS grows with it (2-vCPU x86, CPython 3.11): 88.3–88.6 MiB at
#: 8 192 groups, 89.4 at 12 288, 90.3 at 16 384.
_STACKED_GROUPS = 1 << 13

#: A member of a unit: a :class:`~repro.sim.vector.engine.SpanReplay` engine,
#: which this module, below the engine's, never imports.
_Member = Any


def _walk_spans(engine, unit: "_Lockstep") -> Iterator[None]:
    """Walk ``engine``'s replay of its trace through ``unit``, a window of
    cuts at a time, yielding after each.

    Each cut ends where its next flush falls; the walk takes the cut it is
    at from the trace's span table — a miss builds the cut with the next
    ones of the replay's flush schedule, in one batch — and hands it to the
    unit (:meth:`_Lockstep.window`), which replays from it every cut before
    the next due work that is not an interval flush: the first request at
    or past ``until``, where the obs window rolls.  After the window the
    walk runs the due work of ``ReplayDriver._advance`` (which moves the
    live ``engine._next_flush``) exactly where the scalar loop would; the
    window has run its flushes, so they find nothing to do.  Before each
    window the obs window rolls to its first request: the kernel's stats
    fold into the window containing it (span-granularity attribution).  A
    replay with no flush work (the TTL policies: its next flush is never)
    is one cut of the whole trace; it asks for no flush schedule, which at
    a tiny bound would hold an end per interval, and rolls no window, so
    its stats fold into the one open at the start.
    """
    times = engine.trace.times
    total = len(times)
    index = engine.trace.index()
    schedule = obs = None
    if engine._next_flush < math.inf:
        schedule = index.cut_ends(times, engine.staleness_bound)
        obs = engine.obs
    start = 0
    while start < total:
        end = int(np.searchsorted(times, engine._next_flush, side="left"))
        if end > start:
            until = math.inf
            if obs is not None:
                if times[start] >= obs.next_boundary:
                    obs.roll(float(times[start]))
                until = obs.next_boundary
            unit.window(engine, *index.span(start, end, schedule), until)
            yield
            start = unit.reach
            if start >= total:
                break
        # The next request is at or past the flush boundary: run the due
        # background work exactly where the scalar loop would.
        engine._advance(float(times[start]))


class _Lockstep:
    """The replays of one lockstep unit, as one replay of their stacked
    hosts.

    Replays of one trace under one flush schedule cut it in the same places,
    whatever their fleet shape, so a unit keeps every member's hosts in one
    :class:`_HostColumns` — member ``m``'s hosts follow those of the members
    before it — and replays a window of cuts, each with the interval flush
    after it, in one kernel call for all of them
    (:func:`_kernel_reactive_window`).  Each member still walks its own
    windows, and its own sequence is unchanged — its obs roll, the window's
    cuts and flushes, its tally fold, the due work after it — because the
    members' states are disjoint and the window runs when the last member
    has come to it (:meth:`window`): it ends before the first cut any
    member has other work due at.  A flush outside any window runs when
    the first member reaches it (:meth:`flush`).  The unit stacks its
    members' groups once per stretch of a batch's cuts
    (:func:`_stack_groups`) and builds the stretch's stacked prelude then;
    each window's kernel call takes views of it.  Members stack whatever
    their fleet shape, as long as their groups read with one stride.  Each
    member's tallies fold into its own results.  The last member to finish
    its walk leaves every member's objects to a build on their first read
    (:meth:`finish`).  TTL replays have no flush schedule: each one's walk
    is one cut, the whole trace, whatever its bound, so the TTL replays of
    one trace and policy stack too (:meth:`key`), and the cut is one call of
    the policy's TTL kernel for all of them on their stacked groups, each
    group at its own host's TTL (:attr:`_HostColumns.ttl`).  Each member's
    tallies fold into its own results, and TTL-polling's settle runs on
    each member's hosts at its horizon, on its context (:meth:`finish`).
    One cut cannot be cut into windows, so a TTL unit over the stacking
    budget splits by members (:meth:`parts`).
    """

    __slots__ = (
        "members", "columns", "flushed", "arrived", "finished", "until", "reach", "batch",
        "first", "last", "prelude",
    )

    def __init__(self, members: List[_Member]) -> None:
        self.members = members
        self.columns = _HostColumns(
            [node for member in members for node in member._node_list],
            members[0].trace.key_names,
        )
        self.flushed = -math.inf
        self.arrived = self.finished = 0
        #: The earliest time a member arriving at the next window has other
        #: work due; where the last window ended, in stream positions.
        self.until = math.inf
        self.reach = 0
        #: The stacked prelude of cuts ``first`` to ``last`` of ``batch``.
        self.batch: Optional[CutBatch] = None
        self.first = self.last = 0
        self.prelude: Optional[_PreludeBlock] = None
        for member in members:
            member._unit = self

    def flush(self, time: float) -> None:
        """Every member's interval flush at ``time``, once.  A window runs
        the flush after each of its cuts, so the flushes between windows
        drain only a buffer handed in at load — a flush alone, as the
        window kernel's window of one empty cut."""
        if time > self.flushed:
            self.flushed = time
            if self.columns.dirty.any():
                ctx = self.members[0]._ctx
                hosts, none = len(self.columns.kinds), np.zeros(0, dtype=np.int64)
                empty = _GroupBlock(
                    none, none, none, 1, none, none, none, hosts, [0, 0],
                    np.zeros((1, hosts + 1), dtype=np.int64), np.zeros((1, hosts), dtype=np.int64),
                )
                prelude = _PreludeBlock(ctx.trace, ctx.index, empty)
                self._fold(_kernel_reactive_window(ctx, self.columns, prelude, [time]))

    def window(
        self, member: _Member, batch: CutBatch, position: int, until: float
    ) -> None:
        """``member`` has come to cut ``position`` of ``batch``, with no work
        but interval flushes due before its first request at or past
        ``until``: once every member has, one kernel call replays a window
        of cuts from it for all of them — the reactive window kernel with
        each cut's flush, or a TTL kernel on the groups of a TTL replay's
        one cut — and ``reach`` says where the window ended."""
        self.arrived += 1
        self.until = min(self.until, until)
        if self.arrived < len(self.members):
            return
        until, self.arrived, self.until = self.until, 0, math.inf
        ctx = member._ctx
        node = member._node_list[0]
        if not node._reacts:
            groups = _stack_groups(
                [each._group_block(batch) for each in self.members], position, position + 1
            )
            tallies = [_SpanTally(count) for count in groups.writes[0].tolist()]
            kernel = _kernel_ttl_expiry if node._ttl_expiry else _kernel_ttl_polling
            kernel(ctx, self.columns, tallies, groups)
            self._fold(tallies)
            self.reach = batch.cuts[position][1]
            return
        if batch is not self.batch or not self.first <= position < self.last:
            self._stack(batch, position)
        flushes = self._flushes(member, batch.cuts[position : self.last], until)
        lo = position - self.first
        prelude = self.prelude.cuts(lo, lo + len(flushes))
        self._fold(_kernel_reactive_window(ctx, self.columns, prelude, flushes))
        self.flushed = flushes[-1]
        self.reach = batch.cuts[position + len(flushes) - 1][1]

    @staticmethod
    def _flushes(member: _Member, cuts: List[Tuple[int, int]], until: float) -> List[float]:
        """The flush after each cut of a window from the first of ``cuts``,
        where ``member`` is: its next flush, then the next of each later
        cut, as ``ReplayDriver._advance`` steps them, for as long as each
        cut is the one the member's walk takes next — a batch built for
        another schedule holds other cuts — and starts before ``until``.
        The trace's last cut flushes at the horizon when its next flush
        falls past it."""
        times = member.trace.times
        total, bound = times.size, member.staleness_bound
        flush = member._next_flush
        flushes = [flush]
        for start, end in cuts[1:]:
            if times[start] >= until:
                break
            while flush <= times[start]:
                flush += bound
            if not times[end - 1] < flush <= (times[end] if end < total else math.inf):
                break
            flushes.append(flush)
        if cuts[len(flushes) - 1][1] == total:
            flushes[-1] = min(flushes[-1], max(member.duration, float(times[-1])))
        return flushes

    def _fold(self, tallies: List[_SpanTally]) -> None:
        """Each member's hosts' tallies into their results, on its own context."""
        folding = iter(tallies)
        for each in self.members:
            for node, tally in zip(each._node_list, folding):
                _flush_tally(each._ctx, node, tally)

    def _stack(self, batch: CutBatch, first: int) -> None:
        """The prelude of the cuts of ``batch`` from ``first`` on: a unit of
        one takes its shape's from the span table; a bigger unit stacks its
        members' groups of as many of those cuts as :data:`_STACKED_GROUPS`
        stacked groups hold (at least one cut) and builds their prelude
        once."""
        members = self.members
        # The stretch before lets go first: two are never held at once.
        self.batch, self.prelude = batch, None
        if len(members) == 1:
            self.prelude = members[0]._prelude_block(batch)
            self.first, self.last = 0, len(batch.cuts)
            return
        ctx = members[0]._ctx
        blocks = [each._group_block(batch) for each in members]
        stacked = np.cumsum(sum(np.diff(block.offsets[first:]) for block in blocks))
        last = first + max(1, int(np.searchsorted(stacked, _STACKED_GROUPS, side="right")))
        self.first, self.last = first, last
        self.prelude = _PreludeBlock(ctx.trace, ctx.index, _stack_groups(blocks, first, last))

    def finish(self, member: _Member, horizon: float) -> None:
        """``member`` has run its flushes up to ``horizon``: the nodes' own
        end-of-run steps (:meth:`CacheNode.finalize
        <repro.sim.node.CacheNode.finalize>`) that act on state run on the
        columns.  TTL-polling's settle (:func:`_settle_polls`) runs on the
        member's own hosts, at its horizon and on its context; the last
        member to finish runs a reactive unit's trailing flush at the
        horizon (the last window's, unless a handed-in buffer is still
        held) and leaves every member's objects to a build on their first
        read (:meth:`_HostColumns.defer`): a caller that reads no node
        never builds one."""
        node = member._node_list[0]
        if node._poll_ttl is not None:
            first = sum(len(each._node_list) for each in self.members[: self.members.index(member)])
            hosts = slice(first, first + len(member._node_list))
            _settle_polls(member._ctx, self.columns, horizon, hosts)
        self.finished += 1
        if self.finished == len(self.members):
            if node._reacts:
                self.flush(horizon)
            self.columns.defer()
            self.batch = self.prelude = None

    @staticmethod
    def key(member: _Member) -> Tuple[Any, ...]:
        """What replays must share to be one unit: the trace's index, the
        flush schedule and horizon, the read stride of their groups and the
        cost constants.  Reactive replays share a flush schedule by their
        bound; a TTL replay has none — its one cut is the whole trace — so
        TTL replays of any bound share their policy's kernel instead."""
        ctx = member._ctx
        node = member._node_list[0]
        schedule = ctx.bound if node._reacts else type(node.policy)
        return (
            id(ctx.index), schedule, member.duration, member._stride, ctx.serve_const,
            ctx.miss_const, ctx.invalidate_const, ctx.update_const, ctx.default_value_size,
        )

    @staticmethod
    def parts(members: List[_Member]) -> List[List[_Member]]:
        """The units ``members`` of one key form.  A reactive unit bounds
        what it holds by its windows of cuts; a TTL unit has one cut, so it
        splits by members instead: each part stacks at most
        :data:`_STACKED_GROUPS` rows of the key table times its hosts (and
        at least one member)."""
        if members[0]._node_list[0]._reacts:
            return [members]
        keys = len(members[0].trace.key_names)
        parts: List[List[_Member]] = [[]]
        hosts = 0
        for member in members:
            size = len(member._node_list)
            if parts[-1] and (hosts + size) * keys > _STACKED_GROUPS:
                parts.append([])
                hosts = 0
            parts[-1].append(member)
            hosts += size
        return parts


def replay_in_lockstep(replays: Sequence[Generator[Any, None, Any]]) -> List[Any]:
    """Step ``replays`` (:meth:`SpanReplay.replay` generators) round-robin,
    one window of cuts each in turn, until every one has returned; their
    results, in order.

    A columnar replay's first step offers its engine; the write-reactive
    engines offered that replay one trace under one flush schedule, with
    one read stride, are stacked into one unit (:class:`_Lockstep`), whose
    kernel call per window serves all of them, and so are the TTL engines
    of one trace, policy and read stride, at any bound, whose one kernel
    call replays the whole trace for all of them (split by members past
    the stacking budget: :meth:`_Lockstep.parts`).  Replays that step
    together also find each cut in the
    trace's span table, built in a batch by the first lookup: the batch and
    each fleet shape's routing are built once for all of them.
    A replay that leaves the envelope replays scalar at its first step and
    joins no unit.  The members' states are disjoint, so the order of the
    steps changes no result.
    """
    results: List[Any] = [None] * len(replays)
    live = list(enumerate(replays))
    while live:
        stepping, live = live, []
        units: dict = {}
        for position, replay in stepping:
            try:
                offered = next(replay)
            except StopIteration as done:
                results[position] = done.value
            else:
                live.append((position, replay))
                if offered is not None:
                    units.setdefault(_Lockstep.key(offered), []).append(offered)
        for members in units.values():
            for part in _Lockstep.parts(members):
                _Lockstep(part)
    return results
