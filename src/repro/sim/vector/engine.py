"""The columnar ``run()`` of both engines (:class:`SpanReplay`) and the
single cache's engine (:class:`VectorSimulation`)."""

from __future__ import annotations

from typing import Any, Generator, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult
from repro.sim.simulation import Simulation
from repro.sim.vector.columns import (
    _commit_trace_writes, _GroupBlock, _PreludeBlock, _ReplayContext,
)
from repro.sim.vector.envelope import ENVELOPE, EnvelopeRow, envelope_exit
from repro.sim.vector.lockstep import _Lockstep, _walk_spans, replay_in_lockstep
from repro.workload.base import order_error
from repro.workload.compiled import CompiledTrace, CutBatch

#: Table bytes charged per group of a :class:`_PreludeBlock`, write runs and
#: first observations included: up to fourteen 8-byte slots a group.
_PRELUDE_GROUP_BYTES = 112


class SpanReplay:
    """The columnar ``run()`` of both engines, mixed in front of a scalar driver.

    Inside the engine's envelope (``_envelope``) each window of cuts runs
    one kernel call for every host, with the driver's due work after it and
    its finalize at the end; outside it the driver's own ``run()`` replays.
    Every columnar replay is a member of a lockstep unit (:class:`_Lockstep`,
    a unit of one when stepped alone), which keeps its
    hosts' state in :class:`_HostColumns` from the first cut to the nodes'
    end of run — the interval flush (:meth:`_flush_nodes`), the trailing
    flush at the horizon and TTL-polling's settle run on them too
    (:meth:`_Lockstep.finish`) — and then leaves the objects to a build on
    their first read; the replay then commits the trace's writes, their histories deferred
    (:func:`_commit_trace_writes`), and the driver's finalize only records
    the end on each node (:meth:`_settle_nodes`).  The defaults
    are the single cache's (one host, the whole cut, unrouted); the fleet
    supplies ``_route_trace`` / ``_route_batch``.
    """

    _envelope: Tuple[EnvelopeRow, ...] = ENVELOPE
    #: The fleet shape a cut's groups and kernel prelude are memoised under
    #: (``None``: the single cache's, unrouted).
    _shape = None
    #: How far apart a group's reads lie in the key's read column.
    _stride = 1

    def __init__(self, trace: CompiledTrace, *args, **kwargs) -> None:
        if not isinstance(trace, CompiledTrace):
            raise ConfigurationError(
                f"{type(self).__name__} requires a CompiledTrace; use "
                "compile_workload(workload, duration) first"
            )
        self.trace = trace
        super().__init__(trace, *args, **kwargs)
        self.used_vector_path = False
        self._fallback_reason: Optional[str] = None
        #: The lockstep unit whose columns hold the hosts' state, while they do.
        self._unit: Optional[_Lockstep] = None

    @property
    def fallback_reason(self) -> Optional[str]:
        """Name of the envelope row that put ``run()`` on the scalar path;
        ``None`` when the vector path ran (and before ``run()``)."""
        return self._fallback_reason

    def vector_eligible(self) -> bool:
        """Whether no row of the envelope holds for this configuration (see
        "What runs where" in docs/guides/performance.md)."""
        return envelope_exit(self._envelope, self, self._node_list) is None

    def run(self, *args, **kwargs):
        """Replay the trace; vectorized inside the envelope, scalar otherwise.
        Takes what :meth:`replay` takes."""
        return replay_in_lockstep([self.replay(*args, **kwargs)])[0]

    def replay(self, *args, **kwargs) -> Generator[Any, None, Any]:
        """:meth:`run`, one window of cuts at a time: a generator that yields
        after each window and returns the result.  Its first step yields the engine,
        offering it to :func:`replay_in_lockstep`'s unit.
        The arguments are the scalar driver's ``run()``'s; outside the
        envelope that ``run()`` replays the whole trace at the first step."""
        row = envelope_exit(self._envelope, self, self._node_list, *args, **kwargs)
        if row is not None:
            self._fallback_reason = row.name
            return super().run(*args, **kwargs)
        self._spend()
        self.used_vector_path = True
        self._start("vector")
        yield from self._run_spans()
        return self._finalize()

    def _run_spans(self) -> Iterator[Any]:
        """Replay the trace a window of spans at a time, yielding after each;
        the driver's due work runs after each window, exactly where the
        scalar loop would run it."""
        trace = self.trace
        if len(trace) == 0:
            return
        index = trace.index()
        if not index.time_ordered:
            # Same contract as the scalar loop's ordering check.
            raise order_error(trace.times)
        self._route_trace()
        self._ctx = _ReplayContext.for_node(trace, index, self._node_list[0])
        yield self
        if self._unit is None:
            _Lockstep([self])
        unit = self._unit
        yield from _walk_spans(self, unit)
        self.clock.advance_to(float(trace.times[-1]))
        # The flushes up to the horizon (finalize's first step) and the
        # nodes' end of run still run on the columns; once every member has
        # run its flushes, the objects are left to a build on their first
        # read, and then the trace's writes are committed, their histories
        # deferred.
        horizon = max(self.duration, self.clock.now)
        self._advance(horizon)
        unit.finish(self, horizon)
        while unit.finished < len(unit.members):
            yield
        self._unit = None
        _commit_trace_writes(self._ctx)

    def _flush_nodes(self, time: float) -> None:
        """The interval boundary: on the unit's columns while they hold the
        hosts' state, the nodes' own flush otherwise."""
        if self._unit is None:
            super()._flush_nodes(time)
        else:
            self._unit.flush(time)

    def _settle_nodes(self, end_time: float) -> None:
        """The nodes' end of run.  After a columnar replay the unit has
        flushed and settled its hosts at the horizon on its columns
        (:meth:`_Lockstep.finish`), so each node only records the end."""
        if not self.used_vector_path:
            super()._settle_nodes(end_time)
            return
        for node in self._node_list:
            node.record_end(end_time)

    def _route_trace(self) -> None:
        """Route the trace before the first span (the single cache: nothing to route)."""

    def _group_block(self, batch: CutBatch) -> _GroupBlock:
        """The hosts' groups of every cut of ``batch``, from the span table
        (built for the whole batch on first use)."""
        return self._ctx.index.routed(batch, ("groups", self._shape), self._route_batch)

    def _route_batch(self, batch: CutBatch) -> Tuple[_GroupBlock, int]:
        """Group a batch's cuts by host, with the table bytes of the groups.
        The single cache's one host has every key of a cut with all its
        reads, and it counts every write."""
        keys, read_lo, read_hi, write_lo, write_hi = batch.columns
        sizes = np.diff(batch.offsets)
        block = _GroupBlock(
            keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi,
            np.zeros(keys.size, dtype=np.int64), 1, batch.offsets,
            np.stack((np.zeros_like(sizes), sizes), axis=1), np.array(batch.writes)[:, None],
        )
        return block, 16 * keys.size

    def _prelude_block(self, batch: CutBatch) -> _PreludeBlock:
        """The kernel prelude of every cut of ``batch`` on this replay's
        hosts, from the span table."""
        ctx = self._ctx

        def build(batch: CutBatch) -> Tuple[_PreludeBlock, int]:
            block = self._group_block(batch)
            prelude = _PreludeBlock(ctx.trace, ctx.index, block)
            return prelude, _PRELUDE_GROUP_BYTES * block.keys.size

        return ctx.index.routed(batch, ("prelude", self._shape), build)


class VectorSimulation(SpanReplay, Simulation):
    """Drop-in :class:`Simulation` that replays a compiled trace in spans.

    Accepts the same configuration as :class:`Simulation` but takes a
    :class:`~repro.workload.compiled.CompiledTrace` instead of a request
    iterable.  ``run()`` picks the vectorized path when the configuration is
    inside the vectorizable envelope (:data:`ENVELOPE`, see
    :meth:`~SpanReplay.vector_eligible`) and otherwise replays the trace's
    column chunks through the scalar loop — either way the results are
    byte-identical to the scalar engine.
    """

    def replay(self) -> Generator[Any, None, SimulationResult]:
        """:meth:`SpanReplay.replay`, and so ``run()``, take what
        :meth:`Simulation.run` takes: nothing (a kill point is the fleet's)."""
        return super().replay()
