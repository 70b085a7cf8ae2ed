"""Vectorized (columnar) replay of a compiled trace across a cache fleet.

:class:`VectorClusterSimulation` is the fleet twin of
:class:`~repro.sim.vector.VectorSimulation`: the same span loop
(:class:`~repro.sim.vector.SpanReplay`) over a
:class:`~repro.workload.compiled.CompiledTrace`, plus routing.  This module
routes each span's reads to replicas with the exact scalar routing rules
(primary / hash / round-robin, including the per-key round-robin counters)
into **one** table of groups per cut, ordered by (node, key) with per-node
bounds — built for a whole batch of cuts at once with array operations over
every (cut, key, replica) triple and stride arithmetic — and hands it to
**one** call of the same kernel the single cache uses (the single cache is
the one-node table): the span kernel per cut, or a TTL kernel once for the
whole trace.  The kernel does its numpy work once for the whole fleet, into
each node's own tally.  Under every policy each node's cache, buffer,
tracker and estimator live in the rows of one column table (row ``key *
nodes + node``, :class:`~repro.sim.vector.columns._HostColumns`) from the first cut
to the last boundary flush, and under a write-reactive one the driver's
interval flush drains, decides and applies for every node at once on those
columns; then the objects are written back and the driver's unmodified
finalize and :class:`~repro.sim.node.CacheNode` machinery run on them.

The byte-identity argument carries over from the single-cache engine because
nodes never talk to each other — they interact only through the shared
datastore, the hash ring, and the read router:

* a node's observable inputs are the global write stream (positions in the
  global write columns) plus the subsequence of reads routed to it, and
  routing is deterministic and independent of node-local cache state;
* within one (node, key) group the single-cache kernel invariants hold
  unchanged — spans never outlive a staleness interval, miss and update
  versions are positional against the *global* write columns, and each
  node's dict orders are the stream positions its rows record;
* the kernels and the columnar flush only mutate node-local rows plus
  order-free global accumulators (``DataStore.total_reads``), so doing every
  node's work at once changes nothing; counters and costs still fold node by
  node, and each node's dict orders are positions in its own rows, so rows,
  dict orders and float accumulation orders are each node's own.

A fleet replays in one process.  Splitting its nodes over worker processes
splits only the per-node kernels — every worker would still commit every
write batch and walk the whole due-work schedule — so on two cores it cost
1.5–2.3x the CPU and bought wall time only on traces ten times the
benchmark's (docs/guides/performance.md, "One process per fleet").
:func:`replay_cluster_parallel` keeps the entry point and its ``workers``
argument for its callers.

Configurations outside the vectorizable envelope — a row of
:data:`FLEET_ENVELOPE` holds for them — transparently fall back to the scalar
cluster loop over the trace's column chunks — identical by construction, just
slower — and ``fallback_reason`` names the row.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.results import ClusterResult
from repro.cluster.scenarios import Scenario
from repro.errors import ClusterError
from repro.sim.vector import ENVELOPE, EnvelopeRow, SpanReplay
from repro.sim.vector.columns import _GroupBlock
from repro.sketch.hashing import stable_fingerprint
from repro.workload.compiled import CompiledTrace, CutBatch, TraceIndex


#: The fleet engine's envelope: the rows only a fleet can trip, asked before
#: the ones it shares with the single cache (:data:`repro.sim.vector.ENVELOPE`).
FLEET_ENVELOPE: Tuple[EnvelopeRow, ...] = (
    EnvelopeRow(
        "scenario", "fleet",
        "a scenario scripts membership and traffic changes; the kernels assume steady state",
        lambda engine, stop_at: type(engine.scenario) is not Scenario,
    ),
    EnvelopeRow(
        "chaos", "fleet",
        "a fault plan mutates channels and nodes mid-run; the kernels assume a static, ideal fleet",
        lambda engine, stop_at: engine.chaos is not None,
    ),
    EnvelopeRow(
        "stop-at", "fleet",
        "a kill point checkpoints and stops mid-trace; the kernels replay whole spans to the end",
        lambda engine, stop_at: stop_at is not None,
    ),
) + ENVELOPE


class _ClusterPlan:
    """Trace-wide routing shared by every replay of a trace on one fleet shape.

    A pure function of the compiled trace and the cluster *configuration*
    (ring placement, replication, read policy) — no node state — so it is
    built once, memoised on the trace's index under that configuration, and
    reused by every policy's replay.

    Attributes:
        replicas: ``num_keys x replicas`` matrix of node indices, primary
            first; rows of keys that never occur in the trace hold ``-1``.
        read_slot: Per key, the column of ``replicas`` serving all the key's
            reads (the primary, or the static hash choice); unused when
            reads rotate.
        rotates: Whether reads rotate round-robin over a key's replicas by
            per-key read rank.
        round_robin: Key name -> the read router's end-of-run counter (the
            key's read count) under round-robin; empty otherwise.
    """

    __slots__ = ("replicas", "read_slot", "rotates", "round_robin")

    def __init__(
        self,
        replicas: np.ndarray,
        read_slot: np.ndarray,
        rotates: bool,
        round_robin: Dict[str, int],
    ) -> None:
        self.replicas = replicas
        self.read_slot = read_slot
        self.rotates = rotates
        self.round_robin = round_robin


class VectorClusterSimulation(SpanReplay, ClusterSimulation):
    """Drop-in :class:`ClusterSimulation` that replays a compiled trace in spans.

    Accepts the same configuration as :class:`ClusterSimulation` but takes a
    :class:`~repro.workload.compiled.CompiledTrace` instead of a request
    iterable.  ``run()`` (:class:`~repro.sim.vector.SpanReplay`) picks the
    vectorized path when the configuration is inside the vectorizable
    envelope (:data:`FLEET_ENVELOPE`) and otherwise replays the trace's column
    chunks through the scalar fleet loop — either way the results are
    byte-identical to the scalar engine.  What the fleet adds to the span
    replay is routing: the trace-wide plan and each cut's table of groups.
    """

    _envelope = FLEET_ENVELOPE

    # ------------------------------------------------------------------ #
    # Trace-wide routing plan
    # ------------------------------------------------------------------ #
    def build_plan(self) -> _ClusterPlan:
        """The routing plan of this trace on this fleet shape, built once.

        Routing is a pure function of the static ring, the replication
        config, and the read stream — independent of any node's cache state —
        so one pass over the trace's *keys* routes every request: a key's
        reads all go to one replica (primary / hash) or rotate by read rank
        (round-robin), which the span replay takes as strided runs of the
        key's read column.  The plan is memoised on the trace's index, so
        every replay of the trace on the same fleet shape (each policy, each
        sweep cell) shares it.
        """
        index = self.trace.index()
        shape = (
            tuple(node.node_id for node in self._node_list),
            self.ring.vnodes,
            self._factor,
            self.replication.read_policy,
        )
        self._shape = shape
        plan = index.plans.get(shape)
        if plan is None:
            plan = index.plans[shape] = self._route_keys(index)
        return plan

    def _route_keys(self, index: TraceIndex) -> _ClusterPlan:
        node_index = {
            node.node_id: position for position, node in enumerate(self._node_list)
        }
        names = self.trace.key_names
        width = min(self._factor, len(self._node_list))
        rotates = width > 1 and self.replication.read_policy == "round-robin"
        hash_reads = width > 1 and self.replication.read_policy == "hash"
        replicas = np.full((len(names), width), -1, dtype=np.int64)
        read_slot = np.zeros(len(names), dtype=np.int64)
        round_robin: Dict[str, int] = {}
        read_counts = np.diff(index.read_offsets)
        occurring = np.flatnonzero(read_counts + np.diff(index.write_offsets))
        for key_id, reads in zip(occurring.tolist(), read_counts[occurring].tolist()):
            name = names[key_id]
            replicas[key_id] = [
                node_index[node_id] for node_id in self._route(name, self._factor)
            ]
            if hash_reads:
                read_slot[key_id] = stable_fingerprint(name + "#read") % width
            elif rotates and reads:
                # The scalar router bumps the counter once per routed read.
                round_robin[name] = reads
        return _ClusterPlan(replicas, read_slot, rotates, round_robin)

    # ------------------------------------------------------------------ #
    # Span replay
    # ------------------------------------------------------------------ #
    def _route_trace(self) -> None:
        plan = self._plan = self.build_plan()
        self._stride = plan.replicas.shape[1] if plan.rotates else 1
        # The vector path never consults the read router mid-run (there are
        # no checkpoints without a store); leave it where the scalar loop
        # would.
        self.router._round_robin.update(plan.round_robin)

    def _route_batch(self, batch: CutBatch) -> Tuple[_GroupBlock, int]:
        """Route every cut of a batch at once: the fleet's groups of each cut
        and each node's primary writes, with the table bytes of the groups.

        A node's groups are the span keys it is a replica of and serves
        reads of or receives writes for — a (node, key) with both is ONE
        group (the miss/buffer/estimator interleaving is per (node, key)).
        Under round-robin a read's replica column is its global per-key read
        rank mod the replica count (counters start at zero), so each
        replica's reads are a stride of the key's run.  A node counts the
        span writes of the keys it is primary of: only the primary counts a
        write in its result, like ``observe_write(owner=True)``.  Routing
        knows no policy, so one entry per batch and fleet shape serves every
        replay.
        """
        keys, read_lo, read_hi, write_lo, write_hi = batch.columns
        plan = self._plan
        nodes = len(self._node_list)
        cuts = len(batch.cuts)
        cut = np.repeat(np.arange(cuts), np.diff(batch.offsets))
        # Every (key, replica column) pair at once: a key's replicas are
        # distinct nodes, so each pair is one candidate (node, key) group.
        replicas = plan.replicas[keys]
        width = replicas.shape[1]
        column = np.arange(width)
        num_reads = read_hi - read_lo
        num_writes = write_hi - write_lo
        if plan.rotates:
            # A replica's first span read is ``offset`` reads into the key's run.
            rank = read_lo - self._ctx.index.read_offsets[keys]
            offset = (column - rank[:, None]) % width
            count = (num_reads[:, None] - offset + (width - 1)) // width
        else:
            count = np.where(column == plan.read_slot[keys][:, None], num_reads[:, None], 0)
        pairs = ((count > 0) | (num_writes > 0)[:, None]).ravel().nonzero()[0]
        node = replicas.ravel()[pairs]
        row = pairs // width
        # Cut-major, key-major pairs, stably sorted by (cut, node): (cut,
        # node, key) order.
        cell = cut[row] * nodes + node
        order = np.argsort(cell.astype(np.min_scalar_type(cuts * nodes)), kind="stable")
        row, column = np.divmod(pairs[order], width)
        first = read_lo[row]
        if plan.rotates:
            first += offset[row, column]
        bounds = np.zeros((cuts, nodes + 1), dtype=np.int64)
        np.cumsum(
            np.bincount(cell, minlength=cuts * nodes).reshape(cuts, nodes), axis=1,
            out=bounds[:, 1:],
        )
        primary_writes = np.bincount(
            cut * nodes + replicas[:, 0], weights=num_writes, minlength=cuts * nodes
        )
        block = _GroupBlock(
            keys[row],
            first,
            count[row, column],
            self._stride,
            write_lo[row],
            write_hi[row],
            node[order],
            nodes,
            [0, *np.cumsum(bounds[:, -1]).tolist()],
            bounds,
            primary_writes.astype(np.int64).reshape(cuts, nodes),
        )
        return block, 48 * row.size


def replay_cluster_parallel(
    trace: CompiledTrace,
    *,
    workers: int = 1,
    timings: Optional[Dict[str, float]] = None,
    **cluster_kwargs,
) -> ClusterResult:
    """Replay a compiled trace across the fleet: ``VectorClusterSimulation(trace,
    **cluster_kwargs).run()``.

    ``workers`` is validated (a negative count is a :class:`ClusterError`)
    and otherwise ignored: the fleet replays in this process whatever its
    value.  Worker processes could split only the per-node kernels, about a
    third of a replay, while each one repeated the write batches and the
    due-work schedule, so two workers lost to one at the benchmark's size
    and cost more CPU at every size measured (see the module docstring).
    ``timings`` receives ``merge_seconds = 0.0``, as there is nothing to
    merge.  ``num_nodes`` is required.
    """
    if int(cluster_kwargs.get("num_nodes", 0)) < 1:
        raise ClusterError("replay_cluster_parallel needs num_nodes >= 1")
    if workers < 0:
        raise ClusterError(f"workers must be >= 0, got {workers}")
    result = VectorClusterSimulation(trace, **cluster_kwargs).run()
    if timings is not None:
        timings["merge_seconds"] = 0.0
    return result
