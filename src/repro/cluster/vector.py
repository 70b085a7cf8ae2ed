"""Vectorized (columnar) replay of a compiled trace across a cache fleet.

:class:`VectorClusterSimulation` is the fleet twin of
:class:`~repro.sim.vector.VectorSimulation`: the same span loop
(:class:`~repro.sim.vector.SpanReplay`) over a
:class:`~repro.workload.compiled.CompiledTrace`, plus routing.  This module
routes each span's reads to replicas with the exact scalar routing rules
(primary / hash / round-robin, including the per-key round-robin counters)
and hands each **node** its share of the span — one group of columns, cut
from the span with masks and stride arithmetic — for one call of the same
span kernel the single cache uses.  Every node's cache, buffer, tracker, and
estimator are real objects, and all simulation *events* (interval flushes,
freshness message fan-out, delivery, finalisation) run through the one
driver's due work and the unmodified :class:`~repro.sim.node.CacheNode`
machinery between spans.

The byte-identity argument carries over from the single-cache engine because
nodes never talk to each other — they interact only through the shared
datastore, the hash ring, and the read router:

* a node's observable inputs are the global write stream (identical once the
  span's writes are pre-applied) plus the subsequence of reads routed to it,
  and routing is deterministic and independent of node-local cache state;
* within one (node, key) group the single-cache kernel invariants hold
  unchanged — spans never outlive a staleness interval, miss versions are
  positional against the *global* write columns, and per-node tallies replay
  order-sensitive effects position-sorted;
* the kernels only mutate node-local state plus two order-free global
  accumulators (``DataStore.total_writes``/``total_reads``), so the order in
  which nodes' kernels run within a span is immaterial.

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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.results import ClusterResult
from repro.cluster.scenarios import Scenario
from repro.errors import ClusterError
from repro.sim.vector import ENVELOPE, EnvelopeRow, Groups, SpanReplay
from repro.sketch.hashing import stable_fingerprint
from repro.workload.compiled import CompiledTrace, SpanFacts, TraceIndex


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
    replay is routing: the trace-wide plan and each cut's per-node groups.
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
        # The vector path never consults the read router mid-run (there are
        # no checkpoints without a store); leave it where the scalar loop
        # would.
        self.router._round_robin.update(plan.round_robin)

    def _node_groups(self, facts: SpanFacts) -> List[Tuple[Optional[Groups], int]]:
        """Route one cut: ``(groups, primary_writes)`` per node, from the span table.

        A node's groups are the span keys it is a replica of and serves
        reads of or receives writes for (``None`` when there are none) — a
        (node, key) with both is ONE group (the miss/buffer/estimator
        interleaving is per (node, key)).  Under round-robin a read's replica
        column is its global per-key read rank mod the replica count
        (counters start at zero), so each replica's reads are a stride of
        the key's run.  ``primary_writes`` counts the span writes of the keys
        the node is primary of: only the primary counts a write in its
        result, like ``observe_write(owner=True)``.  Routing knows no policy,
        so one entry per fleet shape serves every replay.
        """
        return self._ctx.index.routed(facts, self._shape, lambda: self._route_span(facts))

    def _route_span(self, facts: SpanFacts) -> Tuple[List[Tuple[Optional[Groups], int]], int]:
        keys, read_lo, read_hi, write_lo, write_hi = facts.columns
        plan = self._plan
        replicas = plan.replicas[keys]
        num_writes = write_hi - write_lo
        width = replicas.shape[1]
        if plan.rotates:
            stride = width
            rank = read_lo - self._ctx.index.read_offsets[keys]
        else:
            stride = 1
            num_reads = read_hi - read_lo
            read_slot = plan.read_slot[keys]
        routed: List[Tuple[Optional[Groups], int]] = []
        nbytes = 0
        for node_idx in range(len(self._node_list)):
            holds = replicas == node_idx
            slot = holds.argmax(axis=1)
            if plan.rotates:
                first = read_lo + (slot - rank) % width
                count = (read_hi - first + (width - 1)) // width
            else:
                first = read_lo
                count = np.where(slot == read_slot, num_reads, 0)
            mine = (holds.any(axis=1) & ((count > 0) | (num_writes > 0))).nonzero()[0]
            groups = None
            if mine.size:
                groups = (keys[mine], first[mine], count[mine], stride, write_lo[mine], write_hi[mine])
                nbytes += 5 * mine.nbytes
            routed.append((groups, int(num_writes[holds[:, 0]].sum())))
        return routed, nbytes


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
