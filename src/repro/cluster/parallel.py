"""Shard-parallel cluster replay: one worker process per node partition.

Because fleet nodes never message each other — they interact only through
the shared datastore, the hash ring, and the deterministic read router — a
cluster replay decomposes along *node* lines: each shard rebuilds the full
fleet and advances the shared state exactly like a full run (datastore
writes, router counters, scenario events, ring membership), but performs
cache work only for the nodes it owns (``ClusterSimulation(owned_nodes=...)``).
Each owned node's :class:`~repro.cluster.results.NodeResult` row is then
byte-identical to the same row of a full single-process run, so the merge
just reassembles the per-node rows and re-finalises the totals — results are
identical for any worker count, including 1.

On the vector path what the shards share is computed once, before they
exist: the caller indexes and routes the trace and fills its span table with
every cut of the replay (per-key slices, write batches, each node's groups
and kernel prelude), so a shard only applies the write batches and runs its
own nodes' kernels.  :func:`repro.fanout.fork_each` then runs the shards: the
trace and everything memoised on it reach the workers by ``fork`` inheritance
(no per-task serialization), the caller is a shard itself (``workers=N`` forks
``N - 1`` children), a shard that raises is re-raised as its own type and one
that dies is a :class:`~repro.errors.ClusterError`.  On platforms without
``fork`` the shards run sequentially in-process, slower but still
byte-identical; on the scalar-fallback path every shard streams the trace.
"""

from __future__ import annotations

import time as time_module
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.results import ClusterResult
from repro.cluster.vector import VectorClusterSimulation
from repro.errors import ClusterError
from repro.fanout import fork_each
from repro.obs.recorder import ObsConfig, merge_payloads
from repro.workload.compiled import CompiledTrace


def partition_nodes(num_nodes: int, workers: int) -> List[Tuple[int, ...]]:
    """Round-robin node indices across ``workers`` shards.

    Striding (instead of contiguous blocks) keeps shard load even under the
    ring's placement skew.  Partition 0 always owns node 0, which the merge
    uses as its result template.
    """
    if num_nodes < 1:
        raise ClusterError(f"num_nodes must be >= 1, got {num_nodes}")
    if workers < 1:
        raise ClusterError(f"workers must be >= 1, got {workers}")
    shards = min(workers, num_nodes)
    return [tuple(range(shard, num_nodes, shards)) for shard in range(shards)]


def replay_cluster_parallel(
    trace: CompiledTrace,
    *,
    workers: int = 1,
    timings: Optional[Dict[str, float]] = None,
    **cluster_kwargs,
) -> ClusterResult:
    """Replay a compiled trace across the fleet on ``workers`` processes.

    Args:
        trace: The compiled request stream (shared by every shard).
        workers: Worker process count; clamped to the fleet size.  ``0`` or
            ``1`` replays in-process with no partitioning overhead; a negative
            count is a :class:`ClusterError`.
        timings: Optional dict that receives ``merge_seconds`` (the wall time
            of the deterministic shard merge; ``0.0`` when nothing merged).
        **cluster_kwargs: Forwarded to :class:`VectorClusterSimulation` /
            :class:`~repro.cluster.cluster.ClusterSimulation` — ``policy``
            must be a registry *name* (worker processes cannot be handed live
            policy objects); what ``workers > 1`` cannot replay is refused by
            :func:`~repro.cluster.cluster.check_fleet` before anything forks.

    Returns:
        The merged :class:`~repro.cluster.results.ClusterResult`,
        byte-identical for any worker count.
    """
    if "owned_nodes" in cluster_kwargs:
        raise ClusterError(
            "owned_nodes is managed by replay_cluster_parallel; pass workers=N"
        )
    num_nodes = int(cluster_kwargs.get("num_nodes", 0))
    if num_nodes < 1:
        raise ClusterError("replay_cluster_parallel needs num_nodes >= 1")
    if workers < 0:
        raise ClusterError(f"workers must be >= 0, got {workers}")
    workers = min(int(workers), num_nodes)
    if workers <= 1:
        simulation = VectorClusterSimulation(trace, **cluster_kwargs)
        result = simulation.run()
        if timings is not None:
            timings["merge_seconds"] = 0.0
        return result
    if not isinstance(cluster_kwargs.get("policy"), str):
        raise ClusterError(
            "parallel replay ships the policy to workers by registry name; "
            "pass policy as a string"
        )
    obs = cluster_kwargs.get("obs")
    if obs is not None and not isinstance(obs, ObsConfig):
        raise ClusterError(
            "parallel replay needs obs as an ObsConfig: every shard builds "
            "its own recorder from it and the merge combines the payloads"
        )

    partitions = partition_nodes(num_nodes, workers)
    # The planner is shard 0's twin, so building it asks check_fleet() what
    # every worker's construction would: what shards cannot replay is refused
    # here, in the parent, before anything forks.  It then indexes and routes
    # the trace and fills its span table with every cut this replay makes (a
    # no-op when an earlier replay of this trace on this fleet shape already
    # did), so the shared-state work is done once and the forked shards
    # inherit it copy-on-write.  On the scalar-fallback path workers route
    # as they stream.
    planner = VectorClusterSimulation(trace, owned_nodes=partitions[0], **cluster_kwargs)
    if planner.vector_eligible():
        planner.share_spans()

    def replay_shard(owned: Tuple[int, ...]) -> ClusterResult:
        return VectorClusterSimulation(trace, owned_nodes=owned, **cluster_kwargs).run()

    shard_results = fork_each(
        replay_shard,
        partitions,
        lambda owned: f"the shard worker replaying nodes {list(owned)}",
        ClusterError,
    )

    merge_start = time_module.perf_counter()
    result = _merge_shard_results(partitions, shard_results)
    if timings is not None:
        timings["merge_seconds"] = time_module.perf_counter() - merge_start
    return result


def _merge_shard_results(
    partitions: Sequence[Tuple[int, ...]], shard_results: Sequence[ClusterResult]
) -> ClusterResult:
    """Reassemble per-shard node rows into one fleet result.

    Shard 0's result is the template (it owns node 0, and every shard agrees
    on the run metadata — duration, rebalances, scenario — because each one
    advanced the full shared timeline).  Each node row is taken from the
    shard that owned the node, then the totals are re-finalised, which walks
    the rows in node order exactly like a single-process finalize.
    """
    merged = shard_results[0]
    nodes = merged.nodes
    for owned, shard in zip(partitions[1:], shard_results[1:]):
        for index in owned:
            nodes[index] = shard.nodes[index]
        if merged.obs is not None and shard.obs is not None:
            # Shard 0 recorded the global events (it owns node 0); the other
            # shards contribute their owned nodes' windows, spans, and
            # metrics.  Windows stay per-node until export, so the merged
            # series is byte-identical to a single-process run.
            merged.obs = merge_payloads(merged.obs, shard.obs)
    merged.finalize()
    return merged
