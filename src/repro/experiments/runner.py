"""Parallel execution of experiment grids.

Each :class:`~repro.experiments.spec.RunCell` is an independent simulation, so
a grid parallelises trivially across a :mod:`multiprocessing` pool.  Workers
regenerate their cell's workload from its deterministic seed and *stream* it
into the simulator, so even very long traces never materialize — per-worker
memory stays constant regardless of trace length.  Vector-engine cells
compile the workload instead, and the cells of a grid that replay the same
trace (every policy and staleness bound of one workload) are dispatched
together so they share one compile and one trace index.

Results come back as plain dictionaries (cell coordinates merged with the
:meth:`~repro.sim.results.SimulationResult.as_dict` counters), sorted by cell
id, so serial and parallel execution produce byte-identical outputs.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cluster import (
    ClusterSimulation,
    HotKeyConfig,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
)
from repro.experiments.registry import make_cost_model, make_policy, make_workload
from repro.experiments.spec import ExperimentSpec, RunCell
from repro.obs.recorder import ObsConfig
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.base import Workload
from repro.workload.compiled import CompiledTrace, compile_workload

_LOG = logging.getLogger(__name__)

#: Compiled traces of one batch of cells, by :func:`_trace_key`.
_Traces = Dict[Tuple[Any, ...], CompiledTrace]


@contextmanager
def _cell_store(cell: RunCell) -> Iterator[Optional[StoreConfig]]:
    """Yield a scratch-directory store config for persistent cells.

    The directory is deleted after the run: the row keeps only the
    deterministic store counters, so results stay byte-identical regardless
    of where the scratch space lived or how many workers ran the grid.
    """
    if not cell.persistence:
        yield None
        return
    with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
        yield StoreConfig(root=root, snapshot_interval=cell.snapshot_interval)


def _trace_key(cell: RunCell) -> Tuple[Any, ...]:
    """Cells equal here replay the same request stream."""
    return (cell.workload, cell.workload_params, cell.seed, cell.duration)


def _compiled(cell: RunCell, workload: Workload, traces: _Traces) -> CompiledTrace:
    key = _trace_key(cell)
    trace = traces.get(key)
    if trace is None:
        trace = traces[key] = compile_workload(workload, cell.duration)
    return trace


def run_cell(cell: RunCell, traces: Optional[_Traces] = None) -> Dict[str, Any]:
    """Execute one grid cell and return its flattened result row.

    The only place a :class:`RunCell` becomes a run.  Cells with ``num_nodes``
    set run a fleet (:class:`ClusterSimulation`), the rest the single-cache
    :class:`Simulation`; ``engine="vector"`` hands either one's columnar twin
    the compiled trace instead of the request stream (outside the vector
    envelope that twin replays through the inherited scalar loop, so rows
    equal a scalar sweep's either way).  Everything else — workload, costs,
    scratch store, obs, concurrency, row assembly, SLO verdict — is the same
    for all four.  ``traces`` carries the compiled traces of the vector-engine
    cells run before this one in the same batch, so cells replaying one trace
    compile and index it once; the row does not depend on it.
    """
    if traces is None:
        traces = {}
    fleet = cell.num_nodes is not None
    workload = make_workload(cell.workload, seed=cell.seed, params=dict(cell.workload_params))
    with _cell_store(cell) as store:
        arguments = _fleet_arguments(cell) if fleet else _single_cache_arguments(cell)
        arguments.update(
            staleness_bound=cell.staleness_bound,
            costs=make_cost_model(cell.cost_preset, dict(cell.cost_params)),
            cache_capacity=cell.cache_capacity,
            duration=cell.duration,
            workload_name=workload.name,
            store=store,
            obs=ObsConfig(window=cell.obs_window) if cell.obs_window is not None else None,
            # Seeded here (not in the spec): the axis value stays hashable and
            # seed-free for dedup, and every cell's service-time and XFetch
            # streams derive from the same seed as its workload.
            concurrency=(
                replace(cell.concurrency, seed=cell.seed)
                if cell.concurrency is not None
                else None
            ),
        )
        # The engine classes and compile_workload are read from the module at
        # call time: benchmarks/layers.py swaps them for tracing ones.
        if cell.engine == "vector":
            engine = VectorClusterSimulation if fleet else VectorSimulation
            simulation = engine(_compiled(cell, workload, traces), **arguments)
        else:
            engine = ClusterSimulation if fleet else Simulation
            simulation = engine(workload.iter_requests(cell.duration), **arguments)
        row = dict(cell.describe())
        row.update(simulation.run().as_dict())
        if not fleet:
            # A fleet's result carries its store counters and obs payload itself.
            if store is not None:
                row["store"] = simulation.store_stats()
            if simulation.obs is not None:
                row["obs"] = simulation.obs.payload()
    if cell.slo_rules is not None:
        # Strictly post-hoc: the obs payload is read, never mutated, and the
        # evaluation is deterministic, so verdicts are identical across any
        # ``--processes`` split and leave the rest of the row untouched.
        from repro.obs.slo import evaluate_slo

        row["slo"] = evaluate_slo(row["obs"], json.loads(cell.slo_rules))
    return row


def _single_cache_arguments(cell: RunCell) -> Dict[str, Any]:
    """What only :class:`Simulation` takes: a policy instance and a built channel."""
    return dict(
        policy=make_policy(cell.policy),
        channel=cell.channel.build(cell.seed) if cell.channel is not None else None,
    )


def _fleet_arguments(cell: RunCell) -> Dict[str, Any]:
    """What only :class:`ClusterSimulation` takes; it builds a policy and a
    channel per node from the name and the spec."""
    return dict(
        policy=cell.policy,
        channel=cell.channel,
        seed=cell.seed,
        num_nodes=cell.num_nodes,
        replication=ReplicationConfig(factor=cell.replication, read_policy=cell.read_policy),
        vnodes=cell.vnodes,
        zones=cell.zones,
        scenario=(
            make_scenario(cell.scenario.name, cell.scenario.params_dict())
            if cell.scenario is not None
            else None
        ),
        hotkey=(
            HotKeyConfig(hot_policy=cell.hot_policy, hot_fraction=cell.hot_fraction)
            if cell.hot_policy is not None
            else None
        ),
        # A zero-capacity config is normalised to "no tier" by the cluster, so
        # l1_capacity=0 cells replay the single-tier path byte-for-byte.
        tier=TierConfig(
            l1_capacity=cell.l1_capacity, mode=cell.tier_mode, admission=cell.tier_admission
        ),
        chaos=cell.chaos,
    )


def _batches(cells: List[RunCell], processes: int) -> List[List[RunCell]]:
    """Split a grid into tasks whose cells share their compiled trace.

    The vector-engine cells replaying one trace are dealt round-robin into
    up to ``processes`` batches — one compile and one index per batch, and a
    grid with fewer traces than workers still occupies every worker.  Scalar
    cells stream their workload, so each is its own task.
    """
    groups: Dict[Tuple[Any, ...], List[RunCell]] = {}
    singles: List[List[RunCell]] = []
    for cell in cells:
        if cell.engine == "vector":
            groups.setdefault(_trace_key(cell), []).append(cell)
        else:
            singles.append([cell])
    return [
        group[offset::processes]
        for group in groups.values()
        for offset in range(min(processes, len(group)))
    ] + singles


def _run_batch(cells: List[RunCell]) -> List[Dict[str, Any]]:
    traces: _Traces = {}
    return [run_cell(cell, traces) for cell in cells]


def run_experiment(
    spec: ExperimentSpec,
    processes: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run every cell of an experiment grid, optionally in parallel.

    Args:
        spec: The experiment grid to expand and execute.
        processes: Worker process count.  ``None`` picks ``min(cpu_count,
            number of cells)``; ``0`` or ``1`` runs serially in-process
            (useful for debugging and for platforms without ``fork``).

    Returns:
        One result row per cell, ordered by cell id regardless of the
        execution schedule.
    """
    cells = spec.expand()
    if processes is None:
        processes = min(os.cpu_count() or 1, len(cells))
    processes = max(processes, 1)
    _LOG.debug("experiment '%s': %d cells on %d process(es)",
               spec.name, len(cells), processes)
    batches = _batches(cells, processes)
    if processes == 1 or len(cells) <= 1:
        results = [_run_batch(batch) for batch in batches]
    else:
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(_run_batch, batches, chunksize=1)
    rows = [row for batch_rows in results for row in batch_rows]
    rows.sort(key=lambda row: row["cell_id"])
    return rows
