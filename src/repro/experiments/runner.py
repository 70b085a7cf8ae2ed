"""Parallel execution of experiment grids.

Each :class:`~repro.experiments.spec.RunCell` is an independent simulation, so
a grid parallelises trivially: :func:`repro.fanout.fork_each` deals its cells
across worker processes, the caller being one of them.  A scalar-engine cell
regenerates its workload from the cell's deterministic seed and *streams* it
into the simulator, so even very long traces never materialize — per-worker
memory stays constant regardless of trace length.  Vector-engine cells replay
a compiled trace instead: one with a cell for every worker (every policy and
staleness bound of one workload share it) is compiled and indexed once by the
caller, at most a worker count of them at a time, and the workers it then
forks inherit it; one with fewer is compiled by each worker that replays it.
The vector-engine cells of one trace and bound whose policy reacts to writes
are one unit, single cache and fleets alike: their engines step in lockstep,
one window of cuts each in turn, as one replay of their stacked hosts
(:func:`~repro.sim.vector.replay_in_lockstep`), so each cut of the trace
they share is built once, in a batch with the cuts after it, and each
window of cuts, its interval flushes included, is replayed by one kernel
call for all of them.  The vector-engine cells of one trace and TTL policy
are one unit at every bound: a TTL replay's one cut is the whole trace, so
one kernel call replays it for all of them.
Units are dealt to the workers by weight — their cuts times the hosts they
stack — heaviest first (:func:`_deal`).

Results come back as plain dictionaries (cell coordinates merged with the
:meth:`~repro.sim.results.SimulationResult.as_dict` counters), sorted by cell
id, so serial and parallel execution produce byte-identical outputs.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro import _facade
from repro.cluster.cluster import ClusterSimulation
from repro.cluster.hotkey import HotKeyConfig
from repro.cluster.replication import ReplicationConfig
from repro.cluster.scenarios import make_scenario
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.registry import make_cost_model, make_policy, make_workload
from repro.experiments.spec import ExperimentSpec, RunCell
from repro.fanout import fork_each
from repro.obs.recorder import ObsConfig
from repro.sim.simulation import Simulation
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.base import Workload
from repro.workload.compiled import CompiledTrace, compile_workload

_LOG = logging.getLogger(__name__)

#: The columnar engines, imported on their first read (:func:`_engine`).
__getattr__ = _facade(globals(), {
    "repro.sim.vector.engine": ("VectorSimulation",),
    "repro.cluster.vector": ("VectorClusterSimulation",),
})[1]
_RUNNER = sys.modules[__name__]

#: Compiled traces of one round of cells and their workloads' names, by
#: :func:`_trace_key`.
_Traces = Dict[Tuple[Any, ...], Tuple[CompiledTrace, str]]


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


def _workload(cell: RunCell) -> Workload:
    return make_workload(cell.workload, seed=cell.seed, params=dict(cell.workload_params))


def _compiled(cell: RunCell, traces: _Traces) -> Tuple[CompiledTrace, str]:
    """The cell's compiled trace and its workload's name, from ``traces``:
    the workload is built and compiled only when they are not there yet."""
    key = _trace_key(cell)
    compiled = traces.get(key)
    if compiled is None:
        workload = _workload(cell)
        compiled = traces[key] = (compile_workload(workload, cell.duration), workload.name)
    return compiled


def run_cell(cell: RunCell, traces: Optional[_Traces] = None) -> Dict[str, Any]:
    """Execute one grid cell on :func:`build_simulation`'s engine (with a
    scratch store when it is persistent) and return its flattened result row.
    ``traces`` carries the compiled traces of the round this cell runs in, so
    cells replaying one trace share its compile and its index; a trace
    missing from it is compiled here, and the row is the same."""
    with _cell_store(cell) as store:
        simulation = build_simulation(cell, store, traces)
        return _row(cell, simulation, simulation.run(), store)


def _replay_cell(cell: RunCell, traces: _Traces) -> Generator[Any, None, Dict[str, Any]]:
    """:func:`run_cell` of a vector-engine cell as a
    :func:`~repro.sim.vector.replay_in_lockstep` replay: it yields what its
    engine's replay yields (the engine, to join the unit, then once per cut)
    and returns the same row; a failure is logged under the cell's id."""
    with _named(cell), _cell_store(cell) as store:
        simulation = build_simulation(cell, store, traces)
        return _row(cell, simulation, (yield from simulation.replay()), store)


def _row(cell: RunCell, simulation, result, store: Optional[StoreConfig]) -> Dict[str, Any]:
    """The cell's coordinates and its replay's result, flattened."""
    row = dict(cell.describe())
    row.update(result.as_dict())
    if cell.num_nodes is None:
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


@contextmanager
def _named(cell: RunCell) -> Iterator[None]:
    """Log a failure of ``cell`` by its id, where it ran, and let it propagate."""
    try:
        yield
    except Exception:
        _LOG.error("cell %d failed: %s", cell.cell_id, cell.describe())
        raise


def build_simulation(
    cell: RunCell, store: Optional[StoreConfig] = None, traces: Optional[_Traces] = None
):
    """The engine that replays ``cell``, journaling into ``store``: the only
    place a :class:`RunCell` becomes a run.  Cells with ``num_nodes`` set run
    a fleet (:class:`ClusterSimulation`), the rest the single cache;
    ``engine="vector"`` hands either one's columnar twin the compiled trace
    (from ``traces`` when it holds it, and then no workload is built), whose
    rows equal a scalar sweep's."""
    fleet = cell.num_nodes is not None
    if cell.engine == "vector":
        requests, name = _compiled(cell, traces if traces is not None else {})
    else:
        workload = _workload(cell)
        requests, name = workload.iter_requests(cell.duration), workload.name
    arguments = _fleet_arguments(cell) if fleet else _single_cache_arguments(cell)
    arguments.update(
        staleness_bound=cell.staleness_bound,
        costs=make_cost_model(cell.cost_preset, dict(cell.cost_params)),
        cache_capacity=cell.cache_capacity,
        duration=cell.duration,
        workload_name=name,
        store=store,
        obs=ObsConfig(window=cell.obs_window) if cell.obs_window is not None else None,
        # Seeded here (not in the spec): the axis value stays hashable and
        # seed-free for dedup, and every cell's service-time and XFetch
        # streams derive from the same seed as its workload.
        concurrency=(
            replace(cell.concurrency, seed=cell.seed) if cell.concurrency is not None else None
        ),
    )
    return _engine(cell)(requests, **arguments)


def _engine(cell: RunCell):
    """The class that replays ``cell``, read from the module at call time
    (benchmarks/layers.py swaps the columnar ones, and compile_workload, for
    tracing ones); the first read of a columnar one imports it."""
    fleet = cell.num_nodes is not None
    if cell.engine == "vector":
        return getattr(_RUNNER, "VectorClusterSimulation" if fleet else "VectorSimulation")
    return ClusterSimulation if fleet else Simulation


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


def _shared(group: List[RunCell], workers: int) -> bool:
    """Whether the caller compiles the group's trace, ahead of the fork: when
    the deal hands every worker a cell of it.  With fewer cells, the workers
    that get one compile it themselves, side by side rather than in a queue."""
    return group[0].engine == "vector" and len(group) >= workers


def _rounds(cells: List[RunCell], workers: int) -> Iterator[List[List[RunCell]]]:
    """The grid's cells, grouped by the compiled trace they replay (scalar-engine
    cells stream their workload: one group with no trace to share), the groups
    cut so that no round holds more than ``workers`` shared traces."""
    groups: Dict[Optional[Tuple[Any, ...]], List[RunCell]] = {}
    for cell in cells:
        key = _trace_key(cell) if cell.engine == "vector" else None
        groups.setdefault(key, []).append(cell)
    batch: List[List[RunCell]] = []
    for group in groups.values():
        batch.append(group)
        if sum(_shared(each, workers) for each in batch) == workers:
            yield batch
            batch = []
    if batch:
        yield batch


def _units(cells: List[RunCell]) -> List[List[RunCell]]:
    """The cells cut into units, in expand order, whatever their fleet
    shape, replayed in lockstep: the vector-engine cells of one trace and
    bound whose policy reacts to writes are one unit (they cut the trace in
    the same places), and so are those of one trace and TTL policy, at any
    bound (each replays the whole trace as one cut); a scalar-engine cell
    is a unit of its own, as is a vector-engine cell under any other
    policy."""
    units: Dict[Any, List[RunCell]] = {}
    for cell in cells:
        key: Any = cell.cell_id
        if cell.engine == "vector":
            policy = make_policy(cell.policy)
            shape = dict(
                cell_id=-1, num_nodes=None, replication=1, read_policy="primary", vnodes=64,
                zones=1,
            )
            if policy.reacts_to_writes:
                key = replace(cell, policy="", **shape)
            elif policy.ttl_mode is not None:
                key = replace(cell, staleness_bound=0.0, **shape)
        units.setdefault(key, []).append(cell)
    return list(units.values())


def _weight(cells: List[RunCell]) -> int:
    """What a unit's cells cost to replay, in host cuts: the cuts of their
    flush schedule (one for a policy that never flushes) times the hosts
    they stack."""
    cell = cells[0]
    cuts = (
        math.ceil(cell.duration / cell.staleness_bound)
        if make_policy(cell.policy).reacts_to_writes
        else 1
    )
    return cuts * sum(each.num_nodes or 1 for each in cells)


def _deal(units: List[List[RunCell]], workers: int) -> List[List[List[RunCell]]]:
    """Each worker's units, weighed (:func:`_weight`): each worker holds at
    most the cells a strided deal of the cells gives it, and the units,
    heaviest first, each go whole to the lightest worker with room for
    them.  A unit no worker has room for fills the lightest worker with
    room, and its cells that do not fit go on, in order, as a unit of
    their own."""
    total = sum(len(unit) for unit in units)
    room = [len(range(offset, total, workers)) for offset in range(min(workers, total))]
    shares: List[List[List[RunCell]]] = [[] for _ in room]
    load = [0] * len(room)
    for unit in sorted(units, key=_weight, reverse=True):
        while unit:
            fits = [each for each in range(len(room)) if room[each] >= len(unit)]
            worker = min(fits or [each for each in range(len(room)) if room[each]],
                         key=load.__getitem__)
            piece, unit = unit[: room[worker]], unit[room[worker] :]
            shares[worker].append(piece)
            room[worker] -= len(piece)
            load[worker] += _weight(piece)
    return shares


def _run_round(groups: List[List[RunCell]], workers: int) -> List[Dict[str, Any]]:
    """Run one round's cells on ``workers`` processes, the caller among them.

    The shared traces are compiled and indexed once, here, before the fork:
    every worker inherits all of them, so the cells are dealt across the
    workers whatever they replay — a one-trace grid occupies every worker —
    and the traces die with the round.
    """
    traces: _Traces = {}
    for group in groups:
        if _shared(group, workers):
            _compiled(group[0], traces)[0].index()
    results = fork_each(
        lambda share: _run_units(share, traces),
        _deal(_units([cell for group in groups for cell in group]), workers),
        lambda share: "the sweep worker running cells "
        f"{[cell.cell_id for unit in share for cell in unit]}",
        SimulationError,
    )
    return [row for rows in results for row in rows]


def _run_units(units: List[List[RunCell]], shared: _Traces) -> List[Dict[str, Any]]:
    """One worker's share of a round; a failing cell is named where it ran.

    A unit of one runs through :func:`run_cell`; a bigger unit hands its
    cells' replays to :func:`~repro.sim.vector.replay_in_lockstep`, which
    stacks their engines into one replay."""
    rows = []
    for unit in units:
        # A copy: a trace the unit compiles for itself dies with the unit.
        traces = dict(shared)
        if len(unit) == 1:
            with _named(unit[0]):
                rows.append(run_cell(unit[0], traces))
        else:
            from repro.sim.vector.lockstep import replay_in_lockstep

            rows.extend(replay_in_lockstep([_replay_cell(cell, traces) for cell in unit]))
    return rows


def run_experiment(
    spec: ExperimentSpec,
    processes: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run every cell of an experiment grid, optionally in parallel.

    Args:
        spec: The experiment grid to expand and execute.
        processes: Worker process count, the caller included.  ``None`` picks
            ``min(cpu_count, number of cells)``; ``0`` or ``1`` runs serially
            in-process (as does a platform without ``fork``); a negative
            count is a :class:`~repro.errors.ConfigurationError`.

    Returns:
        One result row per cell, ordered by cell id regardless of the
        execution schedule.
    """
    cells = spec.expand()
    if processes is None:
        processes = min(os.cpu_count() or 1, len(cells))
    if processes < 0:
        raise ConfigurationError(f"processes must be >= 0, got {processes}")
    workers = max(processes, 1)
    _LOG.debug("experiment '%s': %d cells on %d process(es)",
               spec.name, len(cells), workers)
    # Every engine the grid runs is imported here, before any fork: with no
    # bytecode cache, each worker would compile the columnar ones again.
    for cell in cells:
        _engine(cell)
    rows: List[Dict[str, Any]] = []
    for groups in _rounds(cells, workers):
        rows.extend(_run_round(groups, workers))
    rows.sort(key=lambda row: row["cell_id"])
    return rows
