"""Experiment orchestration: grid expansion, seeding, parallel runs, export."""

import csv
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import time

import pytest

import repro.experiments.runner as runner
import repro.experiments.spec as spec_module
from repro.concurrency.config import ConcurrencyConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    RunCell,
    ScenarioSpec,
    WorkloadSpec,
    make_policy,
    make_workload,
    run_experiment,
    stable_cell_seed,
    write_results_csv,
    write_results_json,
)
from repro.experiments.spec import AXES, PASS_THROUGH, Axis
from repro.sim import vector as sim_vector
from repro.sim.vector import _Lockstep


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="smoke",
        policies=["invalidate", "update"],
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 15, "rate_per_key": 6.0})],
        staleness_bounds=[0.5, 2.0],
        duration=2.0,
        base_seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_expand_produces_full_grid_with_stable_ids() -> None:
    spec = small_spec()
    cells = spec.expand()
    assert len(cells) == spec.num_cells == 4
    assert [cell.cell_id for cell in cells] == [0, 1, 2, 3]
    assert {cell.policy for cell in cells} == {"invalidate", "update"}


def test_cells_sharing_a_workload_share_a_seed() -> None:
    cells = small_spec().expand()
    seeds = {cell.seed for cell in cells}
    # The seed is anchored to the workload coordinates only, so every cell of
    # this single-workload grid replays the identical trace.
    assert len(seeds) == 1


def test_seed_is_deterministic_and_sensitive_to_coordinates() -> None:
    seed = stable_cell_seed(7, "poisson", {"num_keys": 15}, 2.0)
    assert seed == stable_cell_seed(7, "poisson", {"num_keys": 15}, 2.0)
    assert seed != stable_cell_seed(8, "poisson", {"num_keys": 15}, 2.0)
    assert seed != stable_cell_seed(7, "poisson", {"num_keys": 16}, 2.0)
    assert seed != stable_cell_seed(7, "twitter", {"num_keys": 15}, 2.0)


def test_parallel_and_serial_runs_are_identical() -> None:
    spec = small_spec()
    serial = run_experiment(spec, processes=1)
    parallel = run_experiment(spec, processes=2)
    assert serial == parallel
    assert len(serial) == 4
    for row in serial:
        assert row["reads"] + row["writes"] > 0
        assert row["normalized_freshness_cost"] >= 0.0


def mixed_spec(engine: str) -> ExperimentSpec:
    """Two workloads x single/cluster cells x two policies: eight cells."""
    return small_spec(
        workloads=[
            WorkloadSpec.of("poisson", {"num_keys": 15, "rate_per_key": 6.0}),
            WorkloadSpec.of("twitter", {"num_keys": 20, "total_rate": 80.0}),
        ],
        staleness_bounds=[0.5],
        num_nodes=[None, 2],
        engine=engine,
    )


def test_rows_are_identical_for_any_process_count_and_engine() -> None:
    reference = None
    for engine in ("scalar", "vector"):
        for processes in (0, 1, 2, 3):
            rows = run_experiment(mixed_spec(engine), processes=processes)
            assert [row["cell_id"] for row in rows] == list(range(8))
            for row in rows:
                assert row.pop("engine") == engine
            dumped = json.dumps(rows, sort_keys=True)
            if reference is None:
                reference = dumped
            assert dumped == reference, (engine, processes)


def count_windows(monkeypatch) -> dict:
    """Count the reactive window kernel's calls and the interval flushes
    they run, in the returned dict (``windows``, ``flushes``)."""
    calls = {"windows": 0, "flushes": 0}
    kernel = sim_vector._kernel_reactive_window

    def counted(ctx, columns, prelude, flushes):
        calls["windows"] += 1
        calls["flushes"] += len(flushes)
        return kernel(ctx, columns, prelude, flushes)

    monkeypatch.setattr(sim_vector, "_kernel_reactive_window", counted)
    return calls


def lockstep_cells():
    """Every kind of unit the runner cuts a grid into, renumbered in order.

    The five policies at two bounds on the single cache and on a 3-node fleet
    with replication 2 and round-robin reads (each bound a unit of the three
    write-reacting policies on both shapes, each TTL policy a unit of its
    four cells, whose read strides differ: the unit's replays stack as two
    units of two), then units of
    the three at one bound with a recorder, with a store and with a bounded
    cache (these two fall back to the scalar loop inside the unit), and one
    scalar-engine cell.
    """
    base = small_spec(
        policies=["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"],
        engine="vector",
        duration=3.0,
    ).expand()
    fleet = [
        dataclasses.replace(cell, num_nodes=3, replication=2, read_policy="round-robin")
        for cell in base
    ]
    reactive = [
        cell for cell in base if cell.staleness_bound == 0.5 and not cell.policy.startswith("ttl")
    ]
    cells = (
        base
        + fleet
        + [dataclasses.replace(cell, obs_window=1.0) for cell in reactive]
        + [dataclasses.replace(cell, persistence=True, snapshot_interval=1.0) for cell in reactive]
        + [dataclasses.replace(cell, cache_capacity=5) for cell in reactive]
        + [dataclasses.replace(reactive[0], engine="scalar")]
    )
    return [dataclasses.replace(cell, cell_id=cell_id) for cell_id, cell in enumerate(cells)]


def run_cells(cells, processes):
    """``run_experiment``'s rounds, over a list of cells no single spec expands to."""
    rows = [
        row
        for groups in runner._rounds(cells, processes)
        for row in runner._run_round(groups, processes)
    ]
    return sorted(rows, key=lambda row: row["cell_id"])


def test_units_in_lockstep_give_every_cell_its_own_row() -> None:
    cells = lockstep_cells()
    assert sorted(len(unit) for unit in runner._units(cells)) == [1] + [3] * 3 + [4] * 2 + [6] * 2
    reference = json.dumps([runner.run_cell(cell) for cell in cells])
    for processes in (1, 2, 3):
        assert json.dumps(run_cells(cells, processes)) == reference, processes


#: The write-reacting policies a sweep cell's unit stacks.
REACTIVE_POLICIES = ["invalidate", "update", "adaptive", "adaptive+cs"]


@pytest.mark.parametrize("bound", [0.01, 0.5])
@pytest.mark.parametrize("fleet", [False, True], ids=["single", "fleet-3-rf2-rr"])
def test_a_fused_unit_gives_each_cell_the_row_it_gets_alone(
    monkeypatch, fleet: bool, bound: float
) -> None:
    """A unit's write-reacting policies share one column table and one
    kernel call per window of cuts, with a flush per cut: for every subset
    of two or more of the four policies, each cell's row — obs payload
    included, on a 0.3 s window that is no multiple of the bound, where
    every window ends — equals its row alone, with a flush for each of its
    cuts, and every unit takes the same windows whatever its size (the
    stacking budget set out of reach, so that it ends none; a replay alone
    may end others, where its batches end in the span table)."""
    cells = small_spec(
        policies=REACTIVE_POLICIES,
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 30, "rate_per_key": 8.0})],
        staleness_bounds=[bound],
        engine="vector",
        obs_window=0.3,
    ).expand()
    if fleet:
        cells = [
            dataclasses.replace(cell, num_nodes=3, replication=2, read_policy="round-robin")
            for cell in cells
        ]
    monkeypatch.setattr(sim_vector, "_STACKED_GROUPS", 1 << 40)
    calls = count_windows(monkeypatch)
    alone = {}
    for cell in cells:
        calls.update(dict.fromkeys(calls, 0))
        row = runner.run_cell(cell)
        assert "obs" in row
        alone[cell.cell_id] = json.dumps(row, sort_keys=True)
    per_replay = dict(calls)
    assert 0 < per_replay["windows"] <= per_replay["flushes"]
    per_unit = None
    units = [
        list(unit) for size in (2, 3, 4) for unit in itertools.combinations(cells, size)
    ]
    assert len(units) == 11
    for unit in units:
        calls.update(dict.fromkeys(calls, 0))
        rows = runner._run_units([unit], {})
        assert [json.dumps(row, sort_keys=True) for row in rows] == [
            alone[cell.cell_id] for cell in unit
        ], [cell.policy for cell in unit]
        assert calls["flushes"] == per_replay["flushes"]
        per_unit = per_unit or dict(calls)
        assert calls == per_unit


def test_a_mixed_shape_unit_gives_each_cell_the_row_it_gets_alone(monkeypatch) -> None:
    """The single-cache and 3-node cells of a trace and bound are one unit:
    every cell's row — obs payload included — is the one ``run_cell`` gives
    it alone, at 1, 2 and 3 processes, and a serial sweep takes one kernel
    call per window, with a flush per cut, for each (trace, bound) — fewer
    calls than cuts where the bound is below the obs window."""
    spec = small_spec(
        policies=REACTIVE_POLICIES,
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 30, "rate_per_key": 8.0})],
        staleness_bounds=[0.05, 0.5],
        num_nodes=[None, 3],
        engine="vector",
        obs_window=0.3,
    )
    cells = spec.expand()
    assert sorted(len(unit) for unit in runner._units(cells)) == [8, 8]
    calls = count_windows(monkeypatch)
    alone, per_bound = [], {}
    for cell in cells:
        calls.update(dict.fromkeys(calls, 0))
        alone.append(json.dumps(runner.run_cell(cell), sort_keys=True))
        # Each cell alone: a kernel call per window, a flush per cut.
        assert per_bound.setdefault(cell.staleness_bound, dict(calls))["flushes"] == calls[
            "flushes"
        ]
    for processes in (1, 2, 3):
        calls.update(dict.fromkeys(calls, 0))
        rows = run_experiment(spec, processes=processes)
        assert [json.dumps(row, sort_keys=True) for row in rows] == alone, processes
        if processes == 1:
            trace, _ = runner._compiled(cells[0], {})
            assert calls["flushes"] == sum(
                len(trace.index().cut_ends(trace.times, bound)) for bound in per_bound
            )
            assert calls["flushes"] == sum(counts["flushes"] for counts in per_bound.values())
            assert calls["windows"] < calls["flushes"]


@pytest.mark.parametrize("policy", ["ttl-expiry", "ttl-polling"])
def test_a_fused_ttl_unit_gives_each_cell_the_row_it_gets_alone(monkeypatch, policy) -> None:
    """A TTL policy's cells of one trace are one unit at every bound and on
    both fleet shapes with one read stride (single cache, 3-node RF 1): one
    TTL kernel call for all six, each group at its own host's TTL, each
    member's tallies and settle its own.  Every cell's row — obs payload
    included, on a 0.3 s window — is the one ``run_cell`` gives it alone,
    in one process and with the unit split across two or three workers."""
    spec = small_spec(
        policies=[policy],
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 30, "rate_per_key": 8.0})],
        staleness_bounds=[0.01, 0.5, 5.0],
        num_nodes=[None, 3],
        duration=3.0,
        engine="vector",
        obs_window=0.3,
    )
    cells = spec.expand()
    assert [len(unit) for unit in runner._units(cells)] == [6]
    name = "_kernel_ttl_expiry" if policy == "ttl-expiry" else "_kernel_ttl_polling"
    kernel, calls = getattr(sim_vector, name), []

    def counted(ctx, columns, tallies, groups):
        calls.append(len(columns.hosts))
        return kernel(ctx, columns, tallies, groups)

    monkeypatch.setattr(sim_vector, name, counted)
    alone = [json.dumps(runner.run_cell(cell), sort_keys=True) for cell in cells]
    assert calls == [1, 3] * 3 or sorted(calls) == [1, 1, 1, 3, 3, 3]
    assert len(set(alone)) == len(alone)
    for processes in (1, 2, 3):
        calls.clear()
        rows = run_experiment(spec, processes=processes)
        assert [json.dumps(row, sort_keys=True) for row in rows] == alone, processes
        if processes == 1:
            assert calls == [3 * (1 + 3)]


def test_a_ttl_unit_over_the_stacking_budget_splits_by_members(monkeypatch) -> None:
    """A TTL unit holds the key table times its stacked hosts at once (its
    one cut has no windows to end early): past the budget it splits by
    members, each part at most the budget (a member alone may exceed it),
    and every row stays the one the cell gets alone."""
    spec = small_spec(
        policies=["ttl-polling"],
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 30, "rate_per_key": 8.0})],
        staleness_bounds=[0.5, 5.0],
        num_nodes=[None, 3],
        duration=3.0,
        engine="vector",
    )
    cells = spec.expand()
    alone = [runner.run_cell(cell) for cell in cells]
    kernel, calls = sim_vector._kernel_ttl_polling, []

    def counted(ctx, columns, tallies, groups):
        calls.append((len(columns.hosts), len(columns.names)))
        return kernel(ctx, columns, tallies, groups)

    monkeypatch.setattr(sim_vector, "_kernel_ttl_polling", counted)
    monkeypatch.setattr(sim_vector, "_STACKED_GROUPS", 30 * 4)
    assert run_experiment(spec, processes=1) == alone
    assert sorted(calls) == [(4, 30), (4, 30)]
    calls.clear()
    monkeypatch.setattr(sim_vector, "_STACKED_GROUPS", 1)
    assert run_experiment(spec, processes=1) == alone
    assert sorted(calls) == [(1, 30), (1, 30), (3, 30), (3, 30)]


#: The obs payloads of :func:`test_an_obs_on_columnar_fleet_unit_keeps_its_payload`'s
#: cells, as the engine that replayed each cut in a kernel call of its own
#: and each boundary in a flush of its own recorded them (sha256 of the
#: sorted-key JSON).
OBS_PAYLOADS = {
    "invalidate": "133d2094782e5dd82907aa83127553fec85c53b90d329d163ed7815696d6fc91",
    "update": "250114171fd6670d070ea7341cfc9a6c3c189f84413e3af87c10d9d7a9deaf55",
    "adaptive": "ceb851fc4d604bd18769927e4b28f5ef64245910c7a125fb3812757aa0ee666c",
}


def test_an_obs_on_columnar_fleet_unit_keeps_its_payload(monkeypatch) -> None:
    """A recorder sees a window's cuts and flushes at once: a window ends
    where an obs window rolls, so every obs window still closes on exactly
    the counts it did when each cut was a kernel call and each boundary a
    flush.  Three policies on a 3-node fleet at T = 0.05 under a 0.3 s obs
    window, as one unit: payloads pinned, windows of several cuts."""
    spec = ExperimentSpec(
        name="obs-pin",
        policies=list(OBS_PAYLOADS),
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 40, "rate_per_key": 10.0})],
        staleness_bounds=[0.05],
        num_nodes=[3],
        duration=3.0,
        base_seed=7,
        engine="vector",
        obs_window=0.3,
    )
    calls = count_windows(monkeypatch)
    rows = runner._run_units([spec.expand()], {})
    assert {
        row["policy"]: hashlib.sha256(json.dumps(row["obs"], sort_keys=True).encode()).hexdigest()
        for row in rows
    } == OBS_PAYLOADS
    assert calls["flushes"] > 2 * calls["windows"] > 0


def test_a_unit_that_spills_over_a_worker_keeps_its_cells_in_order() -> None:
    """Units are dealt by weight, heaviest first, each to the lightest
    worker with room; a worker is never given more cells than a strided
    deal of the cells gives it, and a unit's cells that do not fit go, in
    order, to the next lightest worker with room: the 2 s unit (2 cuts a
    cell) tops up the worker of the 1 s unit first, then the 0.5 s one's,
    then the 0.25 s one's.  Equal weights deal strided."""
    cells = small_spec(
        policies=["invalidate", "update", "adaptive"], staleness_bounds=[0.25, 0.5, 1.0, 2.0],
        engine="vector",
    ).expand()
    shares = runner._deal(runner._units(cells), 3)
    ids = [[[cell.cell_id for cell in unit] for unit in share] for share in shares]
    assert ids == [[[0, 1, 2], [11]], [[3, 4, 5], [10]], [[6, 7, 8], [9]]]
    dealt = runner._deal(runner._units(dataclasses.replace(c, engine="scalar") for c in cells), 3)
    assert [[unit[0].cell_id for unit in share] for share in dealt] == [
        list(range(offset, 12, 3)) for offset in range(3)
    ]


def event_log(log_path):
    """``record(word)`` appends ``pid word`` to a file and ``events()`` reads
    the pairs back, in order: a log forked workers can write to as well."""
    log_path.touch()

    def record(word) -> None:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {word}\n")

    def events():
        with open(log_path, encoding="utf-8") as handle:
            pairs = (line.rstrip("\n").split(" ", 1) for line in handle)
            return [(int(pid), word) for pid, word in pairs]

    return record, events


def counting_compiles(monkeypatch, log_path):
    """Log ``pid workload`` per ``compile_workload`` call, forked workers
    included (they inherit the patched name)."""
    compile_workload = runner.compile_workload
    record, events = event_log(log_path)

    def counted(workload, duration):
        record(workload.name)
        return compile_workload(workload, duration)

    monkeypatch.setattr(runner, "compile_workload", counted)
    return events


def recording_cells(monkeypatch, log_path, before=lambda cell: None):
    """Log ``pid cell_id`` per ``run_cell`` call — after ``before(cell)``,
    which may kill the process or raise — forked workers included."""
    run_cell = runner.run_cell
    record, events = event_log(log_path)

    def recorded(cell, traces=None):
        before(cell)
        record(cell.cell_id)
        return run_cell(cell, traces)

    monkeypatch.setattr(runner, "run_cell", recorded)
    return events


def recording_builds(monkeypatch, log_path):
    """Log ``pid cell_id`` per ``build_simulation`` call, forked workers
    included: every cell builds one engine, whether ``run_cell`` runs it
    alone or a unit steps it in lockstep with its other policies."""
    build_simulation = runner.build_simulation
    record, events = event_log(log_path)

    def recorded(cell, *args):
        record(cell.cell_id)
        return build_simulation(cell, *args)

    monkeypatch.setattr(runner, "build_simulation", recorded)
    return events


def test_serial_sweep_compiles_each_distinct_trace_once(monkeypatch, tmp_path) -> None:
    calls = counting_compiles(monkeypatch, tmp_path / "compiles.log")
    rows = run_experiment(mixed_spec("vector"), processes=1)
    assert len(rows) == 8
    assert sorted(name for _, name in calls()) == ["poisson", "twitter"]


def test_scalar_sweep_compiles_nothing(monkeypatch, tmp_path) -> None:
    calls = counting_compiles(monkeypatch, tmp_path / "compiles.log")
    run_experiment(mixed_spec("scalar"), processes=2)
    assert calls() == []


def test_one_trace_grid_still_occupies_every_worker(monkeypatch, tmp_path) -> None:
    """Sharing a trace must not serialise the grid: a one-workload sweep is
    dealt across all workers, the caller among them, and the trace they all
    replay is compiled once — by the caller, before it forks."""
    compiles = counting_compiles(monkeypatch, tmp_path / "compiles.log")
    cells = recording_builds(monkeypatch, tmp_path / "cells.log")
    spec = small_spec(
        policies=["invalidate", "update", "adaptive"],
        workloads=[WorkloadSpec.of("poisson", {"num_keys": 200, "rate_per_key": 50.0})],
        staleness_bounds=[0.25, 0.5, 1.0, 2.0],
        duration=4.0,
        engine="vector",
    )
    assert spec.num_cells == 12
    rows = run_experiment(spec, processes=3)
    assert [row["cell_id"] for row in rows] == list(range(12))
    assert compiles() == [(os.getpid(), "poisson")]
    ran = cells()
    assert sorted(int(cell_id) for _, cell_id in ran) == list(range(12))
    pids = {pid for pid, _ in ran}
    assert len(pids) == 3 and os.getpid() in pids
    assert all(sum(1 for pid, _ in ran if pid == worker) == 4 for worker in pids)


def recording_rounds(monkeypatch, log_path):
    """Log ``pid compile`` per compile and ``pid fork-N`` per fan-out of N shares."""
    record, events = event_log(log_path)
    compile_workload, fork_each = runner.compile_workload, runner.fork_each

    def compiling(workload, duration):
        record("compile")
        return compile_workload(workload, duration)

    def forking(body, shares, *rest):
        record(f"fork-{len(shares)}")
        return fork_each(body, shares, *rest)

    monkeypatch.setattr(runner, "compile_workload", compiling)
    monkeypatch.setattr(runner, "fork_each", forking)
    return events


def many_trace_spec(bounds):
    return small_spec(
        policies=["invalidate"],
        workloads=[
            WorkloadSpec.of("poisson", {"num_keys": keys, "rate_per_key": 6.0})
            for keys in (10, 15, 20, 25)
        ],
        staleness_bounds=bounds,
        engine="vector",
    )


def test_a_many_trace_grid_shares_a_worker_count_of_traces_at_a_time(monkeypatch, tmp_path) -> None:
    """The twin: four traces of two cells each on two workers are two rounds
    of two traces — never more compiled traces alive than workers."""
    events = recording_rounds(monkeypatch, tmp_path / "rounds.log")
    cells = recording_cells(monkeypatch, tmp_path / "cells.log")
    spec = many_trace_spec([0.5, 1.0])
    assert spec.num_cells == 8
    rows = run_experiment(spec, processes=2)
    me = os.getpid()
    assert events() == [(me, "compile"), (me, "compile"), (me, "fork-2")] * 2
    ran = cells()
    # Dealt by weight, heaviest first: the two 0.5 s cells (6 cuts each) go
    # to one worker each, then the first trace's 1.0 s cell to the caller.
    assert [cell_id for pid, cell_id in ran if pid == me] == ["0", "1", "4", "5"]
    assert sorted(cell_id for pid, cell_id in ran if pid != me) == ["2", "3", "6", "7"]
    monkeypatch.undo()
    assert rows == run_experiment(spec, processes=1)


def test_traces_with_fewer_cells_than_workers_compile_side_by_side(monkeypatch, tmp_path) -> None:
    """Four traces of one cell each on two workers: the caller compiling all
    four ahead of the fork would queue what the workers can do at once (a
    measured -40 % at this shape).  Each worker compiles the trace of the
    cell it was dealt, keeps it for that cell alone, and there is one fork."""
    events = recording_rounds(monkeypatch, tmp_path / "rounds.log")
    run_cell = runner.run_cell
    record, held = event_log(tmp_path / "held.log")

    def holding(cell, traces=None):
        record(f"{cell.cell_id} holds {len(traces)}")
        return run_cell(cell, traces)

    monkeypatch.setattr(runner, "run_cell", holding)
    spec = many_trace_spec([0.5])
    assert spec.num_cells == 4
    rows = run_experiment(spec, processes=2)
    me = os.getpid()
    (worker,) = {pid for pid, _ in events()} - {me}
    assert events()[0] == (me, "fork-2")
    assert sorted(events()[1:]) == sorted([(me, "compile"), (worker, "compile")] * 2)
    assert sorted(held()) == sorted(
        [(me, "0 holds 0"), (worker, "1 holds 0"), (me, "2 holds 0"), (worker, "3 holds 0")]
    )
    monkeypatch.undo()
    assert rows == run_experiment(spec, processes=1)


# --------------------------------------------------------------------- #
# The failure model: a worker may die or raise at any instant; the sweep
# answers with a typed error in bounded time and reaps every sibling
# --------------------------------------------------------------------- #

def failing_sweep(monkeypatch, tmp_path, before, processes=2):
    """Run ``small_spec()`` (cells 0, 2 on the caller and 1, 3 on the forked
    worker when ``processes=2``) with ``before(cell)`` ahead of every cell.
    Returns the ``_LOG.error`` lines as ``(pid, text)``, whoever wrote them."""
    record, logged = event_log(tmp_path / "errors.log")
    monkeypatch.setattr(runner._LOG, "error", lambda message, *args: record(message % args))
    recording_cells(monkeypatch, tmp_path / "cells.log", before)
    return lambda: run_experiment(small_spec(), processes=processes), logged


def test_a_killed_sweep_worker_is_a_typed_error_not_a_hang(
    monkeypatch, tmp_path, wall_clock_limit
) -> None:
    """``multiprocessing.Pool`` replaced a worker that died and ``map`` waited
    for its lost task for ever."""
    me = os.getpid()

    def killed_in_cell_three(cell):
        if cell.cell_id == 3 and os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)

    sweep, logged = failing_sweep(monkeypatch, tmp_path, killed_in_cell_three)
    started = time.perf_counter()
    with wall_clock_limit(20.0), pytest.raises(SimulationError) as death:
        sweep()
    assert time.perf_counter() - started < 10.0
    assert str(death.value) == (
        "the sweep worker running cells [1, 3] died without a result "
        f"(exit code {-signal.SIGKILL})"
    )
    assert multiprocessing.active_children() == [], "a sweep worker outlived the sweep"
    assert logged() == [], "SIGKILL leaves no time for a last word"


@pytest.mark.parametrize(
    "processes, cell_id, in_caller", [(2, 2, True), (2, 1, False), (1, 3, True)]
)
def test_a_failing_cell_is_named_where_it_ran_and_raised_as_its_own_type(
    monkeypatch, tmp_path, wall_clock_limit, processes, cell_id, in_caller
) -> None:
    """The caller's own share, a forked share, a serial sweep: the exception
    arrives as itself, the process that ran the cell names it in the log, and
    no worker is left behind."""
    def refusing(cell):
        if cell.cell_id == cell_id:
            raise ConfigurationError(f"cell {cell.cell_id} says no")

    sweep, logged = failing_sweep(monkeypatch, tmp_path, refusing, processes)
    with wall_clock_limit(20.0), pytest.raises(ConfigurationError, match=f"cell {cell_id} says no"):
        sweep()
    assert multiprocessing.active_children() == [], "a sweep worker outlived the sweep"
    ((pid, line),) = logged()
    assert (pid == os.getpid()) == in_caller
    cell = small_spec().expand()[cell_id]
    assert line == f"cell {cell_id} failed: {cell.describe()}"


def test_a_negative_process_count_is_refused_not_silently_serial() -> None:
    with pytest.raises(ConfigurationError, match="processes must be >= 0, got -3"):
        run_experiment(small_spec(), processes=-3)


def test_same_workload_cells_replay_identical_traces() -> None:
    rows = run_experiment(small_spec(), processes=1)
    totals = {(row["reads"], row["writes"]) for row in rows}
    assert len(totals) == 1, "policies must be compared on the same trace"


def test_export_json_and_csv(tmp_path) -> None:
    rows = run_experiment(small_spec(), processes=1)
    json_path = write_results_json(rows, tmp_path / "results.json", metadata={"spec": "smoke"})
    csv_path = write_results_csv(rows, tmp_path / "results.csv")
    document = json.loads(json_path.read_text())
    assert document["metadata"]["spec"] == "smoke"
    assert len(document["results"]) == len(rows)
    with csv_path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    assert parsed[0]["policy"] == rows[0]["policy"]


def test_registry_rejects_unknown_names() -> None:
    with pytest.raises(ConfigurationError):
        make_policy("no-such-policy")
    with pytest.raises(ConfigurationError):
        make_workload("no-such-workload")


def test_spec_validation() -> None:
    with pytest.raises(ConfigurationError):
        small_spec(policies=[])
    with pytest.raises(ConfigurationError):
        small_spec(staleness_bounds=[])
    with pytest.raises(ConfigurationError):
        small_spec(duration=0.0)
    with pytest.raises(
        ConfigurationError, match=r"engine must be 'scalar' or 'vector', got 'numpy'"
    ):
        small_spec(engine="numpy")


# --------------------------------------------------------------------- #
# One cell runner: the whole ChannelSpec reaches a single-cache cell too
# --------------------------------------------------------------------- #

def test_single_cache_cell_applies_the_whole_channel_spec(monkeypatch) -> None:
    """``run_cell`` used to build the single cache's channel by hand and left
    the three retry fields out: a stated failure model silently not applied."""
    built = []

    class Spy(runner.Simulation):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["channel"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "Simulation", Spy)

    def dropped(channel: ChannelSpec) -> int:
        (cell,) = small_spec(
            policies=["invalidate"],
            workloads=[WorkloadSpec.of("poisson", {"num_keys": 40, "rate_per_key": 8.0})],
            staleness_bounds=[0.5],
            channels=[channel],
            duration=6.0,
        ).expand()
        assert cell.num_nodes is None
        return runner.run_cell(cell)["messages_dropped"]

    retrying = ChannelSpec(
        loss_probability=0.4,
        delay=0.01,
        jitter=0.005,
        retries=3,
        retry_timeout=0.01,
        retry_backoff=0.002,
    )
    assert 0 < dropped(retrying) < dropped(ChannelSpec(loss_probability=0.4))
    for name, value in retrying.as_dict().items():
        assert getattr(built[0], name) == value, name
    assert len(retrying.as_dict()) == 6


# --------------------------------------------------------------------- #
# One axis table: the emptiness rule, a thirteenth axis, and the parent's
# hand-written expansion kept here as the reference
# --------------------------------------------------------------------- #

AXIS_FIELDS = [
    "workloads", "staleness_bounds", "cache_capacities", "channels", "num_nodes",
    "replications", "scenarios", "persistence", "snapshot_intervals", "l1_capacities",
    "concurrency", "policies",
]

#: The three emptiness messages that predate the shared rule.
LEGACY_EMPTY = {
    "policies": "an experiment needs at least one policy",
    "workloads": "an experiment needs at least one workload",
    "staleness_bounds": "an experiment needs at least one staleness bound",
}


def test_the_axis_table_lists_the_twelve_product_factors_in_order() -> None:
    assert [axis.field for axis in AXES] == AXIS_FIELDS
    cell_fields = {field.name for field in dataclasses.fields(RunCell)}
    coordinates = [name for axis in AXES for name in axis.coordinates]
    assert len(coordinates) == len(set(coordinates)) and set(coordinates) <= cell_fields
    assert set(PASS_THROUGH) <= cell_fields - set(coordinates)


@pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.field)
def test_an_empty_axis_is_refused_whatever_the_axis(axis) -> None:
    """Walks the table, so a future axis cannot forget the rule: an empty axis
    used to expand to a zero-cell grid that ran nothing and exited 0."""
    with pytest.raises(ConfigurationError) as excinfo:
        small_spec(**{axis.field: []})
    expected = LEGACY_EMPTY.get(axis.field, f"the {axis.field} axis needs at least one entry")
    assert str(excinfo.value) == expected


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(cache_capacities=[None, 0]), "capacity must be >= 1 or None, got 0"),
        (dict(cache_capacities=[-3]), "capacity must be >= 1 or None, got -3"),
        (dict(vnodes=0), "vnodes must be >= 1, got 0"),
        (dict(hot_fraction=0.0), r"hot_fraction must be in \(0, 1\], got 0.0"),
        (dict(channels=[None, ChannelSpec(delay=-1.0)]), "delay and jitter must be non-negative"),
        (dict(channels=[ChannelSpec(retries=-1)]), "retries must be >= 0, got -1"),
        (
            dict(channels=[ChannelSpec(loss_probability=1.5)]),
            r"loss_probability must be in \[0, 1\], got 1.5",
        ),
    ],
)
def test_a_pass_through_value_its_component_refuses_is_refused_by_the_spec(
    overrides, message
) -> None:
    """The spec refuses it when built, in the component's words, instead of
    the first worker that builds a cell failing mid-sweep."""
    with pytest.raises(ConfigurationError, match=message):
        small_spec(**overrides)


def test_a_thirteenth_axis_is_one_appended_row(monkeypatch) -> None:
    """No edit to ``expand`` or ``num_cells``: the row alone crosses the grid."""
    spec = small_spec()
    before = spec.expand()
    row = Axis("policies", ("vnodes",), lambda _spec: [(16,), (32,), (64,)])
    monkeypatch.setattr(spec_module, "AXES", (*AXES, row))
    after = spec.expand()
    assert spec.num_cells == len(after) == 3 * len(before)
    assert after == [
        dataclasses.replace(cell, cell_id=3 * cell.cell_id + offset, vnodes=vnodes)
        for cell in before
        for offset, vnodes in enumerate((16, 32, 64))
    ]


def reference_tier_combos(spec):
    """PR 21's ``ExperimentSpec.tier_combos``, verbatim."""
    combos = []
    seen_zero = False
    for capacity in spec.l1_capacities:
        if capacity == 0:
            if not seen_zero:
                combos.append((0, "write-through"))
                seen_zero = True
        else:
            combos.extend((int(capacity), mode) for mode in spec.tier_modes)
    return combos


def reference_concurrency_combos(spec):
    """PR 21's ``ExperimentSpec.concurrency_combos``, verbatim."""
    combos = []
    seen: set = set()
    for base in spec.concurrency:
        if base is None:
            if None not in seen:
                combos.append(None)
                seen.add(None)
            continue
        policies = tuple(spec.stampede_policies) or (base.policy,)
        services = tuple(spec.service_times) or (base.service_time,)
        for policy in policies:
            for service in services:
                combo = dataclasses.replace(base, policy=policy, service_time=service)
                if combo not in seen:
                    combos.append(combo)
                    seen.add(combo)
    return combos


def reference_num_cells(spec) -> int:
    """PR 21's ``ExperimentSpec.num_cells``, verbatim."""
    return (
        len(spec.policies)
        * len(spec.workloads)
        * len(spec.staleness_bounds)
        * len(spec.cache_capacities)
        * len(spec.channels)
        * len(spec.num_nodes)
        * len(spec.replications)
        * len(spec.scenarios)
        * len(spec.persistence)
        * len(spec.snapshot_intervals)
        * len(reference_tier_combos(spec))
        * len(reference_concurrency_combos(spec))
    )


def reference_expand(spec):
    """PR 21's ``ExperimentSpec.expand`` (with the two ``normalized_*`` helpers
    it called inlined), verbatim: twelve nested factors, one hand-written
    ``RunCell(...)`` call."""
    workloads = [
        workload if isinstance(workload, WorkloadSpec) else WorkloadSpec.of(workload)
        for workload in spec.workloads
    ]
    scenarios = []
    for scenario in spec.scenarios:
        if scenario is None or isinstance(scenario, ScenarioSpec):
            scenarios.append(scenario)
        elif scenario in ("none", ""):
            scenarios.append(None)
        else:
            scenarios.append(ScenarioSpec.of(scenario))
    cost_params = tuple(sorted(spec.cost_params.items()))
    slo_rules = None
    if spec.slo_rules is not None:
        from repro.obs.slo import canonical_rules

        slo_rules = canonical_rules(spec.slo_rules)
    cells = []
    grid = itertools.product(
        workloads,
        spec.staleness_bounds,
        spec.cache_capacities,
        spec.channels,
        spec.num_nodes,
        spec.replications,
        scenarios,
        spec.persistence,
        spec.snapshot_intervals,
        reference_tier_combos(spec),
        reference_concurrency_combos(spec),
        spec.policies,
    )
    for cell_id, (
        workload,
        bound,
        capacity,
        channel,
        nodes,
        replication,
        scenario,
        persistence,
        snapshot_interval,
        (l1_capacity, tier_mode),
        concurrency,
        policy,
    ) in enumerate(grid):
        seed = stable_cell_seed(spec.base_seed, workload.name, workload.params, spec.duration)
        cells.append(
            RunCell(
                experiment=spec.name,
                cell_id=cell_id,
                policy=policy,
                workload=workload.name,
                workload_params=workload.params,
                staleness_bound=float(bound),
                cache_capacity=capacity,
                channel=channel,
                duration=float(spec.duration),
                seed=seed,
                cost_preset=spec.cost_preset,
                cost_params=cost_params,
                num_nodes=nodes,
                replication=int(replication),
                read_policy=spec.read_policy,
                scenario=scenario,
                hot_policy=spec.hot_policy,
                hot_fraction=spec.hot_fraction,
                vnodes=spec.vnodes,
                persistence=bool(persistence),
                snapshot_interval=(
                    float(snapshot_interval) if snapshot_interval is not None else None
                ),
                l1_capacity=int(l1_capacity),
                tier_mode=tier_mode,
                tier_admission=spec.tier_admission,
                engine=spec.engine,
                obs_window=(
                    float(spec.obs_window) if spec.obs_window is not None else None
                ),
                slo_rules=slo_rules,
                concurrency=concurrency,
                zones=spec.zones,
                chaos=spec.chaos,
            )
        )
    return cells


def draw_spec_arguments(rng: random.Random) -> dict:
    """A random grid over all twelve factors and the four fields feeding them."""

    def some(pool, most):
        return [rng.choice(pool) for _ in range(rng.randint(1, most))]

    fleet = rng.choice(["single", "fleet", "fleet", "mixed"])
    num_nodes = {
        "single": [None],
        "fleet": some([2, 3, 4], 2),
        "mixed": rng.choice([[None, 3], [2, None], [None, None, 4]]),
    }[fleet]
    all_fleet = fleet == "fleet"
    persistence = rng.choice([[False], [True], [True, True], [False, True]])
    l1_capacities = rng.choice(
        [[0], [0, 16], [0, 0, 16], [16, 32], [16, 0]] if all_fleet else [[0]]
    )
    configs = [ConcurrencyConfig(), ConcurrencyConfig(policy="single-flight", capacity=2)]
    concurrency = rng.choice(
        [[None], [None, None], [configs[0]], [None, configs[1], None], configs, [configs[0]] * 2]
    )
    concurrent = any(entry is not None for entry in concurrency)
    return dict(
        name=f"draw-{rng.randrange(10)}",
        policies=some(["invalidate", "update", "adaptive", "ttl-expiry", "ttl-polling"], 3),
        workloads=some(
            [
                "poisson",
                "twitter",
                WorkloadSpec.of("poisson", {"num_keys": 15, "rate_per_key": 6.0}),
                WorkloadSpec.of("poisson-mix", {"num_keys": 10}),
            ],
            2,
        ),
        staleness_bounds=some([0.1, 0.5, 1, 2.0], 3),
        cache_capacities=some([None, 8, 64], 2),
        channels=some(
            [None, ChannelSpec(loss_probability=0.1), ChannelSpec(delay=0.05, retries=2)], 2
        ),
        num_nodes=num_nodes,
        replications=some([1, 2], 2),
        scenarios=rng.choice(
            [
                [None],
                [None, "node-failure"],
                ["none", ScenarioSpec.of("node-failure", {"node_index": 1})],
                ["node-failure", ScenarioSpec.of("flapping"), None],
            ]
            if all_fleet
            else [[None], ["none", None]]
        ),
        read_policy=rng.choice(["primary", "round-robin"]),
        hot_policy=rng.choice([None, "update"]) if all_fleet else None,
        hot_fraction=rng.choice([0.02, 0.1]),
        vnodes=rng.choice([16, 64]),
        persistence=persistence,
        snapshot_intervals=rng.choice([[None], [1], [None, 0.5]]) if all(persistence) else [None],
        l1_capacities=l1_capacities,
        tier_modes=(
            rng.choice([["write-through"], ["write-through", "write-back"], ["write-back"]])
            if any(l1_capacities)
            else ["write-through"]
        ),
        tier_admission=rng.choice(["second-hit", "always"]),
        engine=rng.choice(["scalar", "vector"]),
        obs_window=rng.choice([None, 1]),
        concurrency=concurrency,
        stampede_policies=(
            rng.choice([[], ["none", "single-flight"], ["single-flight"] * 2]) if concurrent else []
        ),
        service_times=(
            rng.choice([[], ["deterministic", "exponential"]]) if concurrent else []
        ),
        zones=rng.choice([1, 2]) if all_fleet else 1,
        duration=rng.choice([1, 2.0, 3.5]),
        base_seed=rng.randrange(100),
        cost_preset=rng.choice(["fixed", "cpu"]),
        cost_params=rng.choice([{}, {"miss_cost": 2.0}]),
    )


def test_table_driven_expansion_equals_the_hand_written_one_on_random_specs() -> None:
    """The same ``RunCell``s, ``==``, in the same order, on >= 200 seeded grids."""
    rng = random.Random(22)
    drawn = []
    for _ in range(260):
        arguments = draw_spec_arguments(rng)
        try:
            spec = ExperimentSpec(**arguments)
        except ConfigurationError:
            continue  # an unrunnable fleet combination (replication > nodes, ...)
        drawn.append(arguments)
        cells = spec.expand()
        assert cells == reference_expand(spec), arguments
        assert spec.num_cells == reference_num_cells(spec) == len(cells)
        assert [cell.describe() for cell in cells] == [
            cell.describe() for cell in reference_expand(spec)
        ]
    assert len(drawn) >= 200
    # The corners the factors were drawn for were in fact drawn.
    assert any(spec["concurrency"].count(None) > 1 for spec in drawn)
    assert any(0 in spec["l1_capacities"] and len(spec["tier_modes"]) > 1 for spec in drawn)
    assert any(None in spec["num_nodes"] and len(set(spec["num_nodes"])) > 1 for spec in drawn)
    assert any(
        {str, ScenarioSpec} <= {type(scenario) for scenario in spec["scenarios"]} for spec in drawn
    )
    assert any(spec["stampede_policies"] and spec["service_times"] for spec in drawn)
    assert any(spec["hot_policy"] for spec in drawn)


@pytest.mark.parametrize("processes", [1, 3])
def test_an_engine_failing_mid_walk_in_a_unit_is_named_by_its_own_cell(
    monkeypatch, tmp_path, wall_clock_limit, processes
) -> None:
    """Lockstep steps a unit's engines in turn: the one that raises as it
    comes to a window (after the step that offered it to the unit) is the
    one logged, and the sweep raises what it raised."""
    cells = lockstep_cells()
    (victim,) = [
        cell
        for cell in cells
        if (cell.policy, cell.staleness_bound, cell.num_nodes) == ("update", 0.5, 3)
    ]
    window = _Lockstep.window

    def failing(unit, engine, *cut):
        if (engine.policy_name, engine.staleness_bound, len(engine._node_list)) == (
            "update", 0.5, 3
        ):
            raise SimulationError("update stops at its first window")
        return window(unit, engine, *cut)

    monkeypatch.setattr(_Lockstep, "window", failing)
    record, logged = event_log(tmp_path / "errors.log")
    monkeypatch.setattr(runner._LOG, "error", lambda message, *args: record(message % args))
    with wall_clock_limit(60.0), pytest.raises(SimulationError, match="first window"):
        run_cells(cells, processes)
    assert multiprocessing.active_children() == [], "a sweep worker outlived the sweep"
    assert [line for _, line in logged()] == [f"cell {victim.cell_id} failed: {victim.describe()}"]
