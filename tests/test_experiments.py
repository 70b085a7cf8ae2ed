"""Experiment orchestration: grid expansion, seeding, parallel runs, export."""

import csv
import json
import os

import pytest

import repro.experiments.runner as runner
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    WorkloadSpec,
    make_policy,
    make_workload,
    run_experiment,
    stable_cell_seed,
    write_results_csv,
    write_results_json,
)


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


def counting_compiles(monkeypatch, log_path):
    """Log ``pid workload`` per ``compile_workload`` call, pool workers included
    (they are forked, so they inherit the patched name)."""
    compile_workload = runner.compile_workload

    def counted(workload, duration):
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {workload.name}\n")
        return compile_workload(workload, duration)

    monkeypatch.setattr(runner, "compile_workload", counted)

    def calls():
        with open(log_path, encoding="utf-8") as handle:
            return [tuple(line.split()) for line in handle]

    return calls


def test_serial_sweep_compiles_each_distinct_trace_once(monkeypatch, tmp_path) -> None:
    calls = counting_compiles(monkeypatch, tmp_path / "compiles.log")
    rows = run_experiment(mixed_spec("vector"), processes=1)
    assert len(rows) == 8
    assert sorted(name for _, name in calls()) == ["poisson", "twitter"]


def test_scalar_sweep_compiles_nothing(monkeypatch, tmp_path) -> None:
    log = tmp_path / "compiles.log"
    log.touch()
    calls = counting_compiles(monkeypatch, log)
    run_experiment(mixed_spec("scalar"), processes=2)
    assert calls() == []


def test_one_trace_grid_still_occupies_every_worker(monkeypatch, tmp_path) -> None:
    """Sharing a trace must not serialise the grid: a one-workload sweep is
    dealt across all workers, and each compiles the trace exactly once."""
    calls = counting_compiles(monkeypatch, tmp_path / "compiles.log")
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
    pids = [pid for pid, _ in calls()]
    assert len(pids) == len(set(pids)) == 3
    assert str(os.getpid()) not in pids


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
