"""Experiment orchestration: declarative grids, parallel execution, export.

This is the layer that regenerates the paper's figures and tables at scale.
An :class:`ExperimentSpec` declares the evaluation grid (policy x workload x
staleness bound x capacity x channel), :func:`run_experiment` deals its cells
across forked worker processes with deterministic per-cell seeding, and the
export helpers persist the rows as JSON or CSV.

Typical usage::

    from repro.experiments import ExperimentSpec, run_experiment, write_results_csv

    spec = ExperimentSpec(
        name="figure5",
        policies=["ttl-expiry", "invalidate", "update", "adaptive"],
        workloads=["poisson"],
        staleness_bounds=[0.1, 1.0, 10.0],
        duration=50.0,
        base_seed=42,
    )
    rows = run_experiment(spec, processes=8)
    write_results_csv(rows, "figure5.csv")
"""

from repro.experiments.export import write_results_csv, write_results_json
from repro.experiments.registry import (
    COST_PRESETS,
    POLICY_FACTORIES,
    WORKLOAD_FACTORIES,
    make_cost_model,
    make_policy,
    make_workload,
)
from repro.experiments.runner import run_cell, run_experiment
from repro.experiments.spec import (
    ChannelSpec,
    ExperimentSpec,
    RunCell,
    ScenarioSpec,
    WorkloadSpec,
    stable_cell_seed,
)

__all__ = [
    "COST_PRESETS",
    "ChannelSpec",
    "ExperimentSpec",
    "POLICY_FACTORIES",
    "RunCell",
    "ScenarioSpec",
    "WORKLOAD_FACTORIES",
    "WorkloadSpec",
    "make_cost_model",
    "make_policy",
    "make_workload",
    "run_cell",
    "run_experiment",
    "stable_cell_seed",
    "write_results_csv",
    "write_results_json",
]
