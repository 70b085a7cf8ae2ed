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

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.experiments.export": ("write_results_csv", "write_results_json"),
    "repro.experiments.registry": (
        "COST_PRESETS", "POLICY_FACTORIES", "WORKLOAD_FACTORIES", "make_cost_model", "make_policy",
        "make_workload",
    ),
    "repro.experiments.runner": ("run_cell", "run_experiment"),
    "repro.experiments.spec": (
        "ChannelSpec", "ExperimentSpec", "RunCell", "ScenarioSpec", "WorkloadSpec",
        "stable_cell_seed",
    ),
})
