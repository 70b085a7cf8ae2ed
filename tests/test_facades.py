"""Each package is a façade that imports on first use.

A package's ``__init__`` is one table naming each export once, by its
defining module (``repro._facade``); a name is imported when it is first
read.  So ``import repro`` imports nothing else of the package, a scalar
run never loads the columnar engines or the post-hoc obs analysis, and a
columnar run loads the engine it replays on.  Each load check runs in a
fresh interpreter: this one has imported everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FACADES = ["repro"] + [
    f"repro.{name}"
    for name in (
        "backend", "cache", "cluster", "concurrency", "core", "experiments", "model", "obs",
        "perf", "resilience", "sim", "sim.vector", "sketch", "store", "tier", "workload",
    )
]

#: The columnar engines and the post-hoc obs analysis: what a scalar replay
#: never runs.
COLUMNAR = ("repro.sim.vector", "repro.cluster")
#: Every module of the columnar engine's package, which resolving
#: ``VectorSimulation`` loads.
VECTOR_MODULES = sorted(
    f"repro.sim.vector.{path.stem}"
    for path in (SRC / "repro" / "sim" / "vector").glob("*.py")
    if path.stem != "__init__"
)
ANALYSIS = ("repro.obs.analyze", "repro.obs.report", "repro.obs.slo")

README_SCALAR = """
from repro import Simulation, PoissonZipfWorkload, AdaptivePolicy, CostModel

workload = PoissonZipfWorkload(num_keys=100, rate_per_key=10.0, seed=1)
sim = Simulation(
    workload=workload.iter_requests(duration=50.0),
    policy=AdaptivePolicy(),
    staleness_bound=1.0,
    costs=CostModel(),
)
result = sim.run()
"""


def loaded_after(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def under(modules: list, prefixes) -> list:
    return [
        module for module in modules
        if any(module == prefix or module.startswith(prefix + ".") for prefix in prefixes)
    ]


def test_import_repro_imports_nothing_else_of_the_package() -> None:
    assert loaded_after("import repro") == ["repro"]


def test_the_readme_scalar_run_loads_no_columnar_engine_and_no_analysis() -> None:
    modules = loaded_after(README_SCALAR)
    assert "repro.sim.simulation" in modules
    assert under(modules, COLUMNAR + ANALYSIS) == []


def test_a_columnar_run_loads_the_columnar_engine() -> None:
    modules = loaded_after(
        "from repro.sim import VectorSimulation\n"
        "from repro import AlwaysInvalidatePolicy, PoissonZipfWorkload\n"
        "from repro.workload import compile_workload\n"
        "trace = compile_workload(PoissonZipfWorkload(num_keys=20, seed=1), 2.0)\n"
        "engine = VectorSimulation(trace, policy=AlwaysInvalidatePolicy(), staleness_bound=0.5)\n"
        "engine.run()\n"
        "assert engine.used_vector_path\n"
    )
    assert under(modules, ("repro.sim.vector",)) == ["repro.sim.vector", *VECTOR_MODULES]
    assert under(modules, ("repro.cluster",) + ANALYSIS) == []


@pytest.mark.parametrize("engine, loads", [("scalar", False), ("vector", True)])
def test_a_sweep_imports_the_columnar_engine_before_the_fork_only_for_vector_cells(
    engine: str, loads: bool
) -> None:
    """The caller imports every module of it ahead of ``fork_each``, so the
    workers inherit them rather than each compiling them again."""
    loaded = ["repro.sim.vector", *VECTOR_MODULES] if loads else []
    modules = loaded_after(
        "import sys\n"
        "import repro.experiments.runner as runner\n"
        "from repro.experiments import ExperimentSpec, WorkloadSpec, run_experiment\n"
        "fork_each = runner.fork_each\n"
        "seen = []\n"
        "def spy(*args):\n"
        "    seen.append(sorted(m for m in sys.modules if m.startswith('repro.sim.vector')))\n"
        "    return fork_each(*args)\n"
        "runner.fork_each = spy\n"
        "spec = ExperimentSpec(name='lazy', policies=['invalidate', 'update'],\n"
        "    workloads=[WorkloadSpec.of('poisson', {'num_keys': 20})],\n"
        f"    staleness_bounds=[0.5], duration=2.0, engine={engine!r})\n"
        "run_experiment(spec, processes=2)\n"
        f"assert seen == [{loaded!r}], seen\n"
    )
    assert under(modules, ("repro.sim.vector", "repro.cluster.vector")) == loaded


@pytest.mark.parametrize("name", FACADES)
def test_every_export_resolves_and_is_listed(name: str) -> None:
    facade = importlib.import_module(name)
    assert len(facade.__all__) == len(set(facade.__all__))
    listed = dir(facade)
    for export in facade.__all__:
        value = getattr(facade, export)
        assert vars(facade)[export] is value, export  # kept: the next read is plain
        assert export in listed, export
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        getattr(facade, "no_such_name")


def test_the_engines_the_runner_swaps_resolve_through_it() -> None:
    """``benchmarks/layers.py`` reads and swaps the runner's engine names."""
    import repro.experiments.runner as runner
    from repro.cluster.vector import VectorClusterSimulation
    from repro.sim.vector import VectorSimulation

    assert runner.VectorSimulation is VectorSimulation
    assert runner.VectorClusterSimulation is VectorClusterSimulation
