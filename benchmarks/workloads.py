"""The six replay workloads, and the checks that each one did what it claims.

Every workload is a closed-loop batch job: ``rep()`` feeds one fixed,
seed-generated input through the public API exactly as a user would and
returns the result rows with their digests.  The same ``rep()`` runs untraced
(``tracer=None``) and traced; the tracer only adds spans around the calls
into each layer.  The sizes are the issue's, cut so one repetition takes
0.5-2 s on a 2-core box and a whole run fits the driver's time cap.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import nullcontext
from typing import Any, Dict, Iterable, List

from repro.cluster import (
    ClusterSimulation,
    ReplicationConfig,
    VectorClusterSimulation,
    make_scenario,
    replay_cluster_parallel,
)
from repro.concurrency.config import ConcurrencyConfig
from repro.experiments import (
    ExperimentSpec,
    WorkloadSpec,
    make_policy,
    run_experiment,
    write_results_csv,
    write_results_json,
)
from repro.obs.recorder import ObsConfig
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.store.snapshot import StoreConfig
from repro.tier.config import TierConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

POLICIES = ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive")

#: The program's own worker pools are the only extra processes.
WORKERS = min(2, os.cpu_count() or 1)

#: ``--smoke`` divides every request count by this.
SMOKE_DIVISOR = 20

#: Simulated seconds of the untimed cross-engine check: longer than the
#: steady workloads' staleness bound, so at least one interval flush runs.
CHECK_DURATION = 1.2

#: The store reports how long its WAL syncs and snapshots took on the host
#: inside the obs payload; they are the only wall-clock values in a row.
_WALL_CLOCK_HISTOGRAMS = ("wal_sync_seconds", "snapshot_seconds")


def canonical_json(row: Dict[str, Any]) -> str:
    """A row as canonical JSON, without the host-time store histograms."""
    obs = row.get("obs")
    if obs is not None:
        metrics = obs["metrics"]
        histograms = {
            name: value
            for name, value in metrics["histograms"].items()
            if name not in _WALL_CLOCK_HISTOGRAMS
        }
        row = {**row, "obs": {**obs, "metrics": {**metrics, "histograms": histograms}}}
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(row).encode()).hexdigest()


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def stream(tracer, workload, duration: float) -> Iterable:
    """The request stream of a scalar replay.

    Untraced it is the lazy generator, so generation interleaves with the
    replay as it does for a user.  Traced it is materialised under its own
    span, which is the only way to time generation apart from the loop from
    outside the program.
    """
    if tracer is None:
        return workload.iter_requests(duration)
    with tracer.span("workload.generate"):
        return list(workload.iter_requests(duration))


def trace_bytes(trace) -> int:
    columns = (trace.times, trace.key_ids, trace.is_read, trace.key_sizes, trace.value_sizes)
    return sum(column.nbytes for column in columns)


class Rep:
    """What one repetition produced."""

    def __init__(self) -> None:
        self.rows: Dict[str, Dict[str, Any]] = {}
        self.digests: Dict[str, str] = {}
        self.requests = 0
        #: ``used_vector_path`` of every replay requested through a vector
        #: engine, where the caller can see it.
        self.vector_used: List[bool] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}

    def mismatches(self, reference: "Rep") -> int:
        """Rows of this repetition whose digest is not the reference's."""
        return sum(
            1 for label, value in reference.digests.items() if self.digests.get(label) != value
        )

    def add(self, tracer, label: str, result) -> None:
        with span(tracer, "sim.result_export"):
            row = result if isinstance(result, dict) else result.as_dict()
            self.digests[label] = digest(row)
        self.rows[label] = row
        self.requests += row["reads"] + row["writes"]


class Workload:
    """One row of the workload table; ``BENCHMARK.json`` holds the ``why``."""

    name = ""

    def __init__(self, seed: int, divisor: int, scratch: str) -> None:
        self.seed = seed
        self.divisor = divisor
        self.scratch = scratch

    def prepare(self) -> None:
        """Untimed work before each repetition."""

    def rep(self, tracer=None) -> Rep:
        raise NotImplementedError

    def verify(self, rep: Rep) -> List[str]:
        """Claims of this workload's row in the table that ``rep`` breaks."""
        return []


def _steady_workload(seed: int, read_ratio: float = 0.9) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(
        num_keys=1000, rate_per_key=100, read_ratio=read_ratio, seed=seed
    )


def _scalar_rows(workload, duration: float, bound: float) -> Dict[str, str]:
    digests = {}
    for policy in POLICIES:
        result = Simulation(
            workload.iter_requests(duration),
            policy=make_policy(policy),
            staleness_bound=bound,
            duration=duration,
            workload_name=workload.name,
        ).run()
        digests[policy] = digest(result.as_dict())
    return digests


class SteadyVector(Workload):
    """Best case: workload.compiled and the sim.vector span kernels do nearly
    all the work and the scalar loop none, so kernel and compile changes show
    here."""

    name = "steady-vector"
    bound = 1.0

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.workload = _steady_workload(seed)
        self.duration = 10.0 / divisor  # ~1 M requests

    def _replay(self, rep: Rep, tracer, duration: float) -> None:
        workload = self.workload
        with span(tracer, "workload.compile"):
            trace = compile_workload(workload, duration)
        rep.counts["workload.trace_bytes"] = trace_bytes(trace)
        for policy in POLICIES:
            with span(tracer, f"sim.vector_replay.{policy}"):
                simulation = VectorSimulation(
                    trace,
                    policy=make_policy(policy),
                    staleness_bound=self.bound,
                    duration=duration,
                    workload_name=workload.name,
                )
                result = simulation.run()
            rep.vector_used.append(simulation.used_vector_path)
            rep.add(tracer, policy, result)

    def rep(self, tracer=None):
        rep = Rep()
        self._replay(rep, tracer, self.duration)
        return rep

    def verify(self, rep):
        problems = []
        if not all(rep.vector_used):
            problems.append("a replay left the vector path")
        check = Rep()
        duration = CHECK_DURATION / self.divisor
        self._replay(check, None, duration)
        if check.digests != _scalar_rows(self.workload, duration, self.bound):
            problems.append("vector rows differ from the scalar engine's")
        return problems


class SteadyScalar(Workload):
    """Same trace shape on the other engine: workload generation and the
    sim.simulation per-request loop dominate; the control for steady-vector."""

    name = "steady-scalar"
    bound = 1.0

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.workload = _steady_workload(seed)
        self.duration = 2.0 / divisor  # ~200 k requests

    def rep(self, tracer=None):
        rep = Rep()
        workload, duration = self.workload, self.duration
        for policy in POLICIES:
            requests = stream(tracer, workload, duration)
            with span(tracer, f"sim.scalar_replay.{policy}"):
                result = Simulation(
                    requests,
                    policy=make_policy(policy),
                    staleness_bound=self.bound,
                    duration=duration,
                    workload_name=workload.name,
                ).run()
            rep.add(tracer, policy, result)
        return rep


class FleetParallel(Workload):
    """Shard-parallel fleet replay: cluster.vector planning, fork, shard
    kernels, result pickling and the merge; pool overhead is the layer that
    works here."""

    name = "fleet-parallel"

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.workload = _steady_workload(seed)
        self.duration = 5.0 / divisor  # ~500 k requests

    def fleet(self, policy: str, duration: float) -> Dict[str, Any]:
        return dict(
            policy=policy,
            num_nodes=3,
            staleness_bound=1.0,
            replication=ReplicationConfig(factor=1),
            duration=duration,
            workload_name=self.workload.name,
            seed=self.seed,
        )

    def rep(self, tracer=None, workers: int = WORKERS):
        rep = Rep()
        with span(tracer, "workload.compile"):
            trace = compile_workload(self.workload, self.duration)
        rep.counts["workload.trace_bytes"] = trace_bytes(trace)
        merge = 0.0
        for policy in POLICIES:
            timings: Dict[str, float] = {}
            with span(tracer, "cluster.shard_replay"):
                result = replay_cluster_parallel(
                    trace, workers=workers, timings=timings,
                    **self.fleet(policy, self.duration),
                )
            merge += timings["merge_seconds"]
            rep.add(tracer, policy, result)
        rep.counts["cluster.merge_s"] = merge
        return rep

    def verify(self, rep):
        problems = []
        duration = CHECK_DURATION / self.divisor
        trace = compile_workload(self.workload, duration)
        for policy in POLICIES:
            fleet = self.fleet(policy, duration)
            vector = VectorClusterSimulation(trace, **fleet)
            rows = {
                "vector": vector.run().as_dict(),
                "parallel": replay_cluster_parallel(trace, workers=WORKERS, **fleet).as_dict(),
                "scalar": ClusterSimulation(
                    self.workload.iter_requests(duration), **fleet
                ).run().as_dict(),
            }
            if not vector.used_vector_path:
                problems.append(f"{policy}: fleet replay left the vector path")
            if len({digest(row) for row in rows.values()}) != 1:
                problems.append(f"{policy}: vector, shard-parallel and scalar rows differ")
        return problems


class FleetScenario(Workload):
    """The vector cliff: a node-failure scenario with an L1 tier is refused by
    vector_eligible(), so it replays on cluster.node, tier.l1 and hashring
    scalar code."""

    name = "fleet-scenario"
    policies = ("invalidate", "adaptive")
    #: Detect (t=14) and rejoin (t=22.5) must fire inside the run, so the
    #: horizon stays and the rate is what gets cut.
    duration = 30.0
    tier = TierConfig(l1_capacity=256, mode="write-through", admission="second-hit")

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.workload = PoissonZipfWorkload(
            num_keys=1000, rate_per_key=5.0 / divisor, seed=seed  # ~150 k requests
        )

    def replay(self, trace, policy: str, tier):
        simulation = VectorClusterSimulation(
            trace,
            policy=policy,
            num_nodes=8,
            staleness_bound=0.5,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            scenario=make_scenario("node-failure"),
            tier=tier,
            duration=self.duration,
            workload_name=self.workload.name,
            seed=self.seed,
        )
        return simulation, simulation.run()

    def rep(self, tracer=None):
        rep = Rep()
        with span(tracer, "workload.compile"):
            trace = compile_workload(self.workload, self.duration)
        rep.counts["workload.trace_bytes"] = trace_bytes(trace)
        for policy in self.policies:
            with span(tracer, "cluster.scalar_replay"):
                simulation, result = self.replay(trace, policy, self.tier)
            rep.vector_used.append(simulation.used_vector_path)
            rep.add(tracer, policy, result)
        return rep

    def verify(self, rep):
        problems = []
        if any(rep.vector_used):
            problems.append("a scenario replay took the vector path")
        for policy, row in rep.rows.items():
            if row["rebalances"] != 2:
                problems.append(f"{policy}: rebalances == {row['rebalances']}, not 2")
            if not row["l1_hits"] > 0:
                problems.append(f"{policy}: no L1 hits")
        return problems


class StatefulWrites(Workload):
    """Half the requests are writes on the scalar fleet loop with concurrency,
    obs and a store: backend fan-out, WAL appends, snapshots, the coordinator
    and the recorder carry the cost."""

    name = "stateful-writes"
    concurrency = ConcurrencyConfig(
        service_time="exponential", mean=0.002, capacity=8, policy="single-flight"
    )
    obs = ObsConfig(window=0.25)

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.workload = _steady_workload(seed, read_ratio=0.5)
        self.duration = 1.0 / divisor  # ~100 k requests
        self.store_root = os.path.join(scratch, "store")

    def prepare(self):
        shutil.rmtree(self.store_root, ignore_errors=True)
        os.makedirs(self.store_root)

    def replay(self, requests, concurrency=True, obs=True, store=True):
        return ClusterSimulation(
            requests,
            policy="invalidate",
            num_nodes=4,
            staleness_bound=0.5,
            duration=self.duration,
            workload_name=self.workload.name,
            seed=self.seed,
            concurrency=self.concurrency if concurrency else None,
            obs=self.obs if obs else None,
            store=StoreConfig(self.store_root, snapshot_interval=0.5) if store else None,
        ).run()

    def rep(self, tracer=None):
        rep = Rep()
        requests = stream(tracer, self.workload, self.duration)
        with span(tracer, "cluster.scalar_replay"):
            result = self.replay(requests)
        rep.add(tracer, "invalidate", result)
        return rep

    def verify(self, rep):
        row = rep.rows["invalidate"]
        problems = []
        if not row["coalesced_reads"] > 0:
            problems.append("no coalesced reads")
        if not row["wal_appends"] > 0:
            problems.append("no WAL appends")
        if not row["obs"]["windows"]["rows"]:
            problems.append("no obs window")
        return problems


class SweepGrid(Workload):
    """The paper's figures are sweeps: 60 short cells make experiments
    expansion, per-cell seeding, pool dispatch, row pickling and export
    dominant and replay a minority."""

    name = "sweep-grid"

    def __init__(self, seed, divisor, scratch):
        super().__init__(seed, divisor, scratch)
        self.duration = 8.0 / divisor

    def spec(self, duration: float, engine: str = "vector") -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            policies=POLICIES,
            workloads=[
                WorkloadSpec.of("poisson", {"num_keys": 300, "rate_per_key": 20}),
                "twitter",
            ],
            staleness_bounds=[0.1, 1, 10],
            num_nodes=[None, 3],
            engine=engine,
            duration=duration,
            base_seed=self.seed,
        )

    def rep(self, tracer=None):
        rep = Rep()
        with span(tracer, "experiments.run"):
            rows = run_experiment(self.spec(self.duration), processes=WORKERS)
        with span(tracer, "experiments.export"):
            write_results_json(rows, os.path.join(self.scratch, "sweep.json"))
            write_results_csv(rows, os.path.join(self.scratch, "sweep.csv"))
        for row in rows:
            rep.add(tracer, f"cell-{row['cell_id']:03d}", row)
        rep.counts["experiments.cells"] = len(rows)
        return rep

    def verify(self, rep):
        problems = []
        if len(rep.rows) != 60:
            problems.append(f"{len(rep.rows)} cells, not 60")
        # Cross-process and cross-engine identity, on cells a sixth as long.
        duration = self.duration / 6

        def sweep(engine, processes):
            rows = run_experiment(self.spec(duration, engine), processes=processes)
            for row in rows:
                del row["engine"]
            return [digest(row) for row in rows]

        pooled = sweep("vector", WORKERS)
        if pooled != sweep("vector", 1):
            problems.append("rows differ between processes=1 and the pool")
        if pooled != sweep("scalar", WORKERS):
            problems.append("vector rows differ from the scalar engine's")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (
        SteadyVector, SteadyScalar, FleetParallel, FleetScenario, StatefulWrites, SweepGrid
    )
}
