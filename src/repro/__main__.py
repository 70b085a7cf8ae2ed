"""Command-line entry point: ``python -m repro``.

Seven subcommands drive the experiment layer:

* ``run``     — one streamed simulation (workload x policy x bound), JSON out.
* ``sweep``   — a full experiment grid executed across worker processes.
* ``cluster`` — a sharded multi-node fleet sweep with replication, failure
  scenarios, and optional hot-key policy switching.
* ``tier``    — a tiered-fleet sweep: every node fronted by a small L1
  (``--l1-capacity`` / ``--tier-mode`` axes, admission policies, and the
  ``l2-outage`` / ``cold-l1`` scenarios).

  ``sweep``, ``cluster`` and ``tier`` are one command body over one flag
  declaration: ``cluster`` / ``tier`` add the fleet flags to ``sweep``'s, so
  ``--engine vector`` reaches the fleet kernels from all three, and an axis
  flag given no entry (``--capacities ,``) is an error on all three.
* ``perf``    — exact work counts of the hot paths (calls per request, kernel
  calls per cut, objects built per flush, bytes per request and per WAL
  record), with ``--profile NAME`` for a cProfile table.  How fast a replay
  goes is ``benchmarks/run.py``'s measurement, not this one's.
* ``store``   — the persistence layer: ``snapshot`` runs a journaled
  simulation (optionally killing it mid-run), ``recover`` rebuilds — and can
  resume and verify — from the durable state, ``inspect`` summarises a store
  directory.
* ``obs``     — observability artifacts: ``summary`` prints a recorded run's
  totals, window series, and latency percentiles; ``tail`` shows the last
  span/event records (``--since``/``--node`` filters); ``export`` re-emits
  windows or metrics as JSONL, CSV, or Prometheus text; ``diff`` aligns two
  runs window-by-window and ranks metric regressions (``--baseline`` gates
  against the committed ``OBS_BASELINE.json``, refreshed by
  ``scripts/check_obs.py``); ``check`` evaluates declarative SLO rules
  (exit 0 pass / 2 violation); ``report`` renders a self-contained HTML
  page with sparklines and the anomaly/SLO tables.  Record a run with
  ``run --obs --obs-dir DIR``.

``-v/--verbose`` and ``-q/--quiet`` (before the subcommand) set the log
level for the ``repro`` logger tree; library progress goes through
:mod:`logging`, result payloads through stdout.

Examples::

    python -m repro run --workload poisson --policy adaptive --bound 1.0
    python -m repro run --policy invalidate --obs --obs-window 0.5 --obs-dir obs-run
    python -m repro obs summary --dir obs-run
    python -m repro obs export --dir obs-run --format prom
    python -m repro obs diff --dir obs-run --against obs-baseline-run
    python -m repro obs check --dir obs-run --rules OBS_RULES.json
    python -m repro obs report --dir obs-run --rules OBS_RULES.json --output report.html
    python -m repro sweep --policies ttl-expiry,invalidate,update,adaptive \
        --workloads poisson,poisson-mix --bounds 0.1,1,10 --csv sweep.csv
    python -m repro cluster --nodes 8 --replication 2 --scenario node-failure \
        --policies invalidate,adaptive --bounds 0.5 --duration 20 --csv fleet.csv
    python -m repro cluster --nodes 4 --policies invalidate,adaptive --bounds 0.5 \
        --engine vector --json fleet-vector.json
    python -m repro tier --nodes 8 --l1-capacity 0,64,256 --tier-mode \
        write-through,write-back --policies invalidate --bounds 0.5 --csv tier.csv
    python -m repro tier --nodes 4 --l1-capacity 128 --scenario l2-outage \
        --policies invalidate --bounds 0.5 --duration 20
    python -m repro perf --only replay-single,flush --json PERF.json
    python -m repro store snapshot --dir run-store --duration 12 \
        --snapshot-interval 2 --kill-at 6
    python -m repro store recover --dir run-store --resume --verify
    python -m repro store inspect --dir run-store
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.log import configure_logging
from repro.cluster.cluster import ClusterSimulation
from repro.concurrency.config import (
    SERVICE_TIME_DISTRIBUTIONS,
    STAMPEDE_POLICIES,
    ConcurrencyConfig,
)
from repro.cluster.replication import READ_POLICIES
from repro.cluster.scenarios import SCENARIO_FACTORIES
from repro.errors import ClusterError, ConfigurationError, ReproError
from repro.experiments.export import write_results_csv, write_results_json
from repro.experiments.registry import POLICY_FACTORIES, WORKLOAD_FACTORIES
from repro.experiments.runner import build_simulation, run_cell, run_experiment
from repro.experiments.spec import (
    ENGINES,
    ChannelSpec,
    ExperimentSpec,
    RunCell,
    ScenarioSpec,
    WorkloadSpec,
    stable_cell_seed,
)
from repro.store.format import WalScan, scan_wal
from repro.store.migrate import RUN_CONFIG_FORMAT, upgrade
from repro.store.recovery import recover_datastore
from repro.store.snapshot import StoreConfig, list_snapshots, load_snapshot
from repro.tier.config import ADMISSION_POLICIES, TIER_MODES

_LOG = logging.getLogger("repro.cli")


def _parse_params(pairs: Optional[Sequence[str]]) -> Dict[str, Any]:
    """Parse repeated ``key=value`` options; values are JSON when possible."""
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _csv_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _capacity(text: str) -> Optional[int]:
    return None if text.lower() in ("none", "inf", "unbounded") else int(text)


def _axis(entry: Callable[[str], Any], name: str) -> Callable[[str], List[Any]]:
    """Argparse type for a comma-separated grid axis, each entry parsed by
    ``entry``.  A list with no entry stays empty: the spec names the axis."""

    def parse(text: str) -> List[Any]:
        values = []
        for item in _csv_list(text):
            try:
                values.append(entry(item))
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid {name} entry: {item!r}") from None
        return values

    return parse


def _positive_float(text: str) -> float:
    """Argparse type for durations/bounds/scales that must be positive and finite."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def _worker_count(text: str) -> int:
    """Argparse type for ``--processes``: ``0`` and ``1`` both mean serial."""
    value = int(text)  # a ValueError is argparse's own "invalid value" error
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return value


def _cli_concurrency(
    args: argparse.Namespace,
) -> Tuple[Optional[ConcurrencyConfig], List[str], List[str]]:
    """The in-flight fetch model a command line asks for.

    Returns ``(base config or None, stampede-policy axis, service-time
    axis)``.  The knob flags only take effect together with
    ``--concurrency``; passing one without it is an error rather than a
    silent no-op.
    """
    set_flags = [
        name
        for name, value in (
            ("--stampede-policy", args.stampede_policy),
            ("--service-time", args.service_time),
            ("--service-mean", args.service_mean),
            ("--backend-capacity", args.backend_capacity),
        )
        if value is not None
    ]
    if not args.concurrency:
        if set_flags:
            raise SystemExit(
                f"{set_flags[0]} only takes effect together with --concurrency"
            )
        return None, [], []
    base = ConcurrencyConfig(
        mean=args.service_mean if args.service_mean is not None else 0.05,
        capacity=args.backend_capacity if args.backend_capacity is not None else 4,
    )
    return base, _csv_list(args.stampede_policy or ""), _csv_list(args.service_time or "")


def _single_concurrency(args: argparse.Namespace) -> Optional[ConcurrencyConfig]:
    """One concrete config for the single-run command (no axes to sweep)."""
    base, policies, services = _cli_concurrency(args)
    if base is None:
        return None
    if len(policies) > 1 or len(services) > 1:
        raise SystemExit(
            "run executes one simulation: pass a single --stampede-policy / "
            "--service-time (sweep them on the sweep/cluster/tier subcommands)"
        )
    return replace(
        base,
        policy=policies[0] if policies else base.policy,
        service_time=services[0] if services else base.service_time,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    seed = stable_cell_seed(args.seed, args.workload, params, args.duration)
    obs_window = None
    if args.obs or args.obs_window is not None or args.obs_dir is not None:
        obs_window = args.obs_window if args.obs_window is not None else 1.0
    cell = RunCell(
        experiment="cli-run",
        cell_id=0,
        policy=args.policy,
        workload=args.workload,
        workload_params=tuple(sorted(params.items())),
        staleness_bound=args.bound,
        cache_capacity=args.capacity,
        channel=None,
        duration=args.duration,
        seed=seed,
        obs_window=obs_window,
        concurrency=_single_concurrency(args),
    )
    row = run_cell(cell)
    if args.obs_dir is not None:
        from repro.obs.export import write_run

        # The artifact set replaces the inline payload: the result row stays
        # readable and the telemetry lands where ``obs summary`` expects it.
        written = write_run(row.pop("obs"), args.obs_dir)
        row["obs_dir"] = args.obs_dir
        for path in written.values():
            _LOG.info("wrote %s", path)
    text = json.dumps(row, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _build_spec(**kwargs: Any) -> ExperimentSpec:
    """Construct an experiment spec, turning validation errors into clean
    CLI messages instead of tracebacks out of a worker mid-sweep."""
    try:
        return ExperimentSpec(**kwargs)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_grid(args: argparse.Namespace) -> int:
    """The one body of ``sweep``, ``cluster`` and ``tier``: flags to spec, run, export.

    ``sweep`` declares the grid flags only; the fleet flags (and ``tier``'s
    three) are read where their subcommand declares them.
    """
    fleet = args.command != "sweep"
    if args.snapshot_interval is not None and not args.persist:
        raise SystemExit("--snapshot-interval only takes effect together with --persist")
    params = _parse_params(args.param)
    concurrency, stampede_policies, service_times = _cli_concurrency(args)
    obs_dir = args.obs_dir if fleet else None
    obs_window = args.obs_window
    if obs_dir is not None and obs_window is None:
        obs_window = 1.0
    slo_rules = None
    if args.slo_rules is not None:
        from repro.obs.slo import load_rules

        try:
            slo_rules = load_rules(args.slo_rules)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
        if obs_window is None:
            raise SystemExit("--slo-rules needs --obs-window (verdicts read the obs payload)")
    axes: Dict[str, Any] = dict(
        name=args.name,
        policies=_csv_list(args.policies),
        workloads=[WorkloadSpec.of(name, params) for name in _csv_list(args.workloads)],
        staleness_bounds=args.bounds,
        cache_capacities=args.capacities,
        persistence=[args.persist],
        snapshot_intervals=[args.snapshot_interval] if args.persist else [None],
        duration=args.duration,
        base_seed=args.seed,
        cost_preset=args.cost_preset,
        engine=args.engine,
        obs_window=obs_window,
        slo_rules=slo_rules,
        concurrency=[concurrency],
        stampede_policies=stampede_policies,
        service_times=service_times,
    )
    if fleet:
        axes.update(_fleet_axes(args))
    if args.command == "tier":
        axes.update(
            l1_capacities=args.l1_capacity,
            tier_modes=_csv_list(args.tier_mode),
            tier_admission=args.admission,
        )
    spec = _build_spec(**axes)
    _LOG.info("%s '%s': %d cells", args.command, spec.name, spec.num_cells)
    if obs_dir is not None and spec.num_cells != 1:
        raise SystemExit(
            f"--obs-dir records one run's telemetry but this sweep expands to "
            f"{spec.num_cells} cells; narrow every axis to a single value"
        )
    rows = run_experiment(spec, processes=args.processes)
    if obs_dir is not None:
        from repro.obs.export import write_run

        written = write_run(rows[0].pop("obs"), obs_dir)
        rows[0]["obs_dir"] = obs_dir
        for path in written.values():
            _LOG.info("wrote %s", path)
    wrote = False
    if args.json:
        write_results_json(rows, args.json, metadata={"spec": spec.name, "cells": len(rows)})
        print(f"wrote {args.json}")
        wrote = True
    if args.csv:
        write_results_csv(rows, args.csv)
        print(f"wrote {args.csv}")
        wrote = True
    if not wrote:
        print(json.dumps(rows, indent=2))
    return 0


def _fleet_axes(args: argparse.Namespace) -> Dict[str, Any]:
    """The spec fields the fleet flags of ``cluster`` / ``tier`` fill."""
    if args.hot_fraction is not None and args.hot_policy is None:
        raise SystemExit(
            "--hot-fraction only takes effect together with --hot-policy "
            "(hot-key detection feeds the per-shard policy switch)"
        )
    scenario_params = _parse_params(args.scenario_param)
    scenarios: List[Optional[ScenarioSpec]] = [
        None if name == "none" else ScenarioSpec.of(name, scenario_params)
        for name in _csv_list(args.scenarios)
    ]
    if scenario_params and len(scenarios) - scenarios.count(None) > 1:
        raise SystemExit(
            "--scenario-param applies to every scenario; with several scenarios "
            "on the axis their constructors differ — sweep one scenario at a time"
        )
    # Any flag off its default makes a channel spec; the experiment spec checks it.
    channel = ChannelSpec(
        loss_probability=args.channel_loss,
        delay=args.channel_delay,
        jitter=args.channel_jitter,
        retries=args.channel_retries,
        retry_timeout=args.channel_retry_timeout,
        retry_backoff=args.channel_retry_backoff,
    )
    if channel == ChannelSpec():
        channel = None
    chaos = None
    if args.chaos_seed is not None:
        from repro.resilience.chaos import ChaosSpec

        try:
            chaos = ChaosSpec(
                seed=args.chaos_seed,
                faults=args.chaos_faults,
                kinds=tuple(_csv_list(args.chaos_kinds)),
                window=args.chaos_window,
                loss=args.chaos_loss,
                delay=args.chaos_delay,
                slowdown=args.chaos_slowdown,
            )
        except ClusterError as exc:
            raise SystemExit(str(exc)) from exc
    return dict(
        channels=[channel],
        num_nodes=args.nodes,
        replications=args.replication,
        scenarios=scenarios,
        read_policy=args.read_policy,
        hot_policy=args.hot_policy,
        hot_fraction=args.hot_fraction if args.hot_fraction is not None else 0.02,
        vnodes=args.vnodes,
        zones=args.zones,
        chaos=chaos,
    )


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.perf import MICROBENCHES, profile_call, run_perf

    if (args.json or args.only) and (args.list or args.profile):
        raise SystemExit(
            "--json/--only configure a perf run; they cannot be combined "
            "with --list or --profile"
        )
    if args.list:
        for name in MICROBENCHES:
            print(name)
        return 0
    names = _csv_list(args.only) if args.only else None
    if args.profile:
        if args.profile not in MICROBENCHES:
            raise SystemExit(
                f"unknown benchmark {args.profile!r}; choose from "
                + ", ".join(MICROBENCHES)
            )
        print(profile_call(lambda: MICROBENCHES[args.profile](args.scale)))
        return 0
    try:
        record = run_perf(names=names, scale=args.scale)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from exc
    for row in record["results"]:
        counts = {key: value for key, value in row.items() if key != "name"}
        print(f"{row['name']:>20}: {json.dumps(counts)}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


# --------------------------------------------------------------------- #
# ``store`` subcommands: snapshot / recover / inspect
# --------------------------------------------------------------------- #

#: Row keys that describe persistence bookkeeping rather than simulation
#: state.  A crash checkpoint off the snapshot grid adds exactly one extra
#: snapshot + flush, so ``recover --verify`` compares everything else.
_STORE_BOOKKEEPING_KEYS = frozenset(
    {"store", "persistence_cost", "wal_appends", "wal_flushes", "snapshots_taken",
     "interrupted"}
)

_RUN_CONFIG_NAME = "RUN.json"
#: The fields of a run config, in the order ``store snapshot`` writes them.
_RUN_CONFIG_FIELDS = (
    "format", "workload", "workload_params", "policy", "bound", "duration", "nodes",
    "replication", "snapshot_interval", "kill_at", "l1_capacity", "tier_mode", "cell_seed",
)


def _store_cluster(config: Dict[str, Any], store: StoreConfig) -> ClusterSimulation:
    """Build the journaled cluster a ``store`` run config describes, through
    the runner's one cell -> engine mapping."""
    cell = RunCell(
        experiment="store",
        cell_id=0,
        policy=config["policy"],
        workload=config["workload"],
        workload_params=tuple(sorted(config["workload_params"].items())),
        staleness_bound=config["bound"],
        cache_capacity=None,
        channel=None,
        duration=config["duration"],
        seed=config["cell_seed"],
        num_nodes=config["nodes"],
        replication=config["replication"],
        l1_capacity=config["l1_capacity"],
        tier_mode=config["tier_mode"],
    )
    return build_simulation(cell, store)


def _cmd_store_snapshot(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if root.exists() and not root.is_dir():
        raise SystemExit(f"{root} exists and is not a directory")
    if root.is_dir() and any(root.iterdir()):
        raise SystemExit(f"store dir {root} is not empty; pick a fresh directory")
    if args.kill_at is not None and not 0 < args.kill_at < args.duration:
        raise SystemExit(
            f"--kill-at must fall inside the run (0, {args.duration}), got {args.kill_at}"
        )
    params = _parse_params(args.param)
    config = {
        "format": RUN_CONFIG_FORMAT,
        "workload": args.workload,
        "workload_params": params,
        "policy": args.policy,
        "bound": args.bound,
        "duration": args.duration,
        "nodes": args.nodes,
        "replication": args.replication,
        "snapshot_interval": args.snapshot_interval,
        "kill_at": args.kill_at,
        "l1_capacity": args.l1_capacity,
        "tier_mode": args.tier_mode,
        "cell_seed": stable_cell_seed(args.seed, args.workload, params, args.duration),
    }
    store = StoreConfig(str(root), snapshot_interval=args.snapshot_interval)
    cluster = _store_cluster(config, store)
    # The run config is written before the run so a "crashed" store is still
    # self-describing for ``recover --resume``.
    root.mkdir(parents=True, exist_ok=True)
    (root / _RUN_CONFIG_NAME).write_text(json.dumps(config, indent=2) + "\n")
    result = cluster.run(stop_at=args.kill_at)
    row = result.as_dict()
    row.pop("nodes", None)
    print(json.dumps(row, indent=2))
    status = "interrupted at t={}".format(args.kill_at) if result.interrupted else "completed"
    _LOG.info("store %s: %s", status, root)
    return 0


def _load_run_config(root: Path) -> Dict[str, Any]:
    path = root / _RUN_CONFIG_NAME
    if not path.exists():
        raise SystemExit(
            f"{path} not found: this store was not created by 'store snapshot', "
            "so the run cannot be reconstructed (datastore-only recovery still "
            "works via 'store recover' without --resume)"
        )
    try:
        config = json.loads(path.read_text())
    except ValueError as exc:
        raise SystemExit(f"{path} is not a valid run config: {exc}") from None
    if not isinstance(config, dict):
        raise SystemExit(
            f"{path} is not a valid run config: expected a JSON object, "
            f"got a {type(config).__name__}"
        )
    config = upgrade(config, path)
    missing = [name for name in _RUN_CONFIG_FIELDS if name not in config]
    if missing:
        raise SystemExit(
            f"{path} is not a valid run config: missing {', '.join(map(repr, missing))}"
        )
    return config


def _cmd_store_recover(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise SystemExit(f"no store directory at {root}")
    output: Dict[str, Any] = {}
    exit_code = 0
    if args.resume:
        config = _load_run_config(root)
        resumed = _store_cluster(
            config, StoreConfig(str(root), snapshot_interval=config["snapshot_interval"])
        )
        # The resume's own recovery pass doubles as the report: no second
        # snapshot parse + WAL replay just for the summary.
        output["recovery"] = resumed.restore_from_store().as_dict()
        row = resumed.run().as_dict()
        row.pop("nodes", None)
        output["result"] = row
        if args.verify:
            with tempfile.TemporaryDirectory(prefix="repro-verify-") as scratch:
                reference = _store_cluster(
                    config,
                    StoreConfig(scratch, snapshot_interval=config["snapshot_interval"]),
                )
                reference_row = reference.run().as_dict()
            reference_row.pop("nodes", None)
            mismatches = {
                key: {"uninterrupted": reference_row.get(key), "recovered": row.get(key)}
                for key in set(reference_row) | set(row)
                if key not in _STORE_BOOKKEEPING_KEYS
                and reference_row.get(key) != row.get(key)
            }
            output["verify"] = {
                "matches": not mismatches,
                "mismatches": mismatches,
            }
            if mismatches:
                exit_code = 1
    elif args.verify:
        raise SystemExit("--verify needs --resume (it compares the finished runs)")
    else:
        _datastore, report = recover_datastore(root)
        output["recovery"] = report.as_dict()
    print(json.dumps(output, indent=2))
    if args.resume and args.verify:
        verdict = "identical" if exit_code == 0 else "DIVERGED"
        _LOG.info("recovered run vs uninterrupted run: %s", verdict)
    return exit_code


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise SystemExit(f"no store directory at {root}")
    scan = WalScan()
    kinds: Dict[str, int] = {}
    first_lsn = 0
    for record in scan_wal(StoreConfig(str(root)).wal_path, scan):
        kinds[record["k"]] = kinds.get(record["k"], 0) + 1
        if first_lsn == 0:
            first_lsn = int(record["lsn"])
    snapshots = []
    for path in list_snapshots(root):
        snapshot = load_snapshot(path)
        snapshots.append(
            {
                "seq": snapshot.seq,
                "format": snapshot.format,
                "time": snapshot.time,
                "wal_lsn": snapshot.wal_lsn,
                "nodes": sorted(snapshot.nodes),
                "keys": len(snapshot.datastore.get("histories", {})),
            }
        )
    print(
        json.dumps(
            {
                "wal": {
                    "records": scan.records,
                    "first_lsn": first_lsn,
                    "last_lsn": scan.last_lsn,
                    "torn_bytes": scan.torn_bytes,
                    "writes": kinds.get("w", 0),
                    "read_deltas": kinds.get("r", 0),
                    "messages": kinds.get("m", 0),
                },
                "snapshots": snapshots,
            },
            indent=2,
        )
    )
    return 0


# --------------------------------------------------------------------- #
# ``obs`` subcommands: summary / tail / export
# --------------------------------------------------------------------- #

def _load_obs_run(directory: str) -> Dict[str, Any]:
    from repro.obs.export import load_run

    try:
        return load_run(directory)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs.export import summarize

    print(summarize(_load_obs_run(args.dir)))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    payload = _load_obs_run(args.dir)
    records = payload.get("trace", [])
    if args.events_only:
        records = [record for record in records if record.get("type") == "event"]
    if args.since is not None:
        records = [
            record for record in records if record.get("time", 0.0) >= args.since
        ]
    if args.node is not None:
        records = [record for record in records if record.get("node") == args.node]
    for record in records[-args.limit:] if args.limit > 0 else records:
        print(json.dumps(record, sort_keys=True))
    return 0


def _load_obs_reference(args: argparse.Namespace) -> Dict[str, Any]:
    """The diff reference: another run directory or a committed baseline file."""
    if getattr(args, "against", None) is not None:
        return _load_obs_run(args.against)
    if args.baseline is None:
        raise SystemExit("a diff reference is required: --against DIR or --baseline FILE")
    path = args.baseline
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read baseline {path!r}: {exc}") from exc
    if record.get("kind") == "repro-obs-baseline":
        record = record.get("payload", {})
    if record.get("kind") != "repro-obs":
        raise SystemExit(f"{path!r} is not an obs baseline or payload")
    return record


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import diff_payloads

    payload = _load_obs_run(args.dir)
    reference = _load_obs_reference(args)
    try:
        report = diff_payloads(
            reference,
            payload,
            min_delta=args.min_delta,
            min_relative=args.min_relative,
            top=args.top,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    count = report["regression_count"]
    print(
        f"diff: {report['windows_compared']} windows compared, "
        f"{count} regressions, {report['improvement_count']} improvements"
    )
    for record in report["regressions"][:10]:
        event = record.get("event") or {}
        annotation = (
            f" near {event.get('kind')}:{event.get('label')}@t={event.get('time')}"
            if event
            else ""
        )
        print(
            f"  {record['field']} worsened by {record['severity']:g} in "
            f"t=[{record['start']:g}, {record['end']:g}) "
            f"(node={record['node']}, phase={record['phase']}){annotation}"
        )
    if count and args.fail_on_regression:
        return 2
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from repro.obs.slo import evaluate_slo, load_rules

    payload = _load_obs_run(args.dir)
    try:
        rules = load_rules(args.rules)
        verdict = evaluate_slo(payload, rules)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(verdict, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    for row in verdict["verdicts"]:
        status = "PASS" if row["ok"] else "FAIL"
        print(f"  [{status}] {row['name']}: {row['detail']}")
    if verdict["passed"]:
        print(f"slo: PASS ({len(verdict['verdicts'])} rules)")
        return 0
    print(f"slo: FAIL ({len(verdict['violations'])} violations)")
    return 2


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import detect_anomalies, diff_payloads
    from repro.obs.report import render_report
    from repro.obs.slo import evaluate_slo, load_rules

    payload = _load_obs_run(args.dir)
    anomalies = detect_anomalies(payload, threshold=args.anomaly_threshold)
    slo = None
    if args.rules:
        try:
            slo = evaluate_slo(payload, load_rules(args.rules), anomalies=anomalies)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
    diff = None
    if args.against is not None or args.baseline is not None:
        try:
            diff = diff_payloads(_load_obs_reference(args), payload)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    html_text = render_report(
        payload, anomalies=anomalies, slo=slo, diff=diff, title=args.title
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(html_text)
    print(f"wrote {args.output}")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        export_prometheus,
        export_trace_jsonl,
        export_windows_csv,
        export_windows_jsonl,
    )

    payload = _load_obs_run(args.dir)
    exporters = {
        "jsonl": export_windows_jsonl,
        "csv": export_windows_csv,
        "prom": export_prometheus,
        "trace": export_trace_jsonl,
    }
    text = exporters[args.format](payload)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cache-freshness simulation pipeline and experiment runner.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug logging on the repro logger tree")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only (suppresses progress logging)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_concurrency_arguments(sub: argparse.ArgumentParser, axis: bool) -> None:
        """The in-flight fetch model flags shared by run/sweep/cluster/tier.

        ``axis`` widens --stampede-policy / --service-time to comma-separated
        sweep axes on the grid subcommands.
        """
        plural = ", comma separated" if axis else ""
        sub.add_argument(
            "--concurrency", action="store_true",
            help="model in-flight backend fetches: misses occupy the backend "
                 "for a sampled service time (finite FIFO fetch slots), "
                 "stampede policies mitigate duplicate fetches, and per-read "
                 "latency percentiles join the results")
        sub.add_argument(
            "--stampede-policy", default=None,
            help=f"stampede mitigation{plural}: "
                 + ", ".join(STAMPEDE_POLICIES) + " (default none)")
        sub.add_argument(
            "--service-time", default=None,
            help=f"backend service-time distribution{plural}: "
                 + ", ".join(SERVICE_TIME_DISTRIBUTIONS)
                 + " (default deterministic)")
        sub.add_argument(
            "--service-mean", type=_positive_float, default=None,
            help="mean backend service time in simulated seconds (default 0.05)")
        sub.add_argument(
            "--backend-capacity", type=int, default=None,
            help="concurrent backend fetch slots (default 4)")

    run = subparsers.add_parser("run", help="run one streamed simulation")
    run.add_argument("--workload", default="poisson", choices=sorted(WORKLOAD_FACTORIES))
    run.add_argument("--policy", default="adaptive", choices=sorted(POLICY_FACTORIES))
    run.add_argument("--bound", type=_positive_float, default=1.0,
                     help="staleness bound T (seconds)")
    run.add_argument("--duration", type=_positive_float, default=10.0,
                     help="trace duration (seconds)")
    run.add_argument("--capacity", type=_capacity, default=None, help="cache capacity (objects)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="workload constructor parameter (repeatable)")
    run.add_argument("--output", help="write the result JSON here instead of stdout")
    run.add_argument("--obs", action="store_true",
                     help="record windowed telemetry, spans, and events "
                          "(results stay byte-identical)")
    run.add_argument("--obs-window", type=_positive_float, default=None,
                     help="telemetry window width in simulated seconds "
                          "(implies --obs; default 1.0)")
    run.add_argument("--obs-dir", default=None,
                     help="write the obs artifact set (OBS_RUN.json, "
                          "windows.jsonl, trace.jsonl, metrics.prom) into "
                          "this directory (implies --obs)")
    add_concurrency_arguments(run, axis=False)
    run.set_defaults(func=_cmd_run)

    def add_grid_arguments(
        grid: argparse.ArgumentParser, name: str, policies: str, bounds: str
    ) -> None:
        """The flags of every grid subcommand — all that ``sweep`` accepts —
        declared once; the three defaults are the ones that differ per
        subcommand."""
        grid.add_argument("--name", default=name)
        grid.add_argument("--policies", default=policies)
        grid.add_argument("--workloads", default="poisson")
        grid.add_argument("--bounds", type=_axis(float, "float"), default=bounds)
        grid.add_argument("--capacities", type=_axis(_capacity, "capacity"), default="none")
        grid.add_argument("--duration", type=_positive_float, default=10.0)
        grid.add_argument("--persist", action="store_true",
                          help="run every cell with a write-ahead log + snapshots "
                               "(store counters join the rows)")
        grid.add_argument("--snapshot-interval", type=_positive_float, default=None,
                          help="snapshot cadence for --persist cells (default: final only)")
        grid.add_argument("--seed", type=int, default=0)
        grid.add_argument("--engine", default="scalar", choices=ENGINES,
                          help="replay engine for every cell: streamed scalar or "
                               "compiled columnar (byte-identical rows)")
        grid.add_argument("--cost-preset", default="fixed",
                          choices=["fixed", "cpu", "network", "latency"])
        grid.add_argument("--processes", type=_worker_count, default=None,
                          help="worker processes (default: one per CPU, 1 = serial)")
        grid.add_argument("--param", action="append", metavar="KEY=VALUE",
                          help="workload constructor parameter applied to every workload")
        grid.add_argument("--obs-window", type=_positive_float, default=None,
                          help="record windowed telemetry for every cell into the "
                               "row's obs key (results stay byte-identical)")
        grid.add_argument("--slo-rules", default=None, metavar="FILE",
                          help="evaluate these SLO rules against every cell's obs "
                               "payload into the row's slo key (needs --obs-window)")
        add_concurrency_arguments(grid, axis=True)
        grid.add_argument("--json", help="write results JSON here")
        grid.add_argument("--csv", help="write results CSV here")
        grid.set_defaults(func=_cmd_grid)

    def add_fleet_arguments(fleet: argparse.ArgumentParser) -> None:
        """The flags ``cluster`` and ``tier`` add to the grid flags."""
        fleet.add_argument("--nodes", type=_axis(int, "int"), default="8",
                           help="fleet-size axis, comma separated (e.g. 4,8,16)")
        fleet.add_argument("--replication", type=_axis(int, "int"), default="1",
                           help="replication-factor axis, comma separated")
        fleet.add_argument("--scenario", dest="scenarios", default="none",
                           help="scenario axis, comma separated: none, "
                                + ", ".join(sorted(SCENARIO_FACTORIES)))
        fleet.add_argument("--scenario-param", action="append", metavar="KEY=VALUE",
                           help="scenario constructor parameter (repeatable)")
        fleet.add_argument("--read-policy", default="primary", choices=READ_POLICIES)
        fleet.add_argument("--hot-policy", default=None,
                           choices=[name for name in sorted(POLICY_FACTORIES)
                                    if not getattr(POLICY_FACTORIES[name], "needs_future",
                                                   False)],
                           help="freshness policy applied to detected hot keys per shard")
        fleet.add_argument("--hot-fraction", type=float, default=None,
                           help="traffic share a key needs to be flagged hot on a shard "
                                "(requires --hot-policy; default 0.02)")
        fleet.add_argument("--vnodes", type=int, default=64,
                           help="virtual nodes per physical node on the hash ring")
        fleet.add_argument("--channel-loss", type=float, default=0.0)
        fleet.add_argument("--channel-delay", type=float, default=0.0)
        fleet.add_argument("--channel-jitter", type=float, default=0.0)
        fleet.add_argument("--channel-retries", type=int, default=0,
                           help="sender re-attempts against probabilistic channel "
                                "loss (0 = fire-and-forget)")
        fleet.add_argument("--channel-retry-timeout", type=float, default=0.0,
                           help="seconds an attempt waits before retrying")
        fleet.add_argument("--channel-retry-backoff", type=float, default=0.0,
                           help="exponential backoff base added per retry")
        fleet.add_argument("--zones", type=int, default=1,
                           help="failure domains labeled round-robin over the ring "
                                "(zone-outage needs >= 2; labels never move keys)")
        fleet.add_argument("--chaos-seed", type=int, default=None,
                           help="enable seeded chaos injection with this plan seed")
        fleet.add_argument("--chaos-faults", type=int, default=4,
                           help="fault budget of the chaos plan (needs --chaos-seed)")
        fleet.add_argument("--chaos-kinds", default="delay,drop,slow-node,crash",
                           help="fault kinds to draw from, comma separated: "
                                "delay, drop, slow-node, crash")
        fleet.add_argument("--chaos-window", type=float, default=0.1,
                           help="fraction of the run each windowed fault lasts")
        fleet.add_argument("--chaos-loss", type=float, default=0.5,
                           help="partial loss rate of drop faults")
        fleet.add_argument("--chaos-delay", type=float, default=0.5,
                           help="extra channel delay of delay faults (seconds)")
        fleet.add_argument("--chaos-slowdown", type=float, default=4.0,
                           help="service-time multiplier of slow-node faults")
        fleet.add_argument("--obs-dir", default=None,
                           help="write the obs artifact set for a single-cell "
                                "sweep into this directory (implies --obs-window 1.0)")

    sweep = subparsers.add_parser("sweep", help="run an experiment grid in parallel")
    add_grid_arguments(
        sweep, "sweep", "ttl-expiry,ttl-polling,invalidate,update,adaptive", "0.1,1.0,10.0"
    )

    cluster = subparsers.add_parser(
        "cluster", help="run a sharded multi-node fleet sweep"
    )
    add_grid_arguments(cluster, "cluster", "invalidate,update,adaptive", "1.0")
    add_fleet_arguments(cluster)

    tier = subparsers.add_parser(
        "tier", help="run a tiered (L1/L2) fleet sweep"
    )
    add_grid_arguments(tier, "tier", "invalidate,update,adaptive", "1.0")
    add_fleet_arguments(tier)
    tier.add_argument("--l1-capacity", type=_axis(int, "int"), default="256",
                      help="L1-capacity axis, comma separated (objects per node; "
                           "0 = single-tier baseline)")
    tier.add_argument("--tier-mode", default="write-through",
                      help="tier fill-mode axis, comma separated: "
                           + ", ".join(TIER_MODES))
    tier.add_argument("--admission", default="second-hit", choices=ADMISSION_POLICIES,
                      help="L1 admission policy (default: second-hit)")

    perf = subparsers.add_parser(
        "perf", help="count the work of the replay hot-path components"
    )
    perf.add_argument("--list", action="store_true", help="list benchmark names and exit")
    perf.add_argument("--only", default=None,
                      help="comma-separated benchmark names (default: all)")
    perf.add_argument("--scale", type=_positive_float, default=1.0,
                      help="multiplier on every benchmark's operation count")
    perf.add_argument("--profile", metavar="NAME", default=None,
                      help="run one benchmark under cProfile and print the table")
    perf.add_argument("--json", help="write the perf record JSON here")
    perf.set_defaults(func=_cmd_perf)

    store = subparsers.add_parser(
        "store", help="durable persistence: snapshot / recover / inspect"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    snapshot = store_sub.add_parser(
        "snapshot",
        help="run a journaled simulation into a store dir (optionally killing it mid-run)",
    )
    snapshot.add_argument("--dir", required=True, help="store directory (must be empty)")
    snapshot.add_argument("--workload", default="poisson", choices=sorted(WORKLOAD_FACTORIES))
    snapshot.add_argument("--policy", default="invalidate",
                          choices=[name for name in sorted(POLICY_FACTORIES)
                                   if not getattr(POLICY_FACTORIES[name], "needs_future", False)])
    snapshot.add_argument("--bound", type=_positive_float, default=1.0)
    snapshot.add_argument("--duration", type=_positive_float, default=10.0)
    snapshot.add_argument("--nodes", type=int, default=1,
                          help="fleet size (1 = single-cache-equivalent node)")
    snapshot.add_argument("--replication", type=int, default=1)
    snapshot.add_argument("--snapshot-interval", type=_positive_float, default=None,
                          help="snapshot cadence (default: checkpoint only at the end/kill)")
    snapshot.add_argument("--kill-at", type=_positive_float, default=None,
                          help="crash the run at this simulated time after a durable checkpoint")
    snapshot.add_argument("--l1-capacity", type=int, default=0,
                          help="front every node with an L1 of this many objects "
                               "(0 = single-tier; L1 state is checkpointed too)")
    snapshot.add_argument("--tier-mode", default="write-through", choices=TIER_MODES,
                          help="tier fill mode when --l1-capacity > 0")
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--param", action="append", metavar="KEY=VALUE",
                          help="workload constructor parameter (repeatable)")
    snapshot.set_defaults(func=_cmd_store_snapshot)

    recover = store_sub.add_parser(
        "recover", help="rebuild the datastore from snapshot + WAL replay"
    )
    recover.add_argument("--dir", required=True, help="store directory")
    recover.add_argument("--resume", action="store_true",
                         help="also resume the interrupted run to completion")
    recover.add_argument("--verify", action="store_true",
                         help="with --resume: compare against a fresh uninterrupted "
                              "run and exit non-zero on divergence")
    recover.set_defaults(func=_cmd_store_recover)

    inspect = store_sub.add_parser("inspect", help="summarise a store directory")
    inspect.add_argument("--dir", required=True, help="store directory")
    inspect.set_defaults(func=_cmd_store_inspect)

    obs = subparsers.add_parser(
        "obs", help="summarise, tail, or export a recorded observability run"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_sub.add_parser(
        "summary", help="print totals, window series, and latency percentiles"
    )
    obs_summary.add_argument("--dir", required=True,
                             help="obs run directory (from run --obs-dir)")
    obs_summary.set_defaults(func=_cmd_obs_summary)

    obs_tail = obs_sub.add_parser(
        "tail", help="print the last span/event records as JSON lines"
    )
    obs_tail.add_argument("--dir", required=True,
                          help="obs run directory (from run --obs-dir)")
    obs_tail.add_argument("--since", type=float, default=None,
                          help="only records with time >= T (simulated seconds)")
    obs_tail.add_argument("--node", default=None,
                          help="only records attributed to this node id")
    obs_tail.add_argument("--limit", type=int, default=20,
                          help="records to show (0 = all; default 20)")
    obs_tail.add_argument("--events-only", action="store_true",
                          help="show discrete events only (skip request spans)")
    obs_tail.set_defaults(func=_cmd_obs_tail)

    obs_export = obs_sub.add_parser(
        "export", help="re-emit windows, metrics, or the trace in a standard format"
    )
    obs_export.add_argument("--dir", required=True,
                            help="obs run directory (from run --obs-dir)")
    obs_export.add_argument("--format", default="jsonl",
                            choices=["jsonl", "csv", "prom", "trace"],
                            help="windows as JSONL/CSV, metrics as Prometheus "
                                 "text, or the span/event trace as JSONL")
    obs_export.add_argument("--output", default=None,
                            help="write here instead of stdout")
    obs_export.set_defaults(func=_cmd_obs_export)

    def add_reference_arguments(sub: argparse.ArgumentParser) -> None:
        """The diff reference: a second run directory or a committed baseline."""
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--against", default=None, metavar="DIR",
                           help="reference obs run directory")
        group.add_argument("--baseline", default=None, metavar="FILE",
                           help="committed baseline record "
                                "(OBS_BASELINE.json, from scripts/check_obs.py)")

    obs_diff = obs_sub.add_parser(
        "diff",
        help="align two runs window-by-window and rank metric regressions",
    )
    obs_diff.add_argument("--dir", required=True,
                          help="obs run directory under inspection")
    add_reference_arguments(obs_diff)
    obs_diff.add_argument("--min-delta", type=float, default=1e-9,
                          help="smallest worse-direction delta that counts")
    obs_diff.add_argument("--min-relative", type=float, default=0.0,
                          help="smallest delta relative to the base value")
    obs_diff.add_argument("--top", type=int, default=50,
                          help="keep at most this many ranked regressions")
    obs_diff.add_argument("--json", default=None,
                          help="write the full diff report JSON here")
    obs_diff.add_argument("--fail-on-regression", action="store_true",
                          help="exit 2 when any regression is found (CI gate)")
    obs_diff.set_defaults(func=_cmd_obs_diff)

    obs_check = obs_sub.add_parser(
        "check", help="evaluate declarative SLO rules against a recorded run"
    )
    obs_check.add_argument("--dir", required=True,
                           help="obs run directory (from run --obs-dir)")
    obs_check.add_argument("--rules", required=True,
                           help="SLO rules JSON file (list of rule objects or "
                                "a repro-obs-slo-rules wrapper)")
    obs_check.add_argument("--json", default=None,
                           help="write the structured verdict JSON here")
    obs_check.set_defaults(func=_cmd_obs_check)

    obs_report = obs_sub.add_parser(
        "report",
        help="render a self-contained HTML report (sparklines, anomalies, SLOs)",
    )
    obs_report.add_argument("--dir", required=True,
                            help="obs run directory (from run --obs-dir)")
    add_reference_arguments(obs_report)
    obs_report.add_argument("--rules", default=None,
                            help="SLO rules file to evaluate into the report")
    obs_report.add_argument("--anomaly-threshold", type=float, default=3.0,
                            help="anomaly detector deviation threshold")
    obs_report.add_argument("--output", required=True,
                            help="write the HTML report here")
    obs_report.add_argument("--title", default="repro obs report")
    obs_report.set_defaults(func=_cmd_obs_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        return args.func(args)
    except ReproError as exc:
        # Library-level misuse (unresumable store, bad scenario wiring, ...)
        # becomes a clean CLI error, matching the argparse paths.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
