"""The ``python -m repro`` command-line interface."""

import argparse
import json
import re

import pytest

import repro
from repro.__main__ import _cmd_grid, build_parser, main


def test_help_lists_every_subcommand(capsys) -> None:
    """New subcommands cannot ship undocumented: --help must name them all."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    listing = re.search(r"\{([a-z,-]+)\}", out)
    assert listing is not None, f"no subcommand listing in --help output:\n{out}"
    subcommands = set(listing.group(1).split(","))
    assert subcommands == {"run", "sweep", "cluster", "tier", "perf", "store", "obs"}
    # The removed ``bench`` subcommand has no alias: argparse refuses it.
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_version_flag_prints_the_package_version(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_unknown_policy_name_exits_non_zero(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--policy", "no-such-policy"])
    assert excinfo.value.code != 0
    assert "no-such-policy" in capsys.readouterr().err


def test_negative_duration_exits_non_zero(capsys) -> None:
    for argv in (
        ["run", "--duration=-5"],
        ["run", "--duration=inf"],
        ["run", "--duration=nan"],
        ["sweep", "--duration=-5"],
        ["cluster", "--duration=0"],
        ["store", "snapshot", "--dir", "x", "--duration=-1"],
        ["perf", "--only", "fingerprint", "--scale=nan"],
        ["perf", "--only", "fingerprint", "--scale=-1"],
        ["perf", "--only", "fingerprint", "--scale=0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code != 0
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "cluster", "tier"])
def test_a_negative_process_count_is_an_argparse_error_not_a_serial_run(command, capsys) -> None:
    """``--processes -3`` used to run the grid on one process without a word."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--processes", "-3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "argument --processes: expected a count >= 0, got '-3'" in captured.err
    assert captured.out == ""


def test_unknown_workload_and_missing_subcommand_exit_non_zero(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--workload", "nope"])
    assert excinfo.value.code != 0
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code != 0


def test_run_prints_result_json(capsys) -> None:
    exit_code = main(
        [
            "run",
            "--workload", "poisson",
            "--policy", "adaptive",
            "--bound", "1.0",
            "--duration", "2.0",
            "--param", "num_keys=15",
        ]
    )
    assert exit_code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["policy"] == "adaptive"
    assert row["reads"] + row["writes"] > 0


def test_sweep_writes_csv_and_json(tmp_path, capsys) -> None:
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    exit_code = main(
        [
            "sweep",
            "--policies", "invalidate,update",
            "--workloads", "poisson",
            "--bounds", "0.5,2.0",
            "--duration", "2.0",
            "--param", "num_keys=15",
            "--processes", "1",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    assert csv_path.exists()
    document = json.loads(json_path.read_text())
    assert len(document["results"]) == 4


def test_cluster_sweep_runs_scenarios_and_exports(tmp_path, capsys) -> None:
    json_path = tmp_path / "fleet.json"
    exit_code = main(
        [
            "cluster",
            "--nodes", "8",
            "--replication", "2",
            "--scenario", "node-failure",
            "--policies", "invalidate",
            "--bounds", "0.5",
            "--duration", "6.0",
            "--param", "num_keys=100",
            "--hot-policy", "update",
            "--processes", "1",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    document = json.loads(json_path.read_text())
    (row,) = document["results"]
    assert row["num_nodes"] == 8
    assert row["replication"] == 2
    assert row["scenario"] == "node-failure"
    assert row["rebalances"] == 2
    assert len(row["nodes"]) == 8
    assert row["reads"] + row["writes"] > 0


def test_cluster_sweep_refuses_an_unrunnable_cell_before_the_sweep_starts(monkeypatch) -> None:
    """node_index=5 fits the 8-node cells and not the 2-node ones: the sweep
    used to replay the former, then lose its rows to the latter's error."""

    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("repro.__main__.run_experiment", never)
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "cluster",
                "--nodes", "8,2",
                "--scenario", "node-failure",
                "--scenario-param", "node_index=5",
                "--policies", "invalidate",
                "--bounds", "0.5",
                "--duration", "6.0",
                "--processes", "1",
            ]
        )
    assert str(excinfo.value.code).startswith("node_index 5 out of range for 2 nodes")


def test_tier_sweep_sweeps_l1_capacities_and_modes(tmp_path, capsys) -> None:
    json_path = tmp_path / "tier.json"
    exit_code = main(
        [
            "tier",
            "--nodes", "2",
            "--l1-capacity", "0,16",
            "--tier-mode", "write-through,write-back",
            "--policies", "invalidate",
            "--bounds", "0.5",
            "--duration", "3.0",
            "--param", "num_keys=100",
            "--processes", "1",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    rows = json.loads(json_path.read_text())["results"]
    # The single-tier baseline (l1_capacity=0) runs once, not once per mode.
    assert len(rows) == 3
    zero = [row for row in rows if row["l1_capacity"] == 0]
    tiered = [row for row in rows if row["l1_capacity"] == 16]
    assert len(zero) == 1 and len(tiered) == 2
    assert zero[0]["l1_hits"] == 0
    assert zero[0]["tier_mode"] == "write-through"
    assert sorted(row["tier_mode"] for row in tiered) == ["write-back", "write-through"]
    assert all(row["l1_hits"] > 0 for row in tiered)


def test_tier_scenario_from_the_command_line(tmp_path, capsys) -> None:
    json_path = tmp_path / "outage.json"
    exit_code = main(
        [
            "tier",
            "--nodes", "2",
            "--l1-capacity", "64",
            "--admission", "always",
            "--scenario", "l2-outage",
            "--policies", "invalidate",
            "--bounds", "0.5",
            "--duration", "4.0",
            "--param", "num_keys=100",
            "--processes", "1",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    (row,) = json.loads(json_path.read_text())["results"]
    assert row["scenario"] == "l2-outage"
    assert row["l1_served_degraded"] > 0


def test_store_snapshot_crash_recover_resume_verify(tmp_path, capsys) -> None:
    """The CI smoke path: run -> crash -> recover -> resume -> verify."""
    store_dir = tmp_path / "store"
    exit_code = main(
        [
            "store", "snapshot",
            "--dir", str(store_dir),
            "--duration", "8.0",
            "--snapshot-interval", "2.0",
            "--kill-at", "4.0",
            "--param", "num_keys=100",
        ]
    )
    assert exit_code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["interrupted"] is True
    assert row["duration"] == pytest.approx(4.0)
    # Interrupted rows report the same flat persistence counters as
    # finished rows, consistent with their nested store dict.
    assert row["wal_appends"] == row["store"]["wal_appends"] > 0
    assert row["persistence_cost"] == row["store"]["persistence_cost"] > 0
    assert (store_dir / "RUN.json").exists()

    exit_code = main(["store", "recover", "--dir", str(store_dir), "--resume", "--verify"])
    assert exit_code == 0
    output = json.loads(capsys.readouterr().out)
    assert output["recovery"]["recovered_keys"] > 0
    assert output["result"]["duration"] == pytest.approx(8.0)
    assert "interrupted" not in output["result"]
    assert output["verify"]["matches"] is True
    assert output["verify"]["mismatches"] == {}

    exit_code = main(["store", "inspect", "--dir", str(store_dir)])
    assert exit_code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["wal"]["torn_bytes"] == 0
    assert [snap["seq"] for snap in summary["snapshots"]] == sorted(
        snap["seq"] for snap in summary["snapshots"]
    )
    assert summary["snapshots"][-1]["keys"] > 0


def test_store_recover_resumes_a_run_config_written_before_the_tier(tmp_path, capsys) -> None:
    """A RUN.json from before the tier has no l1_capacity / tier_mode: it ran
    single-tier, and resumes single-tier through the runner's cell mapping."""
    store_dir = tmp_path / "store"
    main(
        [
            "store", "snapshot",
            "--dir", str(store_dir),
            "--duration", "6.0",
            "--snapshot-interval", "2.0",
            "--kill-at", "3.0",
            "--param", "num_keys=60",
        ]
    )
    config_path = store_dir / "RUN.json"
    config = json.loads(config_path.read_text())
    assert (config.pop("l1_capacity"), config.pop("tier_mode")) == (0, "write-through")
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["store", "recover", "--dir", str(store_dir), "--resume", "--verify"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["verify"]["matches"] is True
    assert output["result"]["l1_capacity"] == 0
    assert output["result"]["tier_mode"] == "write-through"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("not json at all\n", "Expecting value"),
        ('{"workload": "poisson", "duration": 8.0, "snapsh', "Unterminated string"),
        ('[{"workload": "poisson"}]\n', "expected a JSON object, got a list"),
    ],
    ids=["not-json", "truncated", "list"],
)
def test_store_recover_names_a_broken_run_config(tmp_path, text: str, reason: str) -> None:
    """A hostile RUN.json is a one-line exit naming the file, not a traceback."""
    (tmp_path / "RUN.json").write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        main(["store", "recover", "--dir", str(tmp_path), "--resume"])
    message = str(excinfo.value.code)
    assert message.startswith(f"{tmp_path / 'RUN.json'} is not a valid run config: ")
    assert reason in message and "\n" not in message


def test_store_snapshot_refuses_a_non_empty_directory(tmp_path, capsys) -> None:
    (tmp_path / "junk.txt").write_text("precious")
    with pytest.raises(SystemExit) as excinfo:
        main(["store", "snapshot", "--dir", str(tmp_path), "--duration", "2.0"])
    assert excinfo.value.code != 0


def test_store_recover_verify_requires_resume(tmp_path) -> None:
    with pytest.raises(SystemExit):
        main(["store", "recover", "--dir", str(tmp_path), "--verify"])


def test_sweep_persist_adds_store_counters_to_rows(tmp_path, capsys) -> None:
    json_path = tmp_path / "sweep.json"
    exit_code = main(
        [
            "sweep",
            "--policies", "invalidate",
            "--workloads", "poisson",
            "--bounds", "1.0",
            "--duration", "2.0",
            "--param", "num_keys=15",
            "--persist",
            "--snapshot-interval", "1.0",
            "--processes", "1",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    (row,) = json.loads(json_path.read_text())["results"]
    assert row["persistence"] is True
    assert row["wal_appends"] > 0
    assert row["store"]["snapshots"] > 0


def test_sweep_vector_engine_rows_match_scalar_rows(tmp_path, capsys) -> None:
    argv = [
        "sweep",
        "--policies", "invalidate,adaptive",
        "--workloads", "poisson",
        "--bounds", "1.0",
        "--duration", "2.0",
        "--param", "num_keys=15",
        "--processes", "1",
    ]
    scalar_json = tmp_path / "scalar.json"
    vector_json = tmp_path / "vector.json"
    assert main(argv + ["--json", str(scalar_json)]) == 0
    assert main(argv + ["--engine", "vector", "--json", str(vector_json)]) == 0
    scalar_rows = json.loads(scalar_json.read_text())["results"]
    vector_rows = json.loads(vector_json.read_text())["results"]
    for scalar_row, vector_row in zip(scalar_rows, vector_rows):
        assert scalar_row.pop("engine") == "scalar"
        assert vector_row.pop("engine") == "vector"
        assert scalar_row == vector_row


def test_sweep_rejects_unknown_engine(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--engine", "bogus"])
    assert excinfo.value.code != 0


# --------------------------------------------------------------------- #
# One grid front door: sweep / cluster / tier share a body and their flags
# --------------------------------------------------------------------- #

#: ``sweep``'s flags and defaults at PR 21, before the flags were regrouped.
PARENT_SWEEP_FLAGS = {
    "--backend-capacity": None,
    "--bounds": "0.1,1.0,10.0",
    "--capacities": "none",
    "--concurrency": False,
    "--cost-preset": "fixed",
    "--csv": None,
    "--duration": 10.0,
    "--engine": "scalar",
    "--json": None,
    "--name": "sweep",
    "--obs-window": None,
    "--param": None,
    "--persist": False,
    "--policies": "ttl-expiry,ttl-polling,invalidate,update,adaptive",
    "--processes": None,
    "--seed": 0,
    "--service-mean": None,
    "--service-time": None,
    "--slo-rules": None,
    "--snapshot-interval": None,
    "--stampede-policy": None,
    "--workloads": "poisson",
}

#: ``cluster``'s at PR 21 (no ``--engine`` there).
PARENT_CLUSTER_FLAGS = {
    "--backend-capacity": None,
    "--bounds": "1.0",
    "--capacities": "none",
    "--channel-delay": 0.0,
    "--channel-jitter": 0.0,
    "--channel-loss": 0.0,
    "--channel-retries": 0,
    "--channel-retry-backoff": 0.0,
    "--channel-retry-timeout": 0.0,
    "--chaos-delay": 0.5,
    "--chaos-faults": 4,
    "--chaos-kinds": "delay,drop,slow-node,crash",
    "--chaos-loss": 0.5,
    "--chaos-seed": None,
    "--chaos-slowdown": 4.0,
    "--chaos-window": 0.1,
    "--concurrency": False,
    "--cost-preset": "fixed",
    "--csv": None,
    "--duration": 10.0,
    "--hot-fraction": None,
    "--hot-policy": None,
    "--json": None,
    "--name": "cluster",
    "--nodes": "8",
    "--obs-dir": None,
    "--obs-window": None,
    "--param": None,
    "--persist": False,
    "--policies": "invalidate,update,adaptive",
    "--processes": None,
    "--read-policy": "primary",
    "--replication": "1",
    "--scenario": "none",
    "--scenario-param": None,
    "--seed": 0,
    "--service-mean": None,
    "--service-time": None,
    "--slo-rules": None,
    "--snapshot-interval": None,
    "--stampede-policy": None,
    "--vnodes": 64,
    "--workloads": "poisson",
    "--zones": 1,
}

#: ``tier``'s: ``cluster``'s, its own name, and three flags of its own.
PARENT_TIER_FLAGS = {
    **PARENT_CLUSTER_FLAGS,
    "--name": "tier",
    "--admission": "second-hit",
    "--l1-capacity": "256",
    "--tier-mode": "write-through",
}


def _flags_of(subcommand: str) -> dict:
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        "/".join(action.option_strings): action.default
        for action in subparsers.choices[subcommand]._actions
        if not isinstance(action, argparse._HelpAction)
    }


def test_grid_subcommands_accept_what_they_did_plus_one_engine_flag() -> None:
    """Declaring each flag once must not leak a default from one subcommand
    into another, drop a flag, or add a new name."""
    assert _flags_of("sweep") == PARENT_SWEEP_FLAGS
    assert _flags_of("cluster") == {**PARENT_CLUSTER_FLAGS, "--engine": "scalar"}
    assert _flags_of("tier") == {**PARENT_TIER_FLAGS, "--engine": "scalar"}
    args = build_parser().parse_args(["tier"])
    assert (args.name, args.policies, args.bounds) == ("tier", "invalidate,update,adaptive", "1.0")
    assert {build_parser().parse_args([name]).func for name in ("sweep", "cluster", "tier")} == {
        _cmd_grid
    }


@pytest.mark.parametrize(
    "argv, axis",
    [
        (["sweep", "--capacities", ","], "cache_capacities"),
        (["cluster", "--nodes", ","], "num_nodes"),
        (["cluster", "--replication", ","], "replications"),
        (["tier", "--l1-capacity", ","], "l1_capacities"),
    ],
)
def test_an_empty_axis_on_the_command_line_is_an_error_not_an_empty_result(
    argv, axis, capsys
) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == f"the {axis} axis needs at least one entry"
    assert capsys.readouterr().out == ""
    # The message that was already there keeps its wording.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--bounds", ","])
    assert excinfo.value.code == "an experiment needs at least one staleness bound"


@pytest.mark.parametrize("scenario", ["none", "node-failure"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--nodes", "3"],
        ["tier", "--nodes", "3", "--l1-capacity", "0,64"],
    ],
    ids=["cluster", "tier"],
)
def test_fleet_subcommands_reach_the_vector_engine_with_identical_rows(
    argv, scenario, tmp_path, capsys
) -> None:
    """``--engine`` lived on ``sweep`` only, so no command line reached the
    fleet kernels.  A steady fleet runs them; ``node-failure`` (and a positive
    L1) falls back to the scalar loop, so rows are equal by construction."""
    argv = argv + [
        "--scenario", scenario,
        "--policies", "invalidate,adaptive",
        "--bounds", "0.5",
        "--duration", "4.0",
        "--param", "num_keys=60",
    ]
    reference = None
    for engine in (None, "scalar", "vector"):
        for processes in ("1", "2"):
            target = tmp_path / f"{engine}-{processes}.json"
            flags = ["--processes", processes, "--json", str(target)]
            assert main(argv + flags + (["--engine", engine] if engine else [])) == 0
            rows = json.loads(target.read_text())["results"]
            assert {row.pop("engine") for row in rows} == {engine or "scalar"}
            if reference is None:
                reference = rows
            assert rows == reference, (engine, processes)
    assert len(reference) == (2 if argv[0] == "cluster" else 4)
    assert all(row["reads"] > 0 and row["num_nodes"] == 3 for row in reference)


def test_cluster_engine_vector_runs_the_fleet_kernels(monkeypatch, capsys) -> None:
    """Equal rows alone would also pass if the flag were ignored."""
    import repro.experiments.runner as runner

    reasons = []

    class Spy(runner.VectorClusterSimulation):
        def run(self, *args, **kwargs):
            result = super().run(*args, **kwargs)
            reasons.append((self.used_vector_path, self.fallback_reason))
            return result

    monkeypatch.setattr(runner, "VectorClusterSimulation", Spy)
    argv = [
        "cluster", "--nodes", "3", "--policies", "invalidate", "--bounds", "0.5",
        "--duration", "3.0", "--param", "num_keys=40", "--processes", "1", "--engine", "vector",
    ]
    assert main(argv) == 0
    assert main(argv + ["--scenario", "node-failure"]) == 0
    assert reasons == [(True, None), (False, "scenario")]
