"""The repro.perf harness, the perf CLI, bench phase timings, and check_bench."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.bench import BENCH_PHASES, bench_policy
from repro.perf import MICROBENCHES, PhaseTimer, Timer, profile_call, run_perf, time_callable

ROOT = Path(__file__).resolve().parent.parent


def load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", ROOT / "scripts" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_bench"] = module
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------- #
# Timers and harness
# --------------------------------------------------------------------- #

def test_timer_and_time_callable_measure_wall_time() -> None:
    with Timer() as timer:
        sum(range(10_000))
    assert timer.seconds > 0
    timing = time_callable(lambda: sum(range(1_000)), repeats=2)
    assert 0 < timing["best_seconds"] <= timing["mean_seconds"] * 1.0000001


def test_phase_timer_accumulates_named_phases() -> None:
    phases = PhaseTimer()
    with phases.phase("a"):
        sum(range(1_000))
    after_first = phases.seconds["a"]
    with phases.phase("a"):
        sum(range(1_000))
    with phases.phase("b"):
        sum(range(1_000))
    assert set(phases.seconds) == {"a", "b"}
    # Re-entering a phase accumulates rather than overwrites.  (No ordering
    # assertion between 'a' and 'b': micro-durations are scheduler noise.)
    assert phases.seconds["a"] > after_first > 0
    assert phases.seconds["b"] > 0


def test_profile_call_returns_a_stats_table() -> None:
    table = profile_call(lambda: sum(range(50_000)), limit=5)
    assert "function calls" in table


def test_run_perf_runs_selected_benches_and_rejects_unknown() -> None:
    record = run_perf(names=["fingerprint", "request-alloc"], scale=0.01)
    assert record["kind"] == "repro-perf"
    names = [row["name"] for row in record["results"]]
    assert names == ["fingerprint", "request-alloc"]
    for row in record["results"]:
        assert row["ops_per_sec"] > 0
    with pytest.raises(KeyError):
        run_perf(names=["no-such-bench"])


def test_every_registered_microbench_runs_at_tiny_scale() -> None:
    record = run_perf(scale=0.002)
    assert [row["name"] for row in record["results"]] == list(MICROBENCHES)
    tight = next(row for row in record["results"] if row["name"] == "span-kernel-tight")
    # Counted, not timed: one reactive kernel call per span.
    assert tight["kernel_calls"] == tight["spans"] > 0
    assert tight["key_spans_per_sec"] > 0
    ttl = next(row for row in record["results"] if row["name"] == "ttl-kernels")
    # One TTL kernel call per host per trace, however many keys it reads.
    assert ttl["kernel_calls"] == 1
    assert ttl["ops_per_sec"] > 0 and ttl["expiry_ops_per_sec"] > 0


def test_ttl_kernels_microbench_counts_charging_reads() -> None:
    """A 2 s trace at ``T = 1 s``: every key that lives past its first poll
    charges, and a read charges at most once."""
    [row] = run_perf(names=["ttl-kernels"], scale=1.0)["results"]
    assert row["kernel_calls"] == 1
    assert 500 < row["charging_reads"] < row["ops"]
    assert row["ops_per_sec"] > 0 and row["expiry_ops_per_sec"] > 0


def test_wal_microbenches_report_rate_and_record_size() -> None:
    record = run_perf(names=["wal-append", "wal-replay"], scale=0.02)
    append, replay = record["results"]
    assert append["ops"] == replay["ops"] == 1200
    for row in (append, replay):
        assert row["ops_per_sec"] > 0
        # Frame header plus the smallest payload the journal writes.
        assert row["bytes_per_record"] > 8 + len('{"k":"r","lsn":1,"n":1}')
    assert append["bytes_per_record"] == replay["bytes_per_record"]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_perf_cli_list_and_run_and_json(tmp_path, capsys) -> None:
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    for name in MICROBENCHES:
        assert name in out
    assert (
        out.index("vector-kernels")
        < out.index("span-kernel-tight")
        < out.index("ttl-kernels")
        < out.index("trace-index")
        < out.index("shard-merge")
    )

    target = tmp_path / "PERF.json"
    assert main(["perf", "--only", "request-alloc", "--scale", "0.01",
                 "--json", str(target)]) == 0
    record = json.loads(target.read_text())
    assert record["results"][0]["name"] == "request-alloc"

    with pytest.raises(SystemExit):
        main(["perf", "--only", "nope"])


def test_perf_cli_profile_prints_table(capsys) -> None:
    assert main(["perf", "--profile", "request-alloc", "--scale", "0.01"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_perf_cli_json_refused_with_profile_or_list() -> None:
    with pytest.raises(SystemExit):
        main(["perf", "--profile", "request-alloc", "--json", "x.json"])
    with pytest.raises(SystemExit):
        main(["perf", "--list", "--json", "x.json"])


# --------------------------------------------------------------------- #
# Bench phase attribution
# --------------------------------------------------------------------- #

def test_bench_policy_reports_per_phase_timings() -> None:
    row = bench_policy("invalidate", num_requests=5_000, num_keys=200)
    assert row["generation_seconds"] > 0
    assert row["replay_seconds"] >= 0
    assert row["wall_seconds"] >= row["replay_seconds"]
    assert row["requests_per_sec"] > 0


# --------------------------------------------------------------------- #
# check_bench
# --------------------------------------------------------------------- #

def make_bench_record(path: Path, policy_rps: dict, nodes=None, requests=50_000) -> Path:
    record = {
        "kind": "repro-bench",
        "config": {
            "num_nodes": nodes,
            "num_requests": requests,
            "num_keys": 500,
            "staleness_bound": 1.0,
            "seed": 0,
        },
        "results": [
            {
                "policy": policy,
                "requests_per_sec": rps,
                **{phase: 0.1 for phase in BENCH_PHASES},
            }
            for policy, rps in policy_rps.items()
        ],
    }
    path.write_text(json.dumps(record))
    return path


def test_check_bench_passes_within_bounds_and_fails_on_regression(tmp_path) -> None:
    check_bench = load_check_bench()
    baseline = tmp_path / "BENCH_BASELINE.json"
    fresh = make_bench_record(
        tmp_path / "BENCH_fresh.json", {"invalidate": 500_000.0, "update": 600_000.0}
    )
    # Create the baseline from the fresh record.
    assert check_bench.main([str(fresh), "--baseline", str(baseline), "--update"]) == 0
    data = json.loads(baseline.read_text())
    assert data["kind"] == "repro-bench-baseline"
    assert data["entries"]["single/invalidate"] == {
        "requests_per_sec": 500_000.0,
        "engine": "scalar",
        "workers": 1,
    }

    # Identical numbers pass (raw comparison: no calibration scaling).
    assert check_bench.main(
        [str(fresh), "--baseline", str(baseline), "--no-calibration"]
    ) == 0

    # A >25% drop fails.
    slow = make_bench_record(
        tmp_path / "BENCH_slow.json", {"invalidate": 300_000.0, "update": 600_000.0}
    )
    assert check_bench.main(
        [str(slow), "--baseline", str(baseline), "--no-calibration"]
    ) == 1

    # A custom threshold can tolerate it.
    assert check_bench.main(
        [str(slow), "--baseline", str(baseline), "--no-calibration",
         "--max-regression", "0.5"]
    ) == 0

    # A fresh record benched on a different workload config is refused:
    # its throughput is not comparable to the baseline's.
    other = make_bench_record(
        tmp_path / "BENCH_other.json", {"invalidate": 500_000.0}, requests=10_000
    )
    assert check_bench.main(
        [str(other), "--baseline", str(baseline), "--no-calibration"]
    ) == 2

    # Baseline entries nobody measured fail the gate (no vacuous passes)
    # unless the partial check is explicit.
    partial = make_bench_record(
        tmp_path / "BENCH_partial.json", {"invalidate": 500_000.0}
    )
    assert check_bench.main(
        [str(partial), "--baseline", str(baseline), "--no-calibration"]
    ) == 1
    assert check_bench.main(
        [str(partial), "--baseline", str(baseline), "--no-calibration",
         "--allow-partial"]
    ) == 0

    # The same mode's record passed twice is refused: silently keeping the
    # last one would make the gate depend on argument order.
    assert check_bench.main(
        [str(fresh), str(slow), "--baseline", str(baseline), "--no-calibration"]
    ) == 2


def test_check_bench_cluster_rows_are_keyed_by_fleet_size(tmp_path) -> None:
    check_bench = load_check_bench()
    fresh = make_bench_record(
        tmp_path / "BENCH_c.json", {"invalidate": 400_000.0}, nodes=3
    )
    entries, _config = check_bench.collect_fresh([fresh])
    assert entries == {
        "cluster3/invalidate": {
            "requests_per_sec": 400_000.0,
            "engine": "scalar",
            "workers": 1,
        }
    }


def test_check_bench_modes_encode_engine_and_workers(tmp_path) -> None:
    """vector / cluster<N>-vec / cluster<N>-par keys per pipeline."""
    check_bench = load_check_bench()
    cases = [
        (dict(engine="vector"), None, "vector/invalidate"),
        (dict(engine="vector", workers=1), 3, "cluster3-vec/invalidate"),
        (dict(engine="vector", workers=2), 3, "cluster3-par/invalidate"),
        (dict(engine="scalar"), 3, "cluster3/invalidate"),
    ]
    for extra_config, nodes, expected_key in cases:
        path = make_bench_record(
            tmp_path / "BENCH_mode.json", {"invalidate": 100_000.0}, nodes=nodes
        )
        record = json.loads(path.read_text())
        record["config"].update(extra_config)
        path.write_text(json.dumps(record))
        entries, _config = check_bench.collect_fresh([path])
        assert list(entries) == [expected_key], extra_config


def test_check_bench_refuses_engine_or_worker_mismatch(tmp_path) -> None:
    """Claiming a baseline entry with a different pipeline is exit 2."""
    check_bench = load_check_bench()
    baseline = tmp_path / "BENCH_BASELINE.json"
    fresh = make_bench_record(
        tmp_path / "BENCH_par.json", {"invalidate": 900_000.0}, nodes=3
    )
    record = json.loads(fresh.read_text())
    record["config"].update(engine="vector", workers=2)
    fresh.write_text(json.dumps(record))
    assert check_bench.main([str(fresh), "--baseline", str(baseline), "--update"]) == 0

    # Same cluster3-par key, but measured on 4 workers: refused, not compared.
    record["config"]["workers"] = 4
    forged = tmp_path / "BENCH_forged.json"
    forged.write_text(json.dumps(record))
    assert check_bench.main(
        [str(forged), "--baseline", str(baseline), "--no-calibration"]
    ) == 2

    # Legacy float baselines (no engine metadata) still compare cleanly.
    data = json.loads(baseline.read_text())
    data["entries"] = {"cluster3-par/invalidate": 900_000.0}
    baseline.write_text(json.dumps(data))
    assert check_bench.main(
        [str(forged), "--baseline", str(baseline), "--no-calibration"]
    ) == 0


def test_check_bench_missing_baseline_errors(tmp_path) -> None:
    check_bench = load_check_bench()
    fresh = make_bench_record(tmp_path / "BENCH_f.json", {"invalidate": 1.0})
    assert check_bench.main(
        [str(fresh), "--baseline", str(tmp_path / "missing.json")]
    ) == 2


def test_committed_baseline_is_well_formed() -> None:
    """The committed BENCH_BASELINE.json gates CI: keep it loadable and sane."""
    data = json.loads((ROOT / "BENCH_BASELINE.json").read_text())
    assert data["kind"] == "repro-bench-baseline"
    assert data["calibration_ops_per_sec"] > 0
    assert data["config"]["num_requests"] > 0
    assert data["entries"], "baseline has no entries"
    for key, entry in data["entries"].items():
        mode, _, policy = key.partition("/")
        assert (
            mode in ("single", "vector")
            or mode.startswith("cluster")
        ), key
        assert policy
        assert entry["requests_per_sec"] > 0
        assert entry["engine"] in ("scalar", "vector")
        assert entry["workers"] >= 1
        if mode.endswith("-par"):
            assert entry["engine"] == "vector" and entry["workers"] > 1
    # The whole point of the columnar engine: vector entries must beat the
    # scalar single-cache entries by a wide margin on the same machine.
    vector = [
        entry["requests_per_sec"]
        for key, entry in data["entries"].items()
        if key.startswith("vector/")
    ]
    scalar = [
        entry["requests_per_sec"]
        for key, entry in data["entries"].items()
        if key.startswith("single/")
    ]
    assert vector and scalar
    assert min(vector) > 3.0 * (sum(scalar) / len(scalar))
    # The pre-PR reference the speedup is measured against.
    assert data["pre_pr"]["entries"]
