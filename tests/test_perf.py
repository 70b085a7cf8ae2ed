"""The repro.perf harness and the perf CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.perf import MICROBENCHES, Timer, profile_call, run_perf, time_callable


# --------------------------------------------------------------------- #
# Timers and harness
# --------------------------------------------------------------------- #

def test_timer_and_time_callable_measure_wall_time() -> None:
    with Timer() as timer:
        sum(range(10_000))
    assert timer.seconds > 0
    timing = time_callable(lambda: sum(range(1_000)), repeats=2)
    assert 0 < timing["best_seconds"] <= timing["mean_seconds"] * 1.0000001


def test_profile_call_returns_a_stats_table() -> None:
    table = profile_call(lambda: sum(range(50_000)), limit=5)
    assert "function calls" in table


def test_run_perf_runs_selected_benches_and_rejects_unknown() -> None:
    record = run_perf(names=["fingerprint", "hashring-route"], scale=0.01)
    assert record["kind"] == "repro-perf"
    names = [row["name"] for row in record["results"]]
    assert names == ["fingerprint", "hashring-route"]
    for row in record["results"]:
        assert row["ops_per_sec"] > 0
    with pytest.raises(KeyError):
        run_perf(names=["no-such-bench"])


def test_every_registered_microbench_runs_at_tiny_scale() -> None:
    record = run_perf(scale=0.002)
    assert [row["name"] for row in record["results"]] == list(MICROBENCHES)
    for row in record["results"]:
        assert {"ops", "ops_per_sec", "best_seconds", "mean_seconds"} <= set(row)
    tight = next(row for row in record["results"] if row["name"] == "span-kernel-tight")
    # Counted, not timed: one reactive kernel call per span, for the single
    # cache and for a 3-node fleet alike.
    assert tight["kernel_calls"] == tight["fleet_kernel_calls"] == tight["spans"] > 0
    assert tight["key_spans_per_sec"] > 0 and tight["fleet_ops_per_sec"] > 0
    ttl = next(row for row in record["results"] if row["name"] == "ttl-kernels")
    # One TTL kernel call per trace, however many keys and nodes read it.
    assert ttl["kernel_calls"] == ttl["fleet_kernel_calls"] == 1
    assert ttl["ops_per_sec"] > 0 and ttl["expiry_ops_per_sec"] > 0
    flush = next(row for row in record["results"] if row["name"] == "flush")
    # An ``update`` flush sends one message per dirty key, and an instant
    # channel needs no message, pending or record object to carry them.
    assert flush["messages"] == flush["ops"] > 0 and flush["objects_built"] == 0
    assert all(
        flush[f"{name}ops_per_sec"] > 0 for name in ("", "invalidate_", "adaptive_", "lossy_")
    )


def test_ttl_kernels_microbench_counts_charging_reads() -> None:
    """A 2 s trace at ``T = 1 s``: every key that lives past its first poll
    charges, and a read charges at most once."""
    [row] = run_perf(names=["ttl-kernels"], scale=1.0)["results"]
    assert row["kernel_calls"] == row["fleet_kernel_calls"] == 1
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
    )

    target = tmp_path / "PERF.json"
    assert main(["perf", "--only", "hashring-route", "--scale", "0.01",
                 "--json", str(target)]) == 0
    record = json.loads(target.read_text())
    assert record["results"][0]["name"] == "hashring-route"

    with pytest.raises(SystemExit):
        main(["perf", "--only", "nope"])


def test_perf_cli_profile_prints_table(capsys) -> None:
    assert main(["perf", "--profile", "hashring-route", "--scale", "0.01"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_perf_cli_json_refused_with_profile_or_list() -> None:
    with pytest.raises(SystemExit):
        main(["perf", "--profile", "hashring-route", "--json", "x.json"])
    with pytest.raises(SystemExit):
        main(["perf", "--list", "--json", "x.json"])
