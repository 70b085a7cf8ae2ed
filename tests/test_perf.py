"""The repro.perf count rows and the perf CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.perf import MICROBENCHES, profile_call, run_perf
from repro.perf.perf import (
    POLICIES,
    calls_per_request,
    fleet_calls_per_request,
    stateful_calls_per_request,
)


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #

def test_profile_call_returns_a_stats_table() -> None:
    table = profile_call(lambda: sum(range(50_000)), limit=5)
    assert "function calls" in table


def test_run_perf_runs_selected_benches_and_rejects_unknown() -> None:
    record = run_perf(names=["workload-generation", "wal"], scale=0.01)
    assert record["kind"] == "repro-perf"
    assert [row["name"] for row in record["results"]] == ["workload-generation", "wal"]
    with pytest.raises(KeyError):
        run_perf(names=["no-such-bench"])


def test_every_registered_microbench_runs_at_tiny_scale() -> None:
    record = run_perf(scale=0.002)
    assert [row["name"] for row in record["results"]] == list(MICROBENCHES)
    assert len(MICROBENCHES) <= 10
    # Counts only: no row carries a clock, and neither does the record.
    fields = {field for row in record["results"] for field in row} | set(record)
    assert not [field for field in fields if field.endswith(("_per_sec", "_seconds"))]
    assert "created" not in record
    rows = {row["name"]: row for row in record["results"]}
    tight = rows["span-kernel-tight"]
    # One reactive kernel call per window of spans — a replay alone takes a
    # window per batch of its cuts — for the single cache and for a 3-node
    # fleet alike.
    assert tight["kernel_calls"] == tight["fleet_kernel_calls"] == tight["batches"] > 0
    assert tight["spans"] >= tight["batches"]
    assert tight["key_spans"] >= tight["spans"]
    # One TTL kernel call per trace, however many keys and nodes read it.
    assert rows["ttl-kernels"]["kernel_calls"] == rows["ttl-kernels"]["fleet_kernel_calls"] == 1
    flush = rows["flush"]
    # An ``update`` flush sends one message per dirty key, and an instant
    # channel needs no message, pending or record object to carry them.
    assert flush["messages"] == flush["decisions"] > 0 and flush["objects_built"] == 0


def test_two_runs_write_the_same_record(tmp_path) -> None:
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert main(["perf", "--scale", "0.01", "--json", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_reactive_cuts_build_no_state_objects() -> None:
    """From the first cut to the last boundary flush a write-reactive replay
    keeps its hosts' state in columns: no cache entry, buffered write, key
    history or E[W] counter row is built, on the single cache or the 3-node
    fleet (at scale 1 the per-key objects numbered 5 399 on each)."""
    [row] = run_perf(names=["span-kernel-tight"], scale=0.1)["results"]
    assert row["spans"] == 20
    assert row["span_objects"] == row["fleet_span_objects"] == 0


def test_a_columnar_replay_builds_no_history_nobody_reads() -> None:
    """A replay commits the trace's writes with their histories left to a
    build on the first read, so a caller that reads none — a sweep, a
    benchmark — builds none, under every policy, on the single cache and
    on the fleet."""
    [row] = run_perf(names=["span-kernel-tight"], scale=0.1)["results"]
    built = [*row["histories_built"].values(), *row["fleet_histories_built"].values()]
    assert built == [0] * 10


def test_the_ttl_cut_builds_no_state_objects() -> None:
    """A TTL replay's kernel scatters its entries into its unit's columns:
    from the cut's start to the write-back no cache entry, buffered write,
    key history or E[W] counter row is built (at scale 1 the kernel built
    500 entries and the cut committed 428 histories)."""
    [row] = run_perf(names=["ttl-kernels"], scale=0.1)["results"]
    assert row["kernel_calls"] == 1
    assert row["ttl_objects"] == 0


def test_ttl_kernels_microbench_counts_charging_reads() -> None:
    """A 2 s trace at ``T = 1 s``: every key that lives past its first poll
    charges, and a read charges at most once."""
    [row] = run_perf(names=["ttl-kernels"], scale=1.0)["results"]
    assert row["kernel_calls"] == row["fleet_kernel_calls"] == 1
    assert 500 < row["charging_reads"] < 100_000


def test_zipf_guide_table_answers_most_draws() -> None:
    [row] = run_perf(names=["workload-generation"], scale=0.05)["results"]
    assert 0 < row["searched"] < row["draws"]


def test_trace_index_table_holds_a_whole_walk() -> None:
    """At 100 k requests the second 30-span walk is all table lookups, and
    the table stays under the trace's own 33 bytes per request (at the
    smoke's 5 k a 30-span walk outgrows its trace)."""
    [row] = run_perf(names=["trace-index"], scale=1.0)["results"]
    assert row["table_hits"] == 30
    assert 0 < row["table_bytes_per_request"] <= 33


def test_a_sweep_builds_each_cut_once_per_bound() -> None:
    """Three write-reacting policies step through a bound's 16 or 4 cuts as
    one unit: a lookup that misses builds as much of the bound's flush
    schedule as the table has room for at each cut's most keys (here 15 of
    the 16 cuts of T = 0.25 at 10 keys a cut, then the last one; all 4 of
    T = 1), so each cut is built once.  Each member looks up only the cut a
    window starts at — 3 windows, one per batch, so 9 lookups, 6 of them
    hits (60 lookups, 57 hits when each cut was a kernel call of its own) —
    and each window is one kernel call for all three, with a flush per cut:
    3 calls, 20 flushes (20 kernel calls and 20 flushes when each cut was
    one call and each boundary one flush; 60 each when every policy made
    its own)."""
    [row] = run_perf(names=["trace-index"], scale=0.05)["results"]
    assert row["sweep_cut_lookups"] == 9
    assert row["sweep_cut_builds"] == 3
    assert row["sweep_table_hits"] == 6
    assert row["sweep_kernel_calls"] == row["sweep_cut_builds"] == 3
    assert row["sweep_flush_calls"] == 20


def test_replay_single_counts_calls_per_request_exactly() -> None:
    """A count, not a timing: the same figures on every run, one per policy."""
    first, second = calls_per_request(0.01), calls_per_request(0.01)
    assert first == second
    assert list(first) == list(POLICIES)
    # The estimator's fold is what a read under adaptive adds to invalidate's.
    assert 0 < first["invalidate"] < first["adaptive"]


def test_replay_cluster_counts_calls_per_request_exactly() -> None:
    """The fleet loop's count repeats exactly too, and routing plus fan-out
    make a fleet request dearer than a single-cache one."""
    first, second = fleet_calls_per_request(0.01), fleet_calls_per_request(0.01)
    assert first == second
    assert list(first) == list(POLICIES)
    single = calls_per_request(0.01)
    assert all(first[policy] > single[policy] for policy in first)


def test_replay_stateful_counts_calls_per_request_exactly() -> None:
    """The stateful fleet's count repeats exactly, for its one policy."""
    first, second = stateful_calls_per_request(0.01), stateful_calls_per_request(0.01)
    assert first == second
    assert list(first) == ["invalidate"] and first["invalidate"] > 0


def test_wal_row_counts_records_and_record_size() -> None:
    [row] = run_perf(names=["wal"], scale=0.02)["results"]
    assert row["records"] == row["replayed"] == 1200
    # Frame header plus the smallest payload the journal writes.
    assert row["bytes_per_record"] > 8 + len('{"k":"r","lsn":1,"n":1}')


def test_the_census_sends_requests_through_every_envelope_row() -> None:
    """Each of the 15 rows is some configuration's ``fallback_reason``, and
    the controls replay on the kernels: six policies on two engines."""
    from repro.cluster.vector import FLEET_ENVELOPE

    [row] = run_perf(names=["census"], scale=0.01)["results"]
    requests = row["requests"]
    assert list(requests) == ["kernels"] + [each.name for each in FLEET_ENVELOPE]
    assert all(count > 0 for count in requests.values()), requests
    per_replay = requests["policy"]
    assert requests["kernels"] == 12 * per_replay
    assert requests["channel"] == 2 * per_replay
    assert 0 < requests["stop-at"] < per_replay


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_perf_cli_list_and_run_and_json(tmp_path, capsys) -> None:
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    assert out.split() == list(MICROBENCHES)

    target = tmp_path / "PERF.json"
    assert main(["perf", "--only", "flush", "--scale", "0.01", "--json", str(target)]) == 0
    out = capsys.readouterr().out
    record = json.loads(target.read_text())
    [row] = record["results"]
    assert row["name"] == "flush"
    assert f'"objects_built": {row["objects_built"]}' in out

    with pytest.raises(SystemExit):
        main(["perf", "--only", "nope"])


def test_perf_cli_profile_prints_table(capsys) -> None:
    """The counted replays run inside the one profiler, so they show in its table."""
    assert main(["perf", "--profile", "replay-single", "--scale", "0.01"]) == 0
    table = capsys.readouterr().out
    assert "function calls" in table and "handle_read" in table


@pytest.mark.parametrize("name", [name for name in MICROBENCHES if name != "replay-single"])
def test_perf_cli_profile_runs_every_bench(name, capsys) -> None:
    assert main(["perf", "--profile", name, "--scale", "0.01"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_perf_cli_json_refused_with_profile_or_list() -> None:
    with pytest.raises(SystemExit):
        main(["perf", "--profile", "flush", "--json", "x.json"])
    with pytest.raises(SystemExit):
        main(["perf", "--list", "--json", "x.json"])
