"""The observability layer: metrics, windows, traces, exporters, and hooks.

The load-bearing invariant everywhere: telemetry *observes* a replay and
never perturbs it — result rows are byte-identical with obs on or off, for
every engine and worker count — and disabled mode binds the plain hot path,
so a run without ``obs=`` pays nothing.
"""

import cProfile
import gc
import json
import math
import re

import pytest

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.vector import replay_cluster_parallel
from repro.cluster.scenarios import SCENARIO_FACTORIES
from repro.errors import ConfigurationError
from repro.experiments.registry import make_policy
from repro.experiments.runner import run_cell
from repro.experiments.spec import ExperimentSpec, RunCell
from repro.obs.export import (
    export_prometheus,
    export_windows_csv,
    export_windows_jsonl,
    load_run,
    summarize,
    write_run,
)
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_index, bucket_upper_bound
from repro.obs.recorder import WINDOW_FIELDS, ObsConfig, ObsRecorder, as_recorder
from repro.obs.trace import TraceBuffer
from repro.obs.windows import WindowSampler, window_rows
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload


def _workload(seed: int = 1, keys: int = 200) -> PoissonZipfWorkload:
    return PoissonZipfWorkload(num_keys=keys, rate_per_key=5.0, seed=seed)


def _single(obs=None, duration: float = 20.0, seed: int = 1) -> Simulation:
    workload = _workload(seed)
    return Simulation(
        workload=workload.iter_requests(duration),
        policy=make_policy("invalidate"),
        staleness_bound=1.0,
        duration=duration,
        workload_name=workload.name,
        obs=obs,
    )


def _cluster(obs=None, duration: float = 60.0, scenario: bool = True, **kwargs):
    workload = _workload(seed=3)
    return ClusterSimulation(
        workload=workload.iter_requests(duration),
        policy="invalidate",
        num_nodes=3,
        staleness_bound=1.0,
        scenario=SCENARIO_FACTORIES["node-failure"]() if scenario else None,
        duration=duration,
        workload_name=workload.name,
        seed=3,
        obs=obs,
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Metrics: histograms, registry, merge exactness
# --------------------------------------------------------------------- #

class TestHistogram:
    def test_bucket_bounds_cover_observed_values(self) -> None:
        for value in (1e-6, 0.001, 0.7, 1.0, 3.5, 1000.0, 1e7):
            upper = bucket_upper_bound(bucket_index(value))
            assert value <= upper <= value * 1.3

    def test_zero_has_its_own_bucket(self) -> None:
        assert bucket_index(0.0) == 0
        assert bucket_upper_bound(0) == 0.0

    def test_percentile_walk(self) -> None:
        histogram = Histogram("t")
        for value in [1.0] * 90 + [100.0] * 10:
            histogram.observe(value)
        assert histogram.percentile(0.5) == bucket_upper_bound(bucket_index(1.0))
        assert histogram.percentile(0.99) == bucket_upper_bound(bucket_index(100.0))
        assert histogram.mean == pytest.approx((90 + 1000) / 100)

    def test_empty_percentile_is_zero(self) -> None:
        assert Histogram("t").percentile(0.99) == 0.0

    def test_empty_histogram_returns_zero_for_every_quantile(self) -> None:
        empty = Histogram("t")
        for quantile in (0.0, 0.5, 1.0):
            assert empty.percentile(quantile) == 0.0

    def test_quantile_zero_is_the_smallest_sample_bound(self) -> None:
        # The rank floors at 1, so q=0.0 bounds the *minimum* sample, not 0.
        histogram = Histogram("t")
        for value in (2.0, 8.0, 64.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == bucket_upper_bound(bucket_index(2.0))

    def test_quantile_one_is_the_largest_sample_bound(self) -> None:
        histogram = Histogram("t")
        for value in (2.0, 8.0, 64.0):
            histogram.observe(value)
        assert histogram.percentile(1.0) == bucket_upper_bound(bucket_index(64.0))

    def test_single_sample_dominates_every_quantile(self) -> None:
        histogram = Histogram("t")
        histogram.observe(3.0)
        bound = bucket_upper_bound(bucket_index(3.0))
        for quantile in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(quantile) == bound

    def test_out_of_range_quantiles_are_rejected(self) -> None:
        histogram = Histogram("t")
        histogram.observe(1.0)
        for quantile in (-0.1, 1.1):
            with pytest.raises(ValueError, match="quantile"):
                histogram.percentile(quantile)

    def test_merge_is_exact(self) -> None:
        left, right, reference = Histogram("t"), Histogram("t"), Histogram("t")
        for index, value in enumerate([0.1, 0.5, 2.0, 8.0, 0.0, 1e-9, 5e4]):
            (left if index % 2 else right).observe(value)
            reference.observe(value)
        left.merge(right)
        merged, expected = left.as_dict(), reference.as_dict()
        # Bucket counts and totals are integer-exact; the running float sum
        # may differ in the last ulp with addition order.
        assert merged["counts"] == expected["counts"]
        assert merged["count"] == expected["count"]
        assert merged["sum"] == pytest.approx(expected["sum"])

    def test_dict_round_trip(self) -> None:
        histogram = Histogram("t")
        for value in (0.0, 0.25, 3.0):
            histogram.observe(value)
        clone = Histogram.from_dict("t", histogram.as_dict())
        assert clone.as_dict() == histogram.as_dict()
        assert clone.percentile(0.5) == histogram.percentile(0.5)


class TestRegistry:
    def test_counters_gauges_histograms(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.counter("c").inc()
        registry.gauge("g").set(4.5)
        registry.histogram("h").observe(1.0)
        data = registry.as_dict()
        assert data["counters"]["c"] == 3
        assert data["gauges"]["g"] == 4.5
        assert data["histograms"]["h"]["count"] == 1
        clone = MetricsRegistry.from_dict(data)
        assert clone.as_dict() == data

    def test_counter_rejects_negative(self) -> None:
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)


# --------------------------------------------------------------------- #
# Windows and traces
# --------------------------------------------------------------------- #

class TestWindows:
    def test_rows_sum_nodes_in_sorted_order_with_derived_fields(self) -> None:
        sampler = WindowSampler(2.0)
        sampler.add(0, "node-001", {"reads": 10, "hits": 9})
        sampler.add(0, "node-000", {"reads": 10, "hits": 5, "writes": 2})
        rows = window_rows(sampler.as_dict(), WINDOW_FIELDS)
        assert len(rows) == 1
        row = rows[0]
        assert (row["start"], row["end"]) == (0.0, 2.0)
        assert row["reads"] == 20 and row["hits"] == 14
        assert row["hit_rate"] == pytest.approx(14 / 20)
        assert list(row["node_load"]) == ["node-000", "node-001"]
        assert row["node_load"]["node-000"] == 12


class TestTrace:
    def test_buffer_bounds_and_counts_drops(self) -> None:
        buffer = TraceBuffer(2)
        for index in range(5):
            buffer.append({"time": float(index)})
        assert len(buffer.records) == 2
        assert buffer.dropped == 3


# --------------------------------------------------------------------- #
# Config and recorder plumbing
# --------------------------------------------------------------------- #

class TestObsConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0.0},
            {"window": -1.0},
            {"window": math.nan},
            {"span_every": -1},
            {"max_trace_records": -1},
        ],
    )
    def test_rejects_bad_settings(self, kwargs) -> None:
        with pytest.raises(ValueError):
            ObsConfig(**kwargs)

    def test_as_recorder_normalisation(self) -> None:
        assert as_recorder(None) is None
        assert as_recorder(ObsConfig(enabled=False)) is None
        recorder = ObsRecorder()
        assert as_recorder(recorder) is recorder
        assert isinstance(as_recorder(ObsConfig()), ObsRecorder)
        with pytest.raises(TypeError):
            as_recorder("yes")

    def test_span_sampling_is_deterministic_every_nth(self) -> None:
        recorder = ObsRecorder(ObsConfig(span_every=3))
        decisions = [recorder.span_due() for _ in range(7)]
        assert decisions == [True, False, False, True, False, False, True]
        disabled = ObsRecorder(ObsConfig(span_every=0))
        assert not any(disabled.span_due() for _ in range(5))


# --------------------------------------------------------------------- #
# Engine integration: byte-identity and window series
# --------------------------------------------------------------------- #

class TestSingleCache:
    def test_results_byte_identical_with_obs_on(self) -> None:
        plain = _single().run().as_dict()
        observed = _single(ObsConfig(window=5.0)).run().as_dict()
        assert json.dumps(observed, sort_keys=True) == json.dumps(plain, sort_keys=True)

    def test_windows_sum_to_totals(self) -> None:
        simulation = _single(ObsConfig(window=5.0))
        result = simulation.run()
        payload = simulation.obs.payload()
        rows = window_rows(payload["windows"], WINDOW_FIELDS)
        assert sum(row["reads"] for row in rows) == result.reads
        assert sum(row["hits"] for row in rows) == result.hits
        assert payload["meta"]["totals"]["reads"] == result.reads
        assert payload["meta"]["end_time"] == 20.0

    def test_read_cost_histogram_covers_every_read(self) -> None:
        simulation = _single(ObsConfig(window=5.0))
        result = simulation.run()
        histogram = simulation.obs.payload()["metrics"]["histograms"]["read_cost"]
        assert histogram["count"] == result.reads

    def test_spans_record_outcome_and_phases(self) -> None:
        simulation = _single(ObsConfig(window=5.0, span_every=50))
        simulation.run()
        spans = [r for r in simulation.obs.payload()["trace"] if r["type"] == "span"]
        assert spans, "expected sampled spans"
        outcomes = {span["outcome"] for span in spans}
        assert outcomes <= {"hit", "stale_miss", "cold_miss", "l1_hit", "unreachable", "other", "applied"}
        read = next(span for span in spans if span["op"] == "read")
        assert read["phases"][0] == "route"

    def test_vector_engine_matches_scalar_and_folds_windows(self) -> None:
        workload = _workload()
        trace = compile_workload(workload, 20.0)
        shared = dict(
            policy=make_policy("invalidate"),
            staleness_bound=1.0,
            duration=20.0,
            workload_name=workload.name,
        )
        vector = VectorSimulation(trace, obs=ObsConfig(window=5.0), **shared)
        result = vector.run()
        assert vector.used_vector_path
        plain = _single().run().as_dict()
        assert json.dumps(result.as_dict(), sort_keys=True) == json.dumps(plain, sort_keys=True)
        payload = vector.obs.payload()
        rows = window_rows(payload["windows"], WINDOW_FIELDS)
        assert sum(row["reads"] for row in rows) == result.reads
        assert payload["meta"]["engine"] == "vector"


class TestZeroCostDisabled:
    def test_disabled_never_touches_the_wrappers(self, monkeypatch) -> None:
        calls = {"read": 0}
        original = Simulation._obs_process_read

        def counting(self, *request):
            calls["read"] += 1
            return original(self, *request)

        monkeypatch.setattr(Simulation, "_obs_process_read", counting)
        assert _single(obs=None).run().reads > 0
        assert calls["read"] == 0, "obs=None must bind the raw hot path"
        _single(ObsConfig(window=5.0)).run()
        assert calls["read"] > 0

    def test_disabled_makes_the_calls_of_a_run_without_obs(self) -> None:
        """Pinned: an ``obs=None`` replay makes exactly the calls of the same
        replay with the ``obs`` argument omitted — a count, not a clock."""
        def calls(**obs) -> int:
            workload = _workload()
            simulation = Simulation(
                workload=workload.iter_requests(10.0),
                policy=make_policy("invalidate"),
                staleness_bound=1.0,
                duration=10.0,
                workload_name=workload.name,
                **obs,
            )
            gc.collect()
            profiler = cProfile.Profile()
            profiler.runcall(simulation.run)
            return sum(entry.callcount for entry in profiler.getstats())

        calls()  # the first replay of a process imports and memoises
        control = calls()
        assert control > 0
        assert calls(obs=None) == control


# --------------------------------------------------------------------- #
# Cluster: the node-failure acceptance scenario
# --------------------------------------------------------------------- #

class TestClusterScenario:
    @pytest.fixture(scope="class")
    def observed(self):
        simulation = _cluster(ObsConfig(window=2.0))
        result = simulation.run()
        return result, result.obs

    def test_results_byte_identical_with_obs_on(self, observed) -> None:
        result, _ = observed
        row = result.as_dict()
        row.pop("obs")
        plain = _cluster().run().as_dict()
        assert json.dumps(row, sort_keys=True) == json.dumps(plain, sort_keys=True)

    def test_stale_serve_spike_visible_in_window_series(self, observed) -> None:
        _, payload = observed
        rows = window_rows(payload["windows"], WINDOW_FIELDS)
        by_start = {row["start"]: row for row in rows}
        # The scenario fails node-000 at t=24 and detects at t=28: reads
        # routed to the dead node serve stale until the ring heals.
        outage = [row for row in rows if 24.0 <= row["start"] < 28.0]
        # Warm windows only: the cold-start windows have a low hit rate for
        # an unrelated reason (first-touch misses).
        healthy = [row for row in rows if 10.0 <= row["start"] and row["end"] <= 24.0]
        assert sum(row["staleness_violations"] for row in outage) > 0
        assert all(row["staleness_violations"] == 0 for row in healthy)
        assert max(row["stale_misses"] for row in outage) > max(
            row["stale_misses"] for row in healthy
        )
        assert min(row["hit_rate"] for row in outage) < min(
            row["hit_rate"] for row in healthy
        )
        assert by_start[0.0]["node_load"], "per-node load present in every window"

    def test_event_stream_carries_the_failure_lifecycle(self, observed) -> None:
        _, payload = observed
        events = [r for r in payload["trace"] if r["type"] == "event"]
        sequence = [
            (event["kind"], event.get("label") or event.get("action"))
            for event in events
        ]
        assert sequence == [
            ("run-start", None),
            ("scenario", "fail"),
            ("rebalance", "remove"),
            ("scenario", "detect"),
            ("rebalance", "add"),
            ("scenario", "recover"),
            ("run-end", None),
        ]
        remove = next(e for e in events if e.get("action") == "remove")
        add = next(e for e in events if e.get("action") == "add")
        assert remove["node"] == add["node"] == "node-000"
        assert remove["time"] < add["time"]


class TestParallelMerge:
    """``workers`` never splits a fleet's recorder: every worker count
    replays the fleet in one process, so its payload is the one-worker
    payload."""

    def test_merged_payload_byte_identical_to_single_worker(self) -> None:
        workload = _workload(seed=7)
        trace = compile_workload(workload, 30.0)
        shared = dict(
            policy="invalidate",
            num_nodes=3,
            staleness_bound=1.0,
            duration=30.0,
            workload_name=workload.name,
            seed=7,
            obs=ObsConfig(window=5.0),
        )
        serial = replay_cluster_parallel(trace, workers=1, **shared)
        parallel = replay_cluster_parallel(trace, workers=3, **shared)
        assert json.dumps(parallel.obs, sort_keys=True) == json.dumps(
            serial.obs, sort_keys=True
        )
        serial_row, parallel_row = serial.as_dict(), parallel.as_dict()
        serial_row.pop("obs"), parallel_row.pop("obs")
        assert json.dumps(parallel_row, sort_keys=True) == json.dumps(
            serial_row, sort_keys=True
        )

    def test_a_recorder_object_observes_at_any_worker_count(self) -> None:
        workload = _workload()
        trace = compile_workload(workload, 5.0)
        shared = dict(
            policy="invalidate",
            num_nodes=3,
            staleness_bound=1.0,
            duration=5.0,
            workload_name=workload.name,
            seed=1,
        )
        payloads = set()
        for workers in (1, 2):
            recorder = ObsRecorder(ObsConfig(window=1.0))
            result = replay_cluster_parallel(trace, workers=workers, obs=recorder, **shared)
            assert result.obs == recorder.payload()
            payloads.add(json.dumps(result.obs, sort_keys=True))
        assert len(payloads) == 1


# --------------------------------------------------------------------- #
# Exporters and run directories
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def payload():
    simulation = _single(ObsConfig(window=5.0, span_every=100))
    simulation.run()
    return simulation.obs.payload()


class TestExporters:
    def test_windows_jsonl_round_trips(self, payload) -> None:
        lines = export_windows_jsonl(payload).strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 4
        assert all("hit_rate" in row and "node_load" in row for row in rows)

    def test_windows_csv_has_pinned_header(self, payload) -> None:
        header = export_windows_csv(payload).splitlines()[0].split(",")
        assert header[:3] == ["index", "start", "end"]
        assert header[3 : 3 + len(WINDOW_FIELDS)] == list(WINDOW_FIELDS)
        assert header[-4:] == ["hit_rate", "miss_cost", "l1_share", "node_load"]

    def test_prometheus_exposition_shape(self, payload) -> None:
        text = export_prometheus(payload)
        assert "# TYPE repro_total_reads counter" in text
        assert "# TYPE repro_end_time gauge" in text
        assert "# TYPE repro_read_cost histogram" in text
        assert 'repro_read_cost_bucket{le="+Inf"}' in text
        count = next(
            line for line in text.splitlines() if line.startswith("repro_read_cost_count")
        )
        assert int(count.split()[-1]) == payload["metrics"]["histograms"]["read_cost"]["count"]
        # Cumulative buckets must be monotone non-decreasing.
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_read_cost_bucket")
        ]
        assert buckets == sorted(buckets)

    def test_prometheus_text_format_grammar_conformance(self, payload) -> None:
        """A mini-parser for the exposition-format grammar.

        Every family must carry ``# HELP`` then ``# TYPE`` before its first
        sample; sample names must match the metric-name grammar; histogram
        families must expose monotone ``_bucket`` series whose ``+Inf``
        bucket equals ``_count``, plus a ``_sum`` sample.
        """
        name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        sample_re = re.compile(
            r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
            r'(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
            r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*)\})?'
            r" (?P<value>[^ ]+)$"
        )
        helped: set = set()
        typed: dict = {}
        sampled: set = set()
        for line in export_prometheus(payload).splitlines():
            if line.startswith("# HELP "):
                _, _, name, help_text = line.split(" ", 3)
                assert name_re.match(name), name
                assert help_text.strip(), f"empty HELP for {name}"
                assert name not in helped, f"duplicate HELP for {name}"
                assert name not in sampled, f"HELP for {name} after its samples"
                helped.add(name)
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram"), kind
                assert name in helped, f"TYPE for {name} before HELP"
                assert name not in typed, f"duplicate TYPE for {name}"
                typed[name] = kind
            else:
                match = sample_re.match(line)
                assert match, f"unparseable sample line: {line!r}"
                base = match.group("name")
                family = re.sub(r"_(bucket|sum|count)$", "", base)
                assert family in typed, f"sample {base} has no TYPE metadata"
                sampled.add(family)
                float(match.group("value").replace("+Inf", "inf"))
        # Histogram series: _bucket/_sum/_count all present, +Inf == _count.
        for name, kind in typed.items():
            if kind != "histogram":
                continue
            lines = export_prometheus(payload).splitlines()
            buckets = [line for line in lines if line.startswith(f"{name}_bucket")]
            assert buckets, f"histogram {name} has no _bucket series"
            assert buckets[-1].startswith(f'{name}_bucket{{le="+Inf"}}')
            count_line = next(line for line in lines if line.startswith(f"{name}_count"))
            assert buckets[-1].split()[-1] == count_line.split()[-1]
            assert any(line.startswith(f"{name}_sum") for line in lines)

    def test_prometheus_help_precedes_type_for_every_family(self, payload) -> None:
        lines = export_prometheus(payload).splitlines()
        type_lines = [line for line in lines if line.startswith("# TYPE ")]
        assert type_lines
        for type_line in type_lines:
            name = type_line.split(" ", 3)[2]
            help_index = lines.index(
                next(line for line in lines if line.startswith(f"# HELP {name} "))
            )
            assert help_index == lines.index(type_line) - 1

    def test_run_directory_round_trip(self, payload, tmp_path) -> None:
        written = write_run(payload, str(tmp_path / "obs"))
        assert sorted(written) == [
            "OBS_RUN.json",
            "metrics.prom",
            "trace.jsonl",
            "windows.jsonl",
        ]
        loaded = load_run(str(tmp_path / "obs"))
        assert json.dumps(loaded, sort_keys=True) == json.dumps(payload, sort_keys=True)

    def test_load_run_rejects_non_obs_dirs(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path))
        (tmp_path / "OBS_RUN.json").write_text('{"kind": "other"}\n')
        with pytest.raises(ValueError):
            load_run(str(tmp_path))

    def test_summarize_mentions_the_essentials(self, payload) -> None:
        text = summarize(payload)
        assert "policy=invalidate" in text
        assert "windows: 4 x 5.0s" in text
        assert "read_cost:" in text and "p99=" in text
        assert "spans" in text and "dropped" in text


# --------------------------------------------------------------------- #
# Experiments layer and CLI
# --------------------------------------------------------------------- #

class TestExperimentsIntegration:
    def test_spec_validates_obs_window(self) -> None:
        with pytest.raises(ConfigurationError, match="obs_window"):
            ExperimentSpec(
                name="t",
                workloads=("poisson",),
                policies=("invalidate",),
                staleness_bounds=(1.0,),
                obs_window=-1.0,
            )

    def test_run_cell_attaches_payload_only_when_enabled(self) -> None:
        def cell(obs_window):
            return RunCell(
                experiment="t",
                cell_id=0,
                policy="invalidate",
                workload="poisson",
                workload_params=(),
                staleness_bound=1.0,
                cache_capacity=None,
                channel=None,
                duration=10.0,
                seed=1,
                obs_window=obs_window,
            )

        plain = run_cell(cell(None))
        assert "obs" not in plain
        observed = run_cell(cell(2.0))
        assert observed["obs"]["kind"] == "repro-obs"
        observed.pop("obs")
        plain.pop("obs_window"), observed.pop("obs_window")
        assert json.dumps(observed, sort_keys=True) == json.dumps(plain, sort_keys=True)


class TestCli:
    def test_run_obs_dir_then_summary_tail_export(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = tmp_path / "obs-run"
        out = tmp_path / "row.json"
        assert main([
            "run", "--policy", "invalidate", "--duration", "20",
            "--obs-window", "5", "--obs-dir", str(obs_dir),
            "--output", str(out),
        ]) == 0
        row = json.loads(out.read_text())
        assert row["obs_dir"] == str(obs_dir)
        assert "obs" not in row
        assert (obs_dir / "OBS_RUN.json").exists()
        capsys.readouterr()

        assert main(["obs", "summary", "--dir", str(obs_dir)]) == 0
        summary = capsys.readouterr().out
        assert "totals:" in summary and "windows: 4" in summary

        assert main(["obs", "tail", "--dir", str(obs_dir), "--events-only", "--limit", "1"]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["kind"] == "run-end"

        assert main(["obs", "export", "--dir", str(obs_dir), "--format", "prom"]) == 0
        assert "# TYPE repro_total_reads counter" in capsys.readouterr().out

        csv_path = tmp_path / "windows.csv"
        assert main([
            "obs", "export", "--dir", str(obs_dir), "--format", "csv",
            "--output", str(csv_path),
        ]) == 0
        assert csv_path.read_text().startswith("index,start,end,")

    def test_obs_tail_since_filter(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = tmp_path / "obs-run"
        assert main([
            "-q", "run", "--policy", "invalidate", "--duration", "20",
            "--obs-window", "5", "--obs-dir", str(obs_dir),
            "--output", str(tmp_path / "row.json"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs", "tail", "--dir", str(obs_dir), "--since", "15", "--limit", "0",
        ]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records
        assert all(record["time"] >= 15.0 for record in records)
        # --since past the end of the run filters everything out.
        assert main([
            "obs", "tail", "--dir", str(obs_dir), "--since", "1000", "--limit", "0",
        ]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_obs_tail_node_filter(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = tmp_path / "obs-run"
        assert main([
            "-q", "run", "--policy", "invalidate", "--duration", "20",
            "--obs-window", "5", "--obs-dir", str(obs_dir),
            "--output", str(tmp_path / "row.json"),
        ]) == 0
        capsys.readouterr()
        # The single-cache host node is "cache" (see ReplayDriver._start).
        assert main([
            "obs", "tail", "--dir", str(obs_dir), "--node", "cache", "--limit", "0",
        ]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records
        assert all(record["node"] == "cache" for record in records)
        assert main([
            "obs", "tail", "--dir", str(obs_dir), "--node", "node-999",
        ]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_obs_tail_filters_compose(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = tmp_path / "obs-run"
        assert main([
            "-q", "run", "--policy", "invalidate", "--duration", "20",
            "--obs-window", "5", "--obs-dir", str(obs_dir),
            "--output", str(tmp_path / "row.json"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs", "tail", "--dir", str(obs_dir), "--node", "cache",
            "--since", "10", "--limit", "2",
        ]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 2
        assert all(
            record["node"] == "cache" and record["time"] >= 10.0 for record in records
        )

    def test_obs_summary_on_missing_dir_is_clean_error(self, tmp_path) -> None:
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["obs", "summary", "--dir", str(tmp_path / "nope")])
