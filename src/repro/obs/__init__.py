"""Time-resolved telemetry for the replay stack (``repro.obs``).

End-of-run aggregates (:class:`~repro.sim.results.SimulationResult` /
:class:`~repro.cluster.results.ClusterResult`) answer *how much* but never
*when*: stampede onset, the stale-serve spike of a ``node-failure`` scenario,
or a tier's warming transient are invisible between t=0 and t=end.  This
package adds the observability layer production cache operators reason from:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  log-bucketed percentile histograms with HDR-style **fixed** buckets, so
  merging two histograms (e.g. a fleet's per-node latency buckets) is an
  exact integer addition;
* :class:`~repro.obs.recorder.ObsRecorder` — windowed time-series sampling
  of the run (hit rate, miss cost, staleness violations, per-node load, tier
  L1 share, channel drops per window) plus structured tracing: sampled
  per-request spans and discrete events (scenario transitions, rebalances,
  evictions, hot-key switches, snapshots, recovery) in a bounded buffer;
* :mod:`~repro.obs.export` — JSONL / CSV / Prometheus text exporters and the
  on-disk run-directory format behind ``python -m repro obs``;
* :mod:`~repro.obs.analyze` — post-hoc run diffing (window-by-window,
  node-by-node, badness-oriented regression ranking) and deterministic
  anomaly detection (rolling-median + change-point) with lifecycle-event
  annotation, behind ``python -m repro obs diff``;
* :mod:`~repro.obs.slo` — a declarative SLO rules engine (hit-ratio floors,
  staleness-rate ceilings, histogram-quantile bounds, anomaly budgets)
  evaluated post-run with CI-friendly exit codes, behind
  ``python -m repro obs check`` and ``ExperimentSpec(slo_rules=)``;
* :mod:`~repro.obs.report` — self-contained HTML run reports (inline SVG
  sparklines, anomaly/SLO/diff tables) behind ``python -m repro obs report``.

The recorder is strictly **observational**: it reads result counters at
window boundaries and never feeds anything back into the simulation, so
replay results are byte-identical with observability on or off.  Disabled
mode is null-object zero cost — the replay loops bind their plain,
un-instrumented hot-path methods when no recorder is attached.
"""

from repro.obs.analyze import detect_anomalies, diff_payloads
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import WINDOW_FIELDS, ObsConfig, ObsRecorder, as_recorder
from repro.obs.report import render_report
from repro.obs.slo import canonical_rules, evaluate_slo, load_rules, validate_rules
from repro.obs.trace import TraceBuffer
from repro.obs.windows import WindowSampler

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "ObsRecorder",
    "TraceBuffer",
    "WindowSampler",
    "WINDOW_FIELDS",
    "as_recorder",
    "canonical_rules",
    "detect_anomalies",
    "diff_payloads",
    "evaluate_slo",
    "load_rules",
    "render_report",
    "validate_rules",
]
