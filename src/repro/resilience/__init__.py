"""Fleet resilience: elastic scaling, gray failures, and chaos injection.

This package builds on the cluster substrate:

* :mod:`repro.resilience.autoscale` — a deterministic autoscaler scenario
  that grows/shrinks the fleet mid-run from load and hot-key pressure,
  measured against the ideal-elasticity baseline (instant, free scaling).
* the richer failure taxonomy, re-exported from the one scenario catalog
  (:mod:`repro.cluster.scenarios`): ``gray-failure`` (slow-but-alive
  nodes), ``zone-outage`` (correlated loss of a failure domain),
  ``flapping`` (membership churn faster than detection).
* :mod:`repro.resilience.chaos` — seeded, composable fault plans (delay,
  drop, slow-node, crash) injected alongside any scenario, plus the
  retry/timeout/backoff knobs on :class:`~repro.backend.channel.Channel`.

Everything is a pure function of (workload, config, seed): fault plans draw
from their own seeded stream, scenarios script timed events, and replays are
byte-identical across engines and worker counts.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.cluster.scenarios": ("FlappingScenario", "GrayFailureScenario", "ZoneOutageScenario"),
    "repro.resilience.autoscale": ("AutoscaleScenario",),
    "repro.resilience.chaos": ("ChaosPlan", "ChaosSpec", "as_chaos_plan"),
})
