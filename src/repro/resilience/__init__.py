"""Fleet resilience: elastic scaling, gray failures, and chaos injection.

This package closes ROADMAP item 5 on top of the cluster substrate:

* :mod:`repro.resilience.autoscale` — a deterministic autoscaler scenario
  that grows/shrinks the fleet mid-run from load and hot-key pressure,
  measured against the ideal-elasticity baseline (instant, free scaling).
* :mod:`repro.resilience.scenarios` — the richer failure taxonomy:
  ``gray-failure`` (slow-but-alive nodes), ``zone-outage`` (correlated loss
  of a failure domain), ``flapping`` (membership churn faster than
  detection).
* :mod:`repro.resilience.chaos` — seeded, composable fault plans (delay,
  drop, slow-node, crash) injected alongside any scenario, plus the
  retry/timeout/backoff knobs on :class:`~repro.backend.channel.Channel`.

Everything is a pure function of (workload, config, seed): fault plans draw
from their own seeded stream, scenarios script timed events, and replays are
byte-identical across engines and worker counts.
"""

from repro.resilience.autoscale import AutoscaleScenario
from repro.resilience.chaos import ChaosPlan, ChaosSpec, as_chaos_plan
from repro.resilience.scenarios import (
    RESILIENCE_SCENARIOS,
    FlappingScenario,
    GrayFailureScenario,
    ZoneOutageScenario,
)

__all__ = [
    "AutoscaleScenario",
    "ChaosPlan",
    "ChaosSpec",
    "FlappingScenario",
    "GrayFailureScenario",
    "RESILIENCE_SCENARIOS",
    "ZoneOutageScenario",
    "as_chaos_plan",
]
