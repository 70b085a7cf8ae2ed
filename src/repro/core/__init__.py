"""Freshness policies and the cost model — the paper's primary contribution.

This package contains:

* the cost model (``c_m``, ``c_i``, ``c_u`` and the Table 1 breakdown),
* the policy interface shared by every freshness mechanism,
* the two TTL baselines (TTL-expiry and TTL-polling, §2.2),
* the two write-reactive baselines (always-invalidate and always-update, §3.1),
* the update-vs-invalidate decision rules (§3.2) and their SLO-constrained
  variant,
* the adaptive per-key policy driven by E[W] sketches (§3.3), with and
  without cache-state knowledge, and
* the omniscient optimal policy used as the upper bound in Figure 5.
"""

from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.policy import Action, FreshnessPolicy, PolicyContext
from repro.core.decision import (
    DecisionRule,
    decide_with_slo,
    ew_decision,
    optimal_update_probability,
    update_preferred,
)
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.optimal import OptimalPolicy

__all__ = [
    "Action",
    "AdaptivePolicy",
    "AlwaysInvalidatePolicy",
    "AlwaysUpdatePolicy",
    "CacheStateAdaptivePolicy",
    "CostBreakdown",
    "CostModel",
    "DecisionRule",
    "FreshnessPolicy",
    "OptimalPolicy",
    "PolicyContext",
    "TTLExpiryPolicy",
    "TTLPollingPolicy",
    "decide_with_slo",
    "ew_decision",
    "optimal_update_probability",
    "update_preferred",
]
