"""The adaptive per-key freshness policy (§3.2–§3.3, "Adpt." in Figure 5).

The policy reacts to writes and, for every dirty key at an interval flush,
chooses between sending an update and an invalidate using the pragmatic
``E[W]`` rule: updates are cheaper when ``E[W] * c_u < c_i + c_m``, where
``E[W]`` — the expected number of writes between reads — is estimated per key
by a pluggable sketch (:mod:`repro.sketch`).

Decisions are made strictly per key, with no state shared across keys, which
is what makes the policy cheap to implement at the backend or at a proxy.

:class:`CacheStateAdaptivePolicy` ("Adpt. + C.S.") is the hypothetical variant
that additionally knows which keys are currently cached and therefore never
wastes a message on an uncached key; the paper uses it to quantify how much
the per-object independence assumption costs.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.core.decision import DecisionRule
from repro.core.policy import Action, FreshnessPolicy, PolicyContext
from repro.sketch.base import EWEstimator
from repro.sketch.exact import ExactEWTracker


class AdaptivePolicy(FreshnessPolicy):
    """Per-key adaptive choice between updates and invalidates.

    Args:
        estimator: The ``E[W]`` estimator fed with every read and write.
            Defaults to exact per-key tracking; pass a
            :class:`~repro.sketch.countmin.CountMinEWSketch` or
            :class:`~repro.sketch.topk.TopKEWSketch` to trade accuracy for
            memory (Figure 6).
        staleness_slo: Optional bound on the stale-read miss ratio
            (:math:`C'_S \\le C`).  When set, the SLO-constrained rule of
            §3.2 is used instead of the pure throughput rule ("Adpt." vs the
            SLO scenario discussed in the paper).

    Example — the estimator learns E[W] from the observed stream:

        >>> policy = AdaptivePolicy()
        >>> for _ in range(4):
        ...     policy.observe_write("k", time=0.0)
        >>> policy.observe_read("k", time=1.0)
        >>> policy.estimator.estimate("k")
        4.0
    """

    name = "adaptive"
    reacts_to_writes = True

    def __init__(
        self,
        estimator: Optional[EWEstimator] = None,
        staleness_slo: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.estimator = estimator if estimator is not None else ExactEWTracker()
        self.staleness_slo = staleness_slo
        self._rule: Optional[DecisionRule] = None
        self.decisions_update = 0
        self.decisions_invalidate = 0

    def bind(self, context: PolicyContext) -> None:
        """Attach to a run and pre-build the decision rule from default sizes."""
        super().bind(context)
        self.decisions_update = 0
        self.decisions_invalidate = 0

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe_read(self, key: str, time: float) -> None:
        """Feed the read into the E[W] estimator."""
        self.estimator.observe_read(key)

    def observe_write(self, key: str, time: float) -> None:
        """Feed the write into the E[W] estimator."""
        self.estimator.observe_write(key)

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def _decision_rule_for(self, key: str) -> DecisionRule:
        """Build the decision rule for ``key`` using its object sizes."""
        costs = self.context.costs
        datastore = self.context.datastore
        value_size = datastore.value_size(key)
        return DecisionRule(
            miss_cost=costs.miss_cost(value_size=value_size),
            invalidate_cost=costs.invalidate_cost(),
            update_cost=costs.update_cost(value_size=value_size),
            staleness_slo=self.staleness_slo,
        )

    def decide(self, key: str, time: float) -> Action:
        """Pick update or invalidate for ``key`` from its E[W] estimate."""
        rule = self._decision_rule_for(key)
        action = rule.from_ew(self.estimator.estimate(key))
        if action is Action.UPDATE:
            self.decisions_update += 1
        else:
            self.decisions_invalidate += 1
        return action

    def decisions(self, keys: Sequence[str], time: float) -> Iterator[Action]:
        """One rule per flush where one rule fits every key.

        A flat cost preset ignores object sizes, so every key gets the same
        rule: built once, each key costs an ``E[W]`` estimate and a
        comparison.  Breakdown costs scale with each key's sizes and a
        subclass that overrides :meth:`decide` or :meth:`_decision_rule_for`
        may decide anything, so both keep the per-key default.
        """
        kind = type(self)
        if (
            not keys
            or self.context.costs.breakdown is not None
            or kind.decide is not AdaptivePolicy.decide
            or kind._decision_rule_for is not AdaptivePolicy._decision_rule_for
        ):
            return super().decisions(keys, time)
        return self._decisions_under(self._decision_rule_for(keys[0]), keys)

    def _decisions_under(self, rule: DecisionRule, keys: Sequence[str]) -> Iterator[Action]:
        from_ew = rule.from_ew
        estimate = self.estimator.estimate
        for key in keys:
            action = from_ew(estimate(key))
            if action is Action.UPDATE:
                self.decisions_update += 1
            else:
                self.decisions_invalidate += 1
            yield action


class CacheStateAdaptivePolicy(AdaptivePolicy):
    """Adaptive policy that also knows which keys are currently cached.

    Identical to :class:`AdaptivePolicy` except that dirty keys not present in
    the cache receive no message at all — the backend "knows" the message
    would be wasted.  Comparing the two quantifies the cost of the paper's
    per-object independence assumption (Figure 5, "Adpt. + C.S.").
    """

    name = "adaptive+cs"
    knows_cache_state = True

    def decide(self, key: str, time: float) -> Action:
        """Skip uncached keys, otherwise decide exactly like the base policy."""
        entry = self.context.cache.peek(key)
        if entry is None or not entry.is_valid:
            # A key that is cached but already invalidated (or expired) also
            # needs no further message: the pending miss will re-fetch it.
            return Action.NOTHING
        return super().decide(key, time)
