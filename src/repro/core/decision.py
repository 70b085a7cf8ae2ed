"""Update-vs-invalidate decision rules (§3.2 and §3.3 of the paper).

Two rules are implemented:

* :func:`ew_decision` — the pragmatic per-key approximation that uses
  ``E[W]``, the expected number of writes between reads: a run of ``E[W]``
  writes followed by a read costs ``E[W] * c_u`` under updates versus
  ``c_i + c_m`` under invalidation, so updates are preferred when
  ``E[W] * c_u < c_i + c_m``.

  .. note::
     The paper's prose states the comparison the other way around ("pick
     invalidate if E[W] c_u < c_m + c_i"); the cost argument in the same
     paragraph (E[W] updates vs. one invalidate plus one miss) implies the
     inequality selects *updates*, which is what this implementation does.
* :func:`decide_with_slo` — the throughput rule augmented with a staleness
  SLO: updates are chosen either when they are cheaper or when invalidation
  would violate the allowed stale-read ratio (``1 - r > C`` as ``T -> 0``).

:class:`DecisionRule` bundles the costs and picks between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import Action
from repro.errors import ConfigurationError


def ew_decision(
    expected_writes_between_reads: float,
    miss_cost: float,
    invalidate_cost: float,
    update_cost: float,
) -> Action:
    """Pick update or invalidate from an ``E[W]`` estimate (§3.3).

    A run of ``E[W]`` writes followed by a read costs ``E[W] * c_u`` under an
    update policy versus ``c_i + c_m`` under invalidation (one invalidate, one
    miss), so updates win when ``E[W] * c_u < c_i + c_m``.

    Args:
        expected_writes_between_reads: The ``E[W]`` estimate (>= 0).
        miss_cost: ``c_m``.
        invalidate_cost: ``c_i``.
        update_cost: ``c_u``.

    Returns:
        :attr:`Action.UPDATE` or :attr:`Action.INVALIDATE`.

    Example — a rarely-written key takes updates, a write-storm key does not:

        >>> ew_decision(0.5, miss_cost=1.0, invalidate_cost=0.1, update_cost=0.6).value
        'update'
        >>> ew_decision(10.0, miss_cost=1.0, invalidate_cost=0.1, update_cost=0.6).value
        'invalidate'
    """
    if expected_writes_between_reads < 0:
        raise ConfigurationError(
            f"E[W] must be non-negative, got {expected_writes_between_reads}"
        )
    update_run_cost = expected_writes_between_reads * update_cost
    invalidate_run_cost = invalidate_cost + miss_cost
    if update_run_cost < invalidate_run_cost:
        return Action.UPDATE
    return Action.INVALIDATE


def decide_with_slo(
    read_ratio: float,
    miss_cost: float,
    invalidate_cost: float,
    update_cost: float,
    staleness_slo: float,
) -> Action:
    """Throughput decision constrained by a staleness SLO (§3.2, ``T -> 0``).

    The backend chooses updates if either

    * updates are cheaper anyway (``(c_i + c_m) * r > c_u``), or
    * invalidation would exceed the allowed stale-read ratio
      (``1 - r > C`` where ``C`` is the user's bound on :math:`C'_S`),

    and chooses invalidates otherwise.

    Args:
        read_ratio: Per-key read probability ``r``.
        miss_cost: ``c_m``.
        invalidate_cost: ``c_i``.
        update_cost: ``c_u``.
        staleness_slo: Maximum tolerated stale-read miss ratio ``C``.

    Returns:
        :attr:`Action.UPDATE` or :attr:`Action.INVALIDATE`.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ConfigurationError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if staleness_slo < 0:
        raise ConfigurationError(f"staleness_slo must be >= 0, got {staleness_slo}")
    cheaper_to_update = (invalidate_cost + miss_cost) * read_ratio > update_cost
    slo_requires_update = (1.0 - read_ratio) > staleness_slo
    if cheaper_to_update or slo_requires_update:
        return Action.UPDATE
    return Action.INVALIDATE


@dataclass(frozen=True, slots=True)
class DecisionRule:
    """A reusable, cost-parameterised decision rule.

    Bundles the cost parameters so call sites only supply the per-key
    statistics.  Used by the adaptive policies and by the experiments that
    check sketch decision accuracy (Figure 6b).

    Example:

        >>> rule = DecisionRule(miss_cost=1.0, invalidate_cost=0.1, update_cost=0.6)
        >>> rule.from_ew(0.5).value
        'update'
        >>> DecisionRule(1.0, 0.1, 0.6, staleness_slo=0.0).from_ew(10.0).value
        'update'
    """

    miss_cost: float
    invalidate_cost: float
    update_cost: float
    staleness_slo: float | None = None

    def from_ew(self, expected_writes_between_reads: float) -> Action:
        """Decide from an ``E[W]`` estimate, honouring the SLO if configured."""
        if self.staleness_slo is not None:
            # E[W] = (1 - r) / r  =>  r = 1 / (1 + E[W]).
            read_ratio = 1.0 / (1.0 + max(expected_writes_between_reads, 0.0))
            return decide_with_slo(
                read_ratio=read_ratio,
                miss_cost=self.miss_cost,
                invalidate_cost=self.invalidate_cost,
                update_cost=self.update_cost,
                staleness_slo=self.staleness_slo,
            )
        return ew_decision(
            expected_writes_between_reads,
            miss_cost=self.miss_cost,
            invalidate_cost=self.invalidate_cost,
            update_cost=self.update_cost,
        )
