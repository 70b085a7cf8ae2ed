"""repro.tier — the two-level (L1/L2) cache hierarchy.

Every real fleet fronts its shared cache tier with a small in-process L1;
this package gives each :class:`~repro.sim.node.CacheNode` one, so the
staleness/cost trade-offs of tiering — the paper's core tension, now with two
places data can go stale — become measurable:

* :class:`TierConfig` — declarative tier parameters (capacity, fill mode,
  admission policy); ``l1_capacity=0`` disables the tier and reproduces the
  single-tier results byte-for-byte (test-pinned),
* :class:`L1Tier` — the per-node L1 cache with write-through / write-back
  fill, admission-gated promotion, demotion on eviction, invalidation
  fan-out, and degraded serving during an L2 outage, and
* the admission policies (:func:`make_admission`): ``always``,
  ``second-hit`` (Count-min sketch), and ``size-ttl``.

Pass ``tier=TierConfig(l1_capacity=...)`` to
:class:`~repro.cluster.cluster.ClusterSimulation`, sweep the
``l1_capacities`` / ``tier_modes`` axes of an
:class:`~repro.experiments.spec.ExperimentSpec`, or run
``python -m repro tier`` from the command line.
"""

from repro.tier.admission import (
    AdmissionPolicy,
    SecondHitAdmission,
    SizeTTLAdmission,
    make_admission,
)
from repro.tier.config import ADMISSION_POLICIES, TIER_MODES, TierConfig
from repro.tier.l1 import L1Tier

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "L1Tier",
    "SecondHitAdmission",
    "SizeTTLAdmission",
    "TIER_MODES",
    "TierConfig",
    "make_admission",
]
