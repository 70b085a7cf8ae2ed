"""The analytical freshness/staleness cost model (§2 and §3.1 of the paper).

Closed-form expressions for the freshness cost :math:`C_F` and the staleness
cost :math:`C_S` of every policy, assuming per-key Poisson arrivals with rate
``lambda`` and read probability ``r``.  These formulas produce the
"Theoretical" curves overlaid on the simulation results in Figures 2 and 3 and
drive the decision rules of §3.2.  :mod:`repro.model.exact` holds exact forms
for the same model where the paper's are approximations.
"""

from repro.model.arrivals import p_read, p_write
from repro.model.exact import (
    invalidate_chain,
    invalidate_miss_rate,
    ttl_expiry_miss_rate,
)
from repro.model.capacity import (
    che_characteristic_time,
    che_hit_ratio,
    che_per_content_hit_ratio,
)
from repro.model.analytical import (
    InvalidationModel,
    KeyParameters,
    PolicyModel,
    TTLExpiryModel,
    TTLPollingModel,
    UpdateModel,
    aggregate_normalized_costs,
    steady_state_invalidated_probability,
)

__all__ = [
    "InvalidationModel",
    "KeyParameters",
    "PolicyModel",
    "TTLExpiryModel",
    "TTLPollingModel",
    "UpdateModel",
    "aggregate_normalized_costs",
    "che_characteristic_time",
    "che_hit_ratio",
    "che_per_content_hit_ratio",
    "invalidate_chain",
    "invalidate_miss_rate",
    "p_read",
    "p_write",
    "steady_state_invalidated_probability",
    "ttl_expiry_miss_rate",
]
