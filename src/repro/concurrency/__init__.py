"""Concurrency realism: in-flight backend fetches and stampede mitigations.

This package models what the instant-fetch engines abstract away: a cache
miss *occupies* the backend for a sampled service time, the backend has a
finite number of fetch slots with FIFO queueing, and overlapping misses on
the same key either dogpile the backend or coalesce, depending on the
configured stampede-mitigation policy.  Read latency (0 for hits and stale
serves, queueing + service time for misses that wait) lands in per-run
p50/p99/p999 percentiles via the :mod:`repro.obs` histogram machinery.

Enable it by passing a :class:`ConcurrencyConfig` to the simulation, cluster,
experiment grid, or CLI; the default (``None``) keeps every engine
byte-identical to the classic instant-fetch model — that invariant is
test-pinned across the scalar and vector pipelines and any worker count.
"""

from repro.concurrency.backend import BackendServer
from repro.concurrency.config import (
    SERVICE_TIME_DISTRIBUTIONS,
    STAMPEDE_POLICIES,
    ConcurrencyConfig,
    as_concurrency,
)
from repro.concurrency.coordinator import FetchCoordinator, InFlightFetch
from repro.concurrency.service import ServiceTimeSampler

__all__ = [
    "BackendServer",
    "ConcurrencyConfig",
    "FetchCoordinator",
    "InFlightFetch",
    "SERVICE_TIME_DISTRIBUTIONS",
    "STAMPEDE_POLICIES",
    "ServiceTimeSampler",
    "as_concurrency",
]
