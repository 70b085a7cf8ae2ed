"""The exact TTL-expiry form against both engines, on one-key Poisson traces.

A key's misses under TTL-expiry form a renewal process (cycles of
``T + Exp(λ_r)``; :mod:`repro.model.exact`).  Over a horizon ``H`` the
renewal central limit theorem puts the miss count within a few standard
deviations ``sqrt(H σ² / μ³)`` of ``H / μ``, with ``μ = T + 1/λ_r`` and
``σ² = 1/λ_r²``: that is the tolerance, derived, not tuned.  The miss count
is ``stale_misses + 1``, the first miss being cold; the ``+ 1`` on the
tolerance covers the first cycle, which starts at the first read rather
than at a miss.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.registry import make_policy
from repro.model.exact import ttl_expiry_miss_rate
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

HORIZON = 2000.0
READ_RATIO = 0.9
CELLS = [(1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (2.0, 0.1)]


def one_key_trace(rate: float, seed: int = 0):
    workload = PoissonZipfWorkload(num_keys=1, rate_per_key=rate, read_ratio=READ_RATIO, seed=seed)
    return compile_workload(workload, HORIZON)


def replay(trace, ttl: float, engine: str):
    config = dict(staleness_bound=ttl, duration=HORIZON, workload_name="poisson")
    if engine == "vector":
        simulation = VectorSimulation(trace, policy=make_policy("ttl-expiry"), **config)
    else:
        simulation = Simulation(trace.iter_requests(), policy=make_policy("ttl-expiry"), **config)
    return simulation.run()


def brute_force_stale_misses(times, is_read, ttl: float) -> int:
    """Misses after the first, by walking the reads: a read at or past the
    expiry of the last fetch misses and fetches."""
    expires = None
    stale = 0
    for time, read in zip(times, is_read):
        if not read or (expires is not None and time < expires):
            continue
        if expires is not None:
            stale += 1
        expires = time + ttl
    return stale


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("rate, ttl", CELLS)
def test_ttl_expiry_misses_follow_the_renewal_form(rate: float, ttl: float, engine: str) -> None:
    result = replay(one_key_trace(rate), ttl, engine)
    reads = rate * READ_RATIO
    mean = ttl + 1.0 / reads
    variance = 1.0 / reads**2
    assert 1.0 / mean == pytest.approx(ttl_expiry_miss_rate(rate, READ_RATIO, ttl))
    expected = HORIZON / mean
    tolerance = 4.0 * math.sqrt(HORIZON * variance / mean**3) + 1.0
    assert result.cold_misses == 1
    assert abs(result.stale_misses + 1 - expected) <= tolerance


@pytest.mark.parametrize("rate, ttl", CELLS)
def test_a_brute_force_walk_equals_both_engines(rate: float, ttl: float) -> None:
    trace = one_key_trace(rate, seed=1)
    walked = brute_force_stale_misses(trace.times.tolist(), trace.is_read.tolist(), ttl)
    assert replay(trace, ttl, "scalar").stale_misses == walked
    assert replay(trace, ttl, "vector").stale_misses == walked


def test_the_paper_form_overcharges_between_the_extremes() -> None:
    """At ``λ_r T ≈ 1.8`` the grid form ``P_R(T)/T`` is 30 % above the renewal one."""
    from repro.model.arrivals import p_read

    rate, ttl = 2.0, 1.0
    grid = p_read(rate, READ_RATIO, ttl) / ttl
    assert grid / ttl_expiry_miss_rate(rate, READ_RATIO, ttl) == pytest.approx(1.298, abs=1e-3)
