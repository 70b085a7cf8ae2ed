"""The exact forms against both engines, on one-key Poisson traces: the
TTL-expiry renewal form, then invalidate's ordered two-state chain.

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

import numpy as np
import pytest

from repro.experiments.registry import make_policy
from repro.model.arrivals import p_read, p_write
from repro.model.exact import invalidate_chain, invalidate_miss_rate, ttl_expiry_miss_rate
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

HORIZON = 2000.0
READ_RATIO = 0.9
CELLS = [(1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (2.0, 0.1)]


def one_key_trace(rate: float, seed: int = 0, read_ratio: float = READ_RATIO):
    workload = PoissonZipfWorkload(num_keys=1, rate_per_key=rate, read_ratio=read_ratio, seed=seed)
    return compile_workload(workload, HORIZON)


def replay(trace, ttl: float, engine: str, policy: str = "ttl-expiry"):
    config = dict(staleness_bound=ttl, duration=HORIZON, workload_name="poisson")
    if engine == "vector":
        simulation = VectorSimulation(trace, policy=make_policy(policy), **config)
    else:
        simulation = Simulation(trace.iter_requests(), policy=make_policy(policy), **config)
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


#: (λ, r, T): the read ratio moves too.  Writes never touch a TTL-expiry
#: entry, so only ``λ_r = r λ`` matters: ``λ_r T`` = 1, 1 and 3.
RENEWAL_CELLS = [(4.0, 0.5, 0.5), (20.0, 0.25, 0.2), (1.5, 1.0, 2.0)]


@pytest.mark.parametrize("rate, read_ratio, ttl", RENEWAL_CELLS)
def test_ttl_expiry_misses_follow_the_renewal_form_at_any_read_ratio(
    rate: float, read_ratio: float, ttl: float
) -> None:
    """Both engines and a walk written without ``CacheNode`` count the same
    misses, within 4 renewal-CLT standard deviations (plus the first,
    partial cycle) of ``H λ_r / (1 + λ_r T)``."""
    trace = one_key_trace(rate, seed=2, read_ratio=read_ratio)
    walked = brute_force_stale_misses(trace.times.tolist(), trace.is_read.tolist(), ttl)
    reads = rate * read_ratio
    mean = ttl + 1.0 / reads
    tolerance = 4.0 * math.sqrt(HORIZON * (1.0 / reads**2) / mean**3) + 1.0
    assert abs(walked + 1 - HORIZON * ttl_expiry_miss_rate(rate, read_ratio, ttl)) <= tolerance
    for engine in ("scalar", "vector"):
        result = replay(trace, ttl, engine)
        assert (result.cold_misses, result.stale_misses) == (1, walked), engine


def test_the_paper_form_overcharges_between_the_extremes() -> None:
    """At ``λ_r T ≈ 1.8`` the grid form ``P_R(T)/T`` is 30 % above the renewal one."""
    from repro.model.arrivals import p_read

    rate, ttl = 2.0, 1.0
    grid = p_read(rate, READ_RATIO, ttl) / ttl
    assert grid / ttl_expiry_miss_rate(rate, READ_RATIO, ttl) == pytest.approx(1.298, abs=1e-3)


# --------------------------------------------------------------------- #
# Invalidate: the ordered two-state chain
# --------------------------------------------------------------------- #

#: (λ, r, T): equal read and write rates (the chain's ``x = 0`` limit) at
#: two bounds, and a read-heavy key flushed twice a second.
CHAIN_CELLS = [(5.0, 0.5, 1.0), (2.0, 0.5, 2.0), (20.0, 0.9, 0.5)]


def interval_outcomes(rate: float, read_ratio: float, bound: float):
    """The chain refined to what an interval does, so that its miss is a
    function of the state: from I, no read (→ I), a read then a write
    (a miss, → I) or a read and no write after it (a miss, → V); from V, a
    write (→ I) or none (→ V).  Returns the outcomes' transition matrix and
    their misses."""
    stay, leave = invalidate_chain(rate, read_ratio, bound)
    quiet = 1.0 - p_read(rate, read_ratio, bound)
    starts = {
        "I": np.array([quiet, stay - quiet, 1.0 - stay, 0.0, 0.0]),
        "V": np.array([0.0, 0.0, 0.0, leave, 1.0 - leave]),
    }
    ends_in = ["I", "I", "V", "I", "V"]
    matrix = np.array([starts[state] for state in ends_in])
    return matrix, np.array([0.0, 1.0, 1.0, 0.0, 0.0])


def miss_count_law(rate: float, read_ratio: float, bound: float, intervals: int):
    """Mean and a tolerance for the misses over ``intervals`` intervals, by
    the Markov chain central limit theorem on the outcome chain: variance
    ``n (2 <g, Z g>_π - <g, g>_π)`` for the centred misses ``g`` and the
    fundamental matrix ``Z = (I - P + 1 π)^{-1}`` (Kemeny and Snell), four
    standard deviations of it, and the largest gap a start in I rather than
    in the stationary law leaves: ``P_R / (1 - |λ₂|)``, ``λ₂ = P(I→I) - P(V→I)``
    the chain's second eigenvalue."""
    mean, variance = interval_miss_law(rate, read_ratio, bound)
    stay, leave = invalidate_chain(rate, read_ratio, bound)
    start_gap = p_read(rate, read_ratio, bound) / (1.0 - abs(stay - leave))
    return intervals * mean, 4.0 * math.sqrt(intervals * variance) + start_gap


def interval_miss_law(rate: float, read_ratio: float, bound: float):
    """The stationary misses per interval of the outcome chain and their
    asymptotic variance per interval (:func:`miss_count_law`)."""
    matrix, misses = interval_outcomes(rate, read_ratio, bound)
    values, vectors = np.linalg.eig(matrix.T)
    stationary = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    stationary /= stationary.sum()
    mean = float(stationary @ misses)
    centred = misses - mean
    fundamental = np.linalg.inv(np.eye(5) - matrix + np.outer(np.ones(5), stationary))
    variance = 2.0 * stationary @ (centred * (fundamental @ centred)) - stationary @ centred**2
    return mean, float(variance)


def brute_force_invalidate(times, is_read, bound: float):
    """``(stale misses, invalidates sent)`` by walking the requests, flushing
    at ``bound``, ``2 bound`` ... as the replay driver adds them: a write
    dirties the key, a flush invalidates a dirty key unless it is already
    invalidated, and a miss re-fetches and forgets the writes before it."""
    valid = invalidated = dirty = fetched = False
    stale = sent = 0
    flush = bound

    def flush_due() -> None:
        nonlocal valid, invalidated, dirty, sent
        if dirty and not invalidated:
            sent += 1
            valid, invalidated = False, True
        dirty = False

    for time, read in zip(times, is_read):
        while flush <= time:
            flush_due()
            flush += bound
        if not read:
            dirty = True
        elif not valid:
            stale += fetched
            valid = fetched = True
            invalidated = dirty = False
    while flush <= HORIZON:
        flush_due()
        flush += bound
    return stale, sent


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("rate, read_ratio, bound", CHAIN_CELLS)
def test_invalidate_misses_follow_the_ordered_chain(
    rate: float, read_ratio: float, bound: float, engine: str
) -> None:
    trace = one_key_trace(rate, read_ratio=read_ratio)
    result = replay(trace, bound, engine, policy="invalidate")
    intervals = round(HORIZON / bound)
    expected, tolerance = miss_count_law(rate, read_ratio, bound, intervals)
    assert expected == pytest.approx(invalidate_miss_rate(rate, read_ratio, bound) * HORIZON)
    assert result.cold_misses == 1
    assert abs(result.stale_misses + 1 - expected) <= tolerance
    # Each fill is invalidated once before the next miss: the invalidates
    # sent count the misses, give or take the first or the last.
    assert abs(result.invalidates_sent - (result.stale_misses + 1)) <= 1


@pytest.mark.parametrize("rate, read_ratio, bound", CHAIN_CELLS)
def test_a_brute_force_invalidate_walk_equals_both_engines(
    rate: float, read_ratio: float, bound: float
) -> None:
    trace = one_key_trace(rate, seed=1, read_ratio=read_ratio)
    walked = brute_force_invalidate(trace.times.tolist(), trace.is_read.tolist(), bound)
    for engine in ("scalar", "vector"):
        result = replay(trace, bound, engine, policy="invalidate")
        assert (result.stale_misses, result.invalidates_sent) == walked


def test_the_paper_recurrence_drops_the_reads_a_write_follows() -> None:
    """At ``λ = 5, r = 0.5, T = 1`` the paper's ``p P_R`` is 39 % below the
    chain's ``π_I P_R``; with no writes after any read (reads only) the two
    agree at zero."""
    from repro.model.analytical import steady_state_invalidated_probability

    rate, read_ratio, bound = 5.0, 0.5, 1.0
    reads, writes = p_read(rate, read_ratio, bound), p_write(rate, read_ratio, bound)
    paper = steady_state_invalidated_probability(reads, writes) * reads / bound
    exact = invalidate_miss_rate(rate, read_ratio, bound)
    assert 1.0 - paper / exact == pytest.approx(0.388, abs=1e-3)
    assert invalidate_miss_rate(rate, 1.0, bound) == 0.0


# --------------------------------------------------------------------- #
# Summed over Zipf: the per-key forms at PoissonZipfWorkload's rates
# --------------------------------------------------------------------- #

#: A small PoissonZipf trace whose coldest key still reads about once a
#: second, so every key's count is many cycles long.
ZIPF = dict(num_keys=30, rate_per_key=10.0, read_ratio=0.8)
ZIPF_HORIZON = 60.0


def ttl_expiry_law(rate: float, read_ratio: float, ttl: float):
    """One key's TTL-expiry miss count over the horizon, first miss
    included: its mean and variance.  The first miss is the first read, an
    ``Exp(λ_r)`` wait, so the misses are a renewal process whose first cycle
    is ``T`` short: ``N(H + T)`` of the ordinary one, whose mean is ``(H +
    T)/μ + (σ²/μ² - 1)/2`` (the renewal function's second-order term) and
    whose variance is ``H σ²/μ³`` (renewal CLT)."""
    miss_rate = ttl_expiry_miss_rate(rate, read_ratio, ttl)
    mu, sigma2 = 1.0 / miss_rate, 1.0 / (rate * read_ratio) ** 2
    start = ttl * miss_rate + (sigma2 / mu**2 - 1.0) / 2.0
    return ZIPF_HORIZON * miss_rate + start, ZIPF_HORIZON * sigma2 / mu**3


def invalidate_law(rate: float, read_ratio: float, bound: float):
    """One key's invalidate miss count over the horizon's intervals, first
    miss included: its mean and variance.  An empty cache misses the first
    read as an invalidated entry does, so the chain starts in I: the mean
    is the stationary ``π_I P_R`` per interval plus the exact excess of that
    start, summed interval by interval over the outcome chain; the variance
    is the Markov chain CLT's."""
    intervals = round(ZIPF_HORIZON / bound)
    miss_rate = invalidate_miss_rate(rate, read_ratio, bound)
    per_interval, variance = interval_miss_law(rate, read_ratio, bound)
    assert per_interval == pytest.approx(miss_rate * bound)
    matrix, misses = interval_outcomes(rate, read_ratio, bound)
    outcomes, start = matrix[0], 0.0  # after an outcome that ends in I
    for _ in range(intervals):
        start += outcomes @ misses - per_interval
        outcomes = outcomes @ matrix
    return ZIPF_HORIZON * miss_rate + start, intervals * variance


@pytest.mark.parametrize("bound", [0.1, 1.0])
@pytest.mark.parametrize(
    "policy, law", [("ttl-expiry", ttl_expiry_law), ("invalidate", invalidate_law)]
)
def test_summed_exact_forms_reproduce_a_zipf_trace(policy: str, law, bound: float) -> None:
    """Each key of a PoissonZipf trace is its own Poisson process, at the
    rate :meth:`~PoissonZipfWorkload.key_profiles` gives it, and under
    either policy keys never interact: the trace's misses, cold and stale,
    lie within four standard deviations of the per-key exact forms summed,
    the variance the per-key CLT variances summed.  Both engines count the
    same misses."""
    workload = PoissonZipfWorkload(seed=11, **ZIPF)
    trace = compile_workload(workload, ZIPF_HORIZON)
    laws = [law(key.rate, key.read_ratio, bound) for key in workload.key_profiles()]
    expected = sum(mean for mean, _ in laws)
    tolerance = 4.0 * math.sqrt(sum(variance for _, variance in laws))
    config = dict(staleness_bound=bound, duration=ZIPF_HORIZON, workload_name="poisson")
    vector = VectorSimulation(trace, policy=make_policy(policy), **config).run()
    scalar = Simulation(trace.iter_requests(), policy=make_policy(policy), **config).run()
    misses = [(run.cold_misses, run.stale_misses) for run in (vector, scalar)]
    assert misses[0] == misses[1]
    cold, stale = misses[0]
    assert cold == ZIPF["num_keys"]
    assert abs(cold + stale - expected) <= tolerance
