"""Che's approximation (``repro.model.capacity``) as the oracle for eviction.

The engines' bounded caches are pinned against a brute-force LRU and
against each other; neither says the eviction is *right*.  Che's
characteristic-time approximation predicts an LRU cache's hit ratio from
the key popularity alone, so a read-only replay through a bounded cache has
to land on it, within the sampling noise of its run length.
"""

import doctest
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import make_policy
from repro.model import capacity
from repro.model.capacity import (
    che_characteristic_time,
    che_hit_ratio,
    che_per_content_hit_ratio,
)
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.zipf import ZipfSampler


def test_the_module_examples_hold() -> None:
    assert doctest.testmod(capacity).failed == 0


@pytest.mark.parametrize("cache_size", [1, 10, 100, 999])
def test_the_characteristic_time_is_the_root_to_adjacent_floats(cache_size) -> None:
    p = ZipfSampler(num_keys=1000, exponent=1.3, seed=0).probabilities
    p /= p.sum()  # the weights as the solver normalises them
    t = che_characteristic_time(p, cache_size)

    def filled(time):
        return -np.expm1(-p * time).sum()

    assert filled(t) >= cache_size > filled(np.nextafter(t, 0.0))


def test_uniform_popularity_has_the_closed_form() -> None:
    # N equally popular items: N (1 - exp(-t / N)) = C, so every item hits
    # with probability C / N.
    items, cache_size = 50, 20
    t = che_characteristic_time(np.ones(items), cache_size)
    assert t == pytest.approx(-items * math.log(1 - cache_size / items), rel=1e-12)
    assert che_per_content_hit_ratio(np.ones(items), cache_size) == pytest.approx(
        np.full(items, cache_size / items), rel=1e-12
    )


def test_the_hit_ratio_grows_with_the_cache_and_favours_popular_items() -> None:
    p = ZipfSampler(num_keys=300, exponent=0.8, seed=0).probabilities
    ratios = [che_hit_ratio(p, size) for size in (1, 10, 100, 299)]
    assert 0 < ratios[0] < ratios[1] < ratios[2] < ratios[3] < 1
    per_item = che_per_content_hit_ratio(p, 10)
    assert (np.diff(per_item) <= 0).all()
    # A cache that holds every item that is ever requested never evicts.
    assert che_characteristic_time([3, 0, 1], 2) == math.inf
    assert che_hit_ratio([3, 0, 1], 2) == 1.0


@pytest.mark.parametrize(
    "popularity, cache_size",
    [([], 1), ([1, -1], 1), ([0, 0], 1), ([1, math.nan], 1), ([1, 2], 0)],
)
def test_bad_inputs_are_refused(popularity, cache_size) -> None:
    with pytest.raises(ConfigurationError):
        che_hit_ratio(popularity, cache_size)


@pytest.mark.parametrize("engine", [Simulation, VectorSimulation])
def test_a_bounded_lru_cache_hits_as_che_predicts(engine) -> None:
    """Read-only Poisson-Zipf (1 000 keys, s = 1.3) through 100 slots: no
    write ever invalidates, so every miss is a cold or capacity miss and the
    hit ratio is the LRU cache's.  The tolerance is six binomial standard
    errors of the run's read count (the approximation itself is within a
    few tenths of that here)."""
    workload = PoissonZipfWorkload(num_keys=1000, rate_per_key=100.0, read_ratio=1.0, seed=4)
    duration = 1.0
    trace = compile_workload(workload, duration)
    result = engine(
        trace,
        policy=make_policy("invalidate"),
        staleness_bound=1.0,
        duration=duration,
        cache_capacity=100,
    ).run()
    expected = che_hit_ratio([profile.rate for profile in workload.key_profiles()], 100)
    assert result.reads == len(trace) > 90_000
    tolerance = 6 * math.sqrt(expected * (1 - expected) / result.reads)
    assert abs(result.hit_ratio - expected) <= tolerance, (result.hit_ratio, expected)
