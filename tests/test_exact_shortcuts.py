"""Exact shortcuts under the kernels, each against the naive code it replaced.

* The Zipf sampler's guide table against a binary search of a CDF the test
  builds itself, on seeded draws and on every uniform where a table could
  be off: bucket edges, CDF entries and their float neighbours.
* The closed-form constant-cost fold against ``n`` in-order additions.
* Constant size columns of a compiled trace against the materialised
  columns they stand for.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np
import pytest

from repro.experiments.registry import COST_PRESETS, make_policy
from repro.sim import vector as sim_vector
from repro.sim.vector import VectorSimulation, _fold_constant
from repro.workload.compiled import CompiledTrace, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload
from repro.workload.zipf import ZipfSampler, _guide_table

# --------------------------------------------------------------------- #
# Zipf draws: guide table vs the whole-CDF search
# --------------------------------------------------------------------- #

KEY_COUNTS = (1, 2, 3, 100, 300, 1_000, 100_000)
EXPONENTS = (0.01, 0.99, 1.3, 3.0)


def reference_cdf(num_keys: int, exponent: float) -> np.ndarray:
    """The CDF the sampler searched before it had a guide table."""
    weights = np.arange(1, num_keys + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights / weights.sum())


def reference_ranks(num_keys: int, exponent: float, uniform: np.ndarray) -> np.ndarray:
    """``searchsorted`` of the plain cumulative sum.  Where that sum ends
    short of 1.0 a uniform above it found rank ``num_keys``, a key that does
    not exist; the sampler now gives those the last rank, and every other
    draw its old one."""
    ranks = np.searchsorted(reference_cdf(num_keys, exponent), uniform, side="left")
    return np.minimum(ranks, num_keys - 1)


class FixedUniforms:
    """A generator stub that hands out the given uniforms."""

    def __init__(self, uniform) -> None:
        self.uniform = np.asarray(uniform, dtype=np.float64)

    def random(self, count: int | None = None, *, out: np.ndarray | None = None) -> np.ndarray:
        """``Generator.random``'s two forms: ``count`` floats, or as many
        as ``out`` holds, written into it."""
        if out is None:
            assert count == self.uniform.size
            return self.uniform.copy()
        assert count is None and out.size == self.uniform.size
        out[...] = self.uniform
        return out


def with_neighbours(points: np.ndarray) -> np.ndarray:
    """``points`` and the floats on either side, kept inside ``[0, 1)``."""
    around = np.concatenate(
        [np.nextafter(points, -1.0), points, np.nextafter(points, 2.0), [0.0, 1.0 - 2.0**-53]]
    )
    return np.unique(around[(around >= 0.0) & (around < 1.0)])


def reference_guide(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Per bucket: the rank at its first float when its last float draws the
    same rank, else -1."""
    edges = np.arange(buckets + 1, dtype=np.float64) / buckets
    first = np.searchsorted(cdf, edges[:-1], side="left")
    last = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0), side="left")
    return np.where(first == last, first, -1)


def adversarial_uniforms(sampler: ZipfSampler, exponent: float) -> np.ndarray:
    buckets = sampler._guide.size
    edges = np.arange(buckets + 1, dtype=np.float64) / buckets
    return with_neighbours(np.concatenate([edges, reference_cdf(sampler.num_keys, exponent)]))


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("num_keys", KEY_COUNTS)
def test_guide_table_draws_what_the_cdf_search_draws(num_keys: int, exponent: float) -> None:
    sampler = ZipfSampler(num_keys=num_keys, exponent=exponent, seed=1)
    buckets = sampler._guide.size
    assert buckets & (buckets - 1) == 0 and buckets <= 1 << 16
    np.testing.assert_array_equal(sampler._guide, reference_guide(sampler._cdf, buckets))
    seeded = np.random.default_rng(num_keys).random(20_000)
    ranks = sampler.sample_using(np.random.default_rng(num_keys), seeded.size)
    assert ranks.dtype == np.int64
    np.testing.assert_array_equal(ranks, reference_ranks(num_keys, exponent, seeded))
    hostile = adversarial_uniforms(sampler, exponent)
    np.testing.assert_array_equal(
        sampler.sample_using(FixedUniforms(hostile), hostile.size),
        reference_ranks(num_keys, exponent, hostile),
    )


def test_guide_table_of_cdfs_with_entries_on_bucket_edges() -> None:
    """Hand-built CDFs put entries where a guide table could be off: on a
    bucket's first float, on its last, twice in a row, at 0.0."""
    rng = np.random.default_rng(11)
    for case in range(300):
        buckets = 1 << int(rng.integers(0, 7))
        edges = np.arange(buckets + 1, dtype=np.float64) / buckets
        candidates = np.concatenate(
            [edges, np.nextafter(edges[1:], 0.0), rng.random(8), [0.0]]
        )
        cdf = np.sort(rng.choice(candidates, size=int(rng.integers(1, 12))))
        cdf = np.append(cdf[cdf < 1.0], 1.0)
        sampler = ZipfSampler(num_keys=cdf.size, exponent=1.0)
        sampler._cdf, sampler._guide = cdf, _guide_table(cdf, buckets)
        sampler._buckets = float(buckets)
        np.testing.assert_array_equal(sampler._guide, reference_guide(cdf, buckets))
        hostile = with_neighbours(np.concatenate([edges, cdf]))
        np.testing.assert_array_equal(
            sampler.sample_using(FixedUniforms(hostile), hostile.size),
            np.searchsorted(cdf, hostile, side="left"),
            err_msg=f"case {case}: {buckets} buckets, cdf {cdf.tolist()}",
        )


@pytest.mark.parametrize("num_keys", (100, 1_000_000))
def test_the_largest_uniform_draws_the_last_key(num_keys: int) -> None:
    """``1 - 2**-53`` once drew rank ``num_keys``: an id outside the name table."""
    sampler = ZipfSampler(num_keys=num_keys, exponent=1.3)
    assert sampler.sample_using(FixedUniforms([1.0 - 2.0**-53]), 1).tolist() == [num_keys - 1]


def test_sampler_counts_the_draws_it_searched() -> None:
    """``searched`` counts the uniforms whose bucket holds a CDF step: the
    rank at the bucket's first float differs from the rank at its last."""
    num_keys, exponent = 1_000, 1.3
    sampler = ZipfSampler(num_keys=num_keys, exponent=exponent)
    uniform = np.random.default_rng(3).random(50_000)
    sampler.sample_using(np.random.default_rng(3), uniform.size)
    buckets = sampler._guide.size
    low = np.floor(uniform * buckets) / buckets
    high = np.nextafter((np.floor(uniform * buckets) + 1) / buckets, 0.0)
    stepped = reference_ranks(num_keys, exponent, low) != reference_ranks(num_keys, exponent, high)
    assert sampler.draws == uniform.size
    assert sampler.searched == int(stepped.sum())
    assert 0 < sampler.searched < sampler.draws


# --------------------------------------------------------------------- #
# Constant-cost folds: closed form vs n in-order additions
# --------------------------------------------------------------------- #

CROSSOVER = sim_vector._FOLD_CLOSED_FORM_FROM


def plain_fold(acc: float, c: float, n: int) -> float:
    """The scalar engine's ``acc += c``, ``n`` times."""
    return reduce(add, repeat(c, n), acc)


def preset_constants():
    constants = set()
    for preset in COST_PRESETS.values():
        model = preset()
        constants.update((model.serve_cost(), model.miss_cost()))
    return sorted(constants)


def fold_cases(count: int, seed: int):
    """Seeded ``(acc, c, n)``: ties, addends too small to move the sum, sums
    just below a binade top, zero and subnormal sums, preset constants."""
    rng = random.Random(seed)
    presets = preset_constants()
    counts = (0, 1, 2, 3, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1)
    for _ in range(count):
        exponent = rng.randint(-30, 40)
        acc = rng.choice(
            [
                0.0,
                rng.random() * 2.0**exponent,
                float(rng.randint(0, 10**6)),
                math.nextafter(2.0**exponent, 0.0) - rng.randint(0, 50) * math.ulp(2.0**exponent),
                rng.randint(1, 1000) * 5e-324,
            ]
        )
        acc = max(acc, 0.0)
        ulp = math.ulp(acc) if acc else 5e-324
        c = rng.choice(
            [
                rng.choice(presets),
                rng.random() * 2.0 ** rng.randint(-40, 10),
                (rng.randint(0, 6) + 0.5) * ulp,  # an exact tie
                rng.random() * 0.5 * ulp,  # too small to move the sum
                rng.randint(1, 1 << 20) * ulp,  # whole ulps
            ]
        )
        n = rng.choice(counts) if rng.random() < 0.4 else rng.randint(0, 3 * CROSSOVER)
        yield acc, c, n


@pytest.mark.parametrize("closed_from", (CROSSOVER, 0), ids=("crossover", "closed-form-only"))
def test_fold_constant_equals_in_order_additions(monkeypatch, closed_from: int) -> None:
    """At the real crossover, and with the closed form taking every fold."""
    monkeypatch.setattr(sim_vector, "_FOLD_CLOSED_FORM_FROM", closed_from)
    for acc, c, n in fold_cases(12_000, seed=closed_from):
        expected = plain_fold(acc, c, n)
        assert _fold_constant(acc, c, n).hex() == expected.hex(), (acc, c, n)


def test_fold_constant_over_a_million_additions() -> None:
    constants = [c for c in preset_constants() if math.isfinite(c)] + [0.1, 0.3, 1e-9]
    for c in constants:
        for acc in (0.0, 12_345.678, 2.0**30 - 0.5):
            assert _fold_constant(acc, c, 10**6).hex() == plain_fold(acc, c, 10**6).hex()


def test_fold_constant_edges() -> None:
    huge = sys.float_info.max
    for acc, c, n in (
        (0.0, math.inf, 5_000),  # the latency preset's miss cost
        (1.0, 0.0, 5_000),  # a zero addend
        (-3.5, 0.25, 5_000),  # a negative sum
        (huge * 0.75, huge / 100, 5_000),  # overflows to inf on the way
        (2.0**53, 1.0, 5_000),  # every addition an exact tie
        (5e-324, 5e-324, 5_000),  # subnormal sums
    ):
        assert _fold_constant(acc, c, n).hex() == plain_fold(acc, c, n).hex(), (acc, c, n)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() compensates from Python 3.12")
def test_fold_constant_equals_sum_where_sum_is_a_plain_fold() -> None:
    for acc, c, n in fold_cases(2_000, seed=7):
        assert _fold_constant(acc, c, n).hex() == sum(repeat(c, n), acc).hex(), (acc, c, n)


# --------------------------------------------------------------------- #
# Constant size columns vs materialised ones
# --------------------------------------------------------------------- #

def materialised(trace: CompiledTrace) -> CompiledTrace:
    """The trace with every column its own array, as compiles used to make it."""
    return CompiledTrace(
        times=trace.times.copy(),
        key_ids=trace.key_ids.copy(),
        is_read=trace.is_read.copy(),
        key_sizes=np.ascontiguousarray(trace.key_sizes),
        value_sizes=np.ascontiguousarray(trace.value_sizes),
        key_names=list(trace.key_names),
    )


def rows_of(stream):
    return [(r.time, r.key, r.op, r.key_size, r.value_size) for r in stream]


def test_constant_size_columns_stay_one_constant() -> None:
    workload = PoissonZipfWorkload(num_keys=50, rate_per_key=200.0, key_size=24, seed=4)
    duration = 4.0  # 40 k requests: two drawn chunks and a trimmed third
    trace = compile_workload(workload, duration)
    plain = materialised(trace)
    for column, plain_column, size in (
        (trace.key_sizes, plain.key_sizes, 24),
        (trace.value_sizes, plain.value_sizes, 128),
    ):
        assert column.strides == (0,) and column.dtype == np.int64
        assert column.nbytes == plain_column.nbytes == 8 * len(trace)
        assert (plain_column == size).all()
    assert rows_of(trace.iter_requests()) == rows_of(workload.iter_requests(duration))
    clone = pickle.loads(pickle.dumps(trace))
    for column, clone_column in zip(
        (trace.times, trace.key_ids, trace.is_read, trace.key_sizes, trace.value_sizes),
        (clone.times, clone.key_ids, clone.is_read, clone.key_sizes, clone.value_sizes),
    ):
        np.testing.assert_array_equal(column, clone_column)
    assert rows_of(clone.iter_requests()) == rows_of(trace.iter_requests())

    def replay(compiled):
        result = VectorSimulation(
            compiled, policy=make_policy("adaptive"), staleness_bound=0.5, duration=duration
        ).run()
        return result.as_dict()

    assert replay(trace) == replay(plain)
    index, plain_index = trace.index(), plain.index()
    assert index.table_cap == plain_index.table_cap == 25 * len(trace)
    assert index.nbytes == plain_index.nbytes


def test_varying_size_columns_are_materialised() -> None:
    trace = compile_workload(TwitterWorkload(num_keys=80, total_rate=2000.0, seed=11), 10.0)
    assert trace.key_sizes.strides == (0,)
    assert trace.value_sizes.strides == (8,)
    assert np.unique(trace.value_sizes).size > 1
