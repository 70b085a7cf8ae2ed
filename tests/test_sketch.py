"""Sketch accuracy: count-min error bound and top-k recall on Zipf streams.

These pin the accuracy contract the cluster's hot-key detector relies on:
count-min never under-counts and over-counts by at most ~e*N/width with high
probability, and the top-k sketch keeps the head of a Zipfian stream exact.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sketch import (
    CountMinEWSketch,
    CountMinSketch,
    ExactEWTracker,
    TopKEWSketch,
    estimator_memory_bytes,
)
from repro.sketch.memory import storage_saving
from repro.workload.zipf import ZipfSampler


def zipf_stream(num_keys: int = 400, count: int = 30_000, seed: int = 5):
    sampler = ZipfSampler(num_keys=num_keys, exponent=1.3, seed=seed)
    return [f"key-{rank:06d}" for rank in sampler.sample(count)]


# --------------------------------------------------------------------- #
# Count-min
# --------------------------------------------------------------------- #
def test_count_min_never_undercounts_and_respects_the_error_bound() -> None:
    width, depth = 512, 4
    sketch = CountMinSketch(width=width, depth=depth, seed=1)
    stream = zipf_stream()
    truth = Counter(stream)
    for key in stream:
        sketch.add(key)

    assert sketch.total == len(stream)
    bound = math.e * len(stream) / width  # the classic eps*N guarantee
    over_bound = 0
    for key, exact in truth.items():
        estimate = sketch.query(key)
        assert estimate >= exact, "count-min must never under-count"
        if estimate - exact > bound:
            over_bound += 1
    # Per-key failure probability is ~exp(-depth); with depth 4 over a few
    # hundred keys essentially none should exceed the bound.
    assert over_bound <= max(1, len(truth) // 100)


def test_count_min_unseen_keys_stay_near_zero() -> None:
    sketch = CountMinSketch(width=1024, depth=4, seed=2)
    for key in zipf_stream(count=5000):
        sketch.add(key)
    bound = math.e * sketch.total / sketch.width
    assert sketch.query("never-seen-key") <= bound


def test_count_min_halve_decays_counts() -> None:
    sketch = CountMinSketch(width=64, depth=4, seed=0)
    for _ in range(100):
        sketch.add("hot")
    before = sketch.query("hot")
    sketch.halve()
    assert sketch.query("hot") == before // 2
    assert sketch.total == 50


def test_count_min_validation() -> None:
    with pytest.raises(ConfigurationError):
        CountMinSketch(width=0)
    sketch = CountMinSketch()
    with pytest.raises(ConfigurationError):
        sketch.add("key", count=-1)


# --------------------------------------------------------------------- #
# E[W] estimates: sketch vs exact on a read/write stream
# --------------------------------------------------------------------- #
def read_write_stream(num_keys: int = 200, count: int = 20_000, seed: int = 9):
    sampler = ZipfSampler(num_keys=num_keys, exponent=1.3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    ranks = sampler.sample(count)
    is_read = rng.random(count) < 0.8
    return [(f"key-{rank:06d}", bool(read)) for rank, read in zip(ranks, is_read)]


def feed(estimator, stream) -> None:
    for key, is_read in stream:
        if is_read:
            estimator.observe_read(key)
        else:
            estimator.observe_write(key)


@pytest.mark.parametrize("count_zero_runs", [False, True])
def test_exact_tracker_observers_fold_like_the_three_counter_rule(count_zero_runs) -> None:
    """The observers probe the counter table inline; the reference walks the
    paper's rule through ``_counters_for``.  Counters and their first-seen
    order (what ``state()`` and snapshots carry) must agree."""
    stream = read_write_stream(count=4_000)
    exact = ExactEWTracker(count_zero_runs=count_zero_runs)
    reference = ExactEWTracker(count_zero_runs=count_zero_runs)
    feed(exact, stream)
    for key, is_read in stream:
        counters = reference._counters_for(key)
        if not is_read:
            counters.writes_since_read += 1
        elif counters.writes_since_read > 0 or count_zero_runs:
            counters.sample_sum += counters.writes_since_read
            counters.sample_count += 1
            counters.writes_since_read = 0
    assert exact.state() == reference.state()


def test_count_min_ew_tracks_exact_on_hot_keys() -> None:
    stream = read_write_stream()
    # With zero-length runs counted, the exact tracker computes the same
    # writes/reads ratio the sketch approximates — the right ground truth.
    exact = ExactEWTracker(count_zero_runs=True)
    approx = CountMinEWSketch(width=1024, depth=4, seed=3)
    feed(exact, stream)
    feed(approx, stream)
    counts = Counter(key for key, _ in stream)
    hot = [key for key, _ in counts.most_common(20)]
    for key in hot:
        assert approx.estimate(key) == pytest.approx(exact.estimate(key), abs=0.15)


def test_top_k_recall_of_the_zipf_head() -> None:
    stream = read_write_stream()
    sketch = TopKEWSketch(k=32, width=512, depth=4, seed=4)
    feed(sketch, stream)
    counts = Counter(key for key, _ in stream)
    head = [key for key, _ in counts.most_common(10)]
    recalled = sum(1 for key in head if sketch.is_hot(key))
    assert recalled >= 8, f"top-k caught only {recalled}/10 of the head"


def test_top_k_hot_keys_match_exact_estimates() -> None:
    stream = read_write_stream()
    exact = ExactEWTracker(count_zero_runs=True)  # writes/reads ground truth
    topk = TopKEWSketch(k=64, width=512, depth=4, seed=4)
    feed(exact, stream)
    feed(topk, stream)
    counts = Counter(key for key, _ in stream)
    for key, _ in counts.most_common(5):
        if topk.is_hot(key):
            # Hot keys use exact counters; small drift is possible only from
            # observations made before promotion.
            assert topk.estimate(key) == pytest.approx(exact.estimate(key), abs=0.1)


def test_sketches_save_storage_over_exact_tracking() -> None:
    stream = read_write_stream(num_keys=2000, count=40_000)
    exact = ExactEWTracker()
    count_min = CountMinEWSketch(width=256, depth=4, seed=5)
    feed(exact, stream)
    feed(count_min, stream)
    assert estimator_memory_bytes(count_min) < estimator_memory_bytes(exact)
    assert storage_saving(exact, count_min) > 1.0
