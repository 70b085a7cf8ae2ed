"""Closed-form oracles for the latency pipeline.

The latency numbers flow sample → HDR bucket → percentile, and each stage
has an exact contract:

* **Deterministic service** — hand-built traces make every read's latency a
  closed-form value (the service mean, or ``i * mean`` under a capacity-1
  queue), so the engine's percentiles must equal a reference histogram fed
  the same closed-form samples — *exactly*, not approximately.
* **Exponential service** — the sampler is pseudo-random, so the pins are
  distributional: the sample mean must sit within a tolerance of the
  configured mean, and the quantiles must bracket their analytic values
  (median ``mean·ln2``, p99 ``mean·ln100``).
* **Histogram merges** — bucket addition must be associative, commutative,
  and identical to observing every sample in one histogram, which is what
  makes a fleet's percentiles, folded from its nodes' buckets, exact.
"""

import math
import random

import pytest

from repro.concurrency.config import ConcurrencyConfig
from repro.experiments.registry import make_policy
from repro.obs.metrics import Histogram, bucket_index, bucket_upper_bound
from repro.sim.simulation import Simulation
from repro.workload.base import OpType, Request


def cold_reads(count: int, spacing: float) -> "list[Request]":
    """A trace of distinct-key reads: every one is a cold miss."""
    return [
        Request(time=index * spacing, key=f"cold-{index}", op=OpType.READ)
        for index in range(count)
    ]


def run_trace(requests: "list[Request]", config: ConcurrencyConfig) -> Simulation:
    duration = requests[-1].time + 1.0
    simulation = Simulation(
        workload=iter(requests),
        policy=make_policy("invalidate"),
        staleness_bound=1.0,
        duration=duration,
        workload_name="oracle",
        concurrency=config,
    )
    simulation.run()
    return simulation


def reference_percentiles(samples: "list[float]") -> "dict[str, float]":
    histogram = Histogram("reference")
    for sample in samples:
        histogram.observe(sample)
    return {
        "p50": histogram.percentile(0.50),
        "p99": histogram.percentile(0.99),
        "p999": histogram.percentile(0.999),
    }


# --------------------------------------------------------------------- #
# Deterministic service: exact closed forms
# --------------------------------------------------------------------- #

def test_uncontended_deterministic_latency_is_exactly_the_mean() -> None:
    mean = 0.05
    count = 10
    config = ConcurrencyConfig(service_time="deterministic", mean=mean, capacity=4)
    simulation = run_trace(cold_reads(count, spacing=1.0), config)
    result = simulation.result
    # Every read is a cold miss served without queueing: latency == mean.
    assert result.latency_count == count
    assert result.latency_sum == pytest.approx(mean * count)
    expected = bucket_upper_bound(bucket_index(mean))
    for quantile in (0.5, 0.99, 0.999):
        assert result.read_latency_percentile(quantile) == expected


def test_capacity_one_queue_latencies_are_multiples_of_the_mean() -> None:
    mean = 0.1
    herd = 8
    # The whole herd misses at t=0 on distinct keys with one fetch slot:
    # the i-th fetch (1-based) completes at i * mean, FIFO.
    requests = [
        Request(time=0.0, key=f"herd-{index}", op=OpType.READ) for index in range(herd)
    ]
    config = ConcurrencyConfig(service_time="deterministic", mean=mean, capacity=1)
    simulation = run_trace(requests, config)
    result = simulation.result
    closed_form = [index * mean for index in range(1, herd + 1)]
    assert result.latency_count == herd
    assert result.latency_sum == pytest.approx(sum(closed_form))
    expected = reference_percentiles(closed_form)
    assert result.read_latency_percentile(0.50) == expected["p50"]
    assert result.read_latency_percentile(0.99) == expected["p99"]
    assert result.read_latency_percentile(0.999) == expected["p999"]


def test_hits_observe_zero_and_pull_the_median_down() -> None:
    mean = 0.05
    config = ConcurrencyConfig(service_time="deterministic", mean=mean, capacity=4)
    # One cold miss, then nine hits on the same key within the bound.
    requests = [Request(time=0.0, key="hot", op=OpType.READ)] + [
        Request(time=0.2 + index * 0.01, key="hot", op=OpType.READ)
        for index in range(9)
    ]
    simulation = run_trace(requests, config)
    result = simulation.result
    assert result.latency_count == 10
    assert result.latency_sum == pytest.approx(mean)  # one miss, nine zeros
    assert result.read_latency_percentile(0.50) == 0.0
    assert result.read_latency_percentile(0.999) == bucket_upper_bound(
        bucket_index(mean)
    )


# --------------------------------------------------------------------- #
# Exponential service: distributional tolerances
# --------------------------------------------------------------------- #

def test_exponential_latencies_match_the_distribution_within_tolerance() -> None:
    mean = 0.05
    count = 4000
    config = ConcurrencyConfig(
        service_time="exponential", mean=mean, capacity=8, seed=12345
    )
    simulation = run_trace(cold_reads(count, spacing=1.0), config)
    result = simulation.result
    assert result.latency_count == count
    # Law of large numbers on the exact per-sample sum: 10% tolerance is
    # ~7 standard errors at n=4000, loose enough to never flake for a
    # fixed seed, tight enough to catch a mis-parameterised sampler.
    assert result.latency_sum / count == pytest.approx(mean, rel=0.10)
    # Quantiles: the bucket estimate is conservative within ~12.5%, so the
    # analytic values (median = mean ln2, p99 = mean ln100) get a band
    # covering quantization + sampling error.
    median = result.read_latency_percentile(0.50)
    assert mean * math.log(2) * 0.7 <= median <= mean * math.log(2) * 1.5
    p99 = result.read_latency_percentile(0.99)
    assert mean * math.log(100) * 0.7 <= p99 <= mean * math.log(100) * 1.5


def test_exponential_is_seed_reproducible() -> None:
    config = ConcurrencyConfig(service_time="exponential", mean=0.05, seed=777)
    first = run_trace(cold_reads(200, spacing=1.0), config).result
    second = run_trace(cold_reads(200, spacing=1.0), config).result
    assert first.latency_buckets == second.latency_buckets
    assert first.latency_sum == second.latency_sum


# --------------------------------------------------------------------- #
# Histogram merge algebra
# --------------------------------------------------------------------- #

def random_shard_histograms(seed: int, shards: int = 5) -> "list[Histogram]":
    rng = random.Random(seed)
    histograms = []
    for shard in range(shards):
        histogram = Histogram(f"shard-{shard}")
        for _ in range(rng.randint(50, 300)):
            histogram.observe(rng.expovariate(1.0 / rng.choice((0.01, 0.05, 0.5))))
        histograms.append(histogram)
    return histograms


def merged(histograms: "list[Histogram]") -> Histogram:
    total = Histogram("merged")
    for histogram in histograms:
        total.merge(histogram)
    return total


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_merge_is_commutative_and_associative(seed: int) -> None:
    shards = random_shard_histograms(seed)
    forward = merged(shards)
    backward = merged(list(reversed(shards)))
    # Associativity: fold the shards pairwise in a different grouping.
    left = merged(shards[:2])
    right = merged(shards[2:])
    grouped = merged([left, right])
    assert forward.as_dict() == backward.as_dict() == grouped.as_dict()
    for quantile in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
        assert forward.percentile(quantile) == backward.percentile(quantile)
        assert forward.percentile(quantile) == grouped.percentile(quantile)


def test_histogram_merge_equals_single_process_observation() -> None:
    rng = random.Random(99)
    samples = [rng.expovariate(20.0) for _ in range(1000)]
    single = Histogram("single")
    for sample in samples:
        single.observe(sample)
    shards = [Histogram(f"s{index}") for index in range(4)]
    for position, sample in enumerate(samples):
        shards[position % 4].observe(sample)
    combined = merged(shards)
    assert combined.counts == single.counts
    assert combined.count == single.count
    assert combined.sum == pytest.approx(single.sum)
    for quantile in (0.5, 0.99, 0.999):
        assert combined.percentile(quantile) == single.percentile(quantile)


def test_percentile_is_monotone_in_the_quantile() -> None:
    histogram = merged(random_shard_histograms(7))
    quantiles = [index / 100 for index in range(101)]
    values = [histogram.percentile(quantile) for quantile in quantiles]
    assert values == sorted(values)
