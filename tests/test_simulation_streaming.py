"""The simulator consumes streams without copying and validates ordering."""

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.optimal import OptimalPolicy
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.errors import WorkloadError
from repro.sim.simulation import Simulation
from repro.workload.base import OpType, Request
from repro.workload.poisson import PoissonZipfWorkload

POLICY_FACTORIES = [
    TTLExpiryPolicy,
    TTLPollingPolicy,
    AlwaysInvalidatePolicy,
    AlwaysUpdatePolicy,
    AdaptivePolicy,
]

WORKLOAD = PoissonZipfWorkload(num_keys=30, rate_per_key=10.0, read_ratio=0.8, seed=5)
DURATION = 4.0


@pytest.mark.parametrize("factory", POLICY_FACTORIES, ids=lambda f: f.__name__)
def test_pure_generator_matches_materialized_replay(factory) -> None:
    materialized = WORKLOAD.generate(DURATION)

    def stream():
        # A pure generator: the simulator gets no len(), no indexing, and no
        # second pass — if it tried to copy or re-iterate, this would differ.
        yield from WORKLOAD.iter_requests(DURATION)

    streaming_sim = Simulation(workload=stream(), policy=factory(), staleness_bound=0.5)
    assert streaming_sim.requests is None, "non-clairvoyant run must not materialize"
    streaming = streaming_sim.run()
    reference = Simulation(
        workload=materialized, policy=factory(), staleness_bound=0.5
    ).run()
    assert streaming.as_dict() == reference.as_dict()


def test_streaming_duration_defaults_to_last_request_time() -> None:
    result = Simulation(
        workload=WORKLOAD.iter_requests(DURATION),
        policy=AlwaysInvalidatePolicy(),
        staleness_bound=0.5,
    ).run()
    last_time = WORKLOAD.generate(DURATION)[-1].time
    assert result.duration == pytest.approx(last_time)


def test_clairvoyant_policy_materializes_the_stream() -> None:
    simulation = Simulation(
        workload=WORKLOAD.iter_requests(DURATION),
        policy=OptimalPolicy(),
        staleness_bound=0.5,
    )
    assert simulation.requests is not None
    result = simulation.run()
    assert result.total_requests == len(simulation.requests)


def test_out_of_order_stream_raises_workload_error() -> None:
    stream = [
        Request(time=1.0, key="a", op=OpType.READ),
        Request(time=0.25, key="b", op=OpType.READ),
    ]
    simulation = Simulation(
        workload=iter(stream), policy=AlwaysUpdatePolicy(), staleness_bound=1.0
    )
    with pytest.raises(WorkloadError, match="not sorted"):
        simulation.run()

