"""Opt. is a bound: a one-key offline optimum, written without ``CacheNode``.

For one key of an unbounded single cache on an ideal channel, all a reactive
policy decides happens at the flushes ``T, 2T, ...`` (each run before a
request at its own instant) where the key is dirty, that is, written since
the last flush and not re-fetched since: send nothing, an update (``c_u``,
the entry becomes valid as of the flush) or an invalidate (``c_i``, the
entry becomes invalid; one to an invalid entry is suppressed).  A read of an
invalid entry is a stale miss (``c_m``); the first read is a cold miss,
outside C_F.  Either miss leaves the entry valid as of the read and the key
clean.  A hit on an entry valid as of ``a`` at ``t`` is served too stale
when a write falls in ``(a, t - T]``.

:func:`optimum` is a dynamic programme over those flushes: the least C_F of
any choice that serves no read too stale.  Restricted to one choice it is
the invalidate or the update policy's replay, to the last bit of C_F; the
reactive policies' choices are among the ones it weighs, and the TTL
policies pay more on these traces, so its C_F bounds all five kernel
policies' from below on both engines.  ``optimal`` ("Opt." in the paper's
Figure 5) should be that optimum; today it defers a dirty key whose next
write comes before its next read, and the read can fall before that write's
flush.  The two pins that say so are strict xfails until the ROADMAP's
*row-change PR* makes the defer rule flush-aware; every trace here has
such a read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Tuple

import pytest

from repro.core.cost_model import CostModel
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

KERNEL_POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]
REACTIVE_POLICIES = ["invalidate", "update", "adaptive"]
#: ``(rate_per_key, read_ratio, duration)``: about 300 requests a trace.
TRACES = [(5.0, 0.5, 60.0), (5.0, 0.8, 60.0), (20.0, 0.5, 15.0), (20.0, 0.8, 15.0)]
BOUNDS = [0.1, 1.0]
#: Flat costs as the engine charges them, and a dear update that makes an
#: invalidate and its miss the cheaper refresh.
COSTS = {"default": CostModel(), "dear-update": CostModel(update=1.5)}
SEED = 7

ABSENT, INVALID = ("absent",), ("invalid",)
CHOICES = ("nothing", "update", "invalidate")

#: ``(entry, dirty, invalidated)``: a valid entry is ``("valid", as_of)``;
#: ``invalidated`` is the tracker's mark (an invalidate sent, no re-fetch since).
State = Tuple[Tuple, bool, bool]


def one_key_trace(rate: float, read_ratio: float, duration: float):
    workload = PoissonZipfWorkload(
        num_keys=1, rate_per_key=rate, read_ratio=read_ratio, seed=SEED
    )
    return compile_workload(workload, duration)


def optimum(times: List[float], reads: List[bool], bound: float, duration: float,
            costs: CostModel, choices: Tuple[str, ...] = CHOICES) -> float:
    """The least C_F over every flush decision among ``choices`` that serves
    no read too stale (``inf`` when none does).  A message is charged as the
    engine charges it, also where it changes nothing (an update to an absent
    entry), so a single choice is a fixed policy's replay."""
    miss, invalidate, update = costs.miss_cost(), costs.invalidate_cost(), costs.update_cost()
    writes = [time for time, read in zip(times, reads) if not read]
    states: Dict[State, float] = {(ABSENT, False, False): 0.0}

    def keep(into: Dict[State, float], state: State, cost: float) -> None:
        if cost < into.get(state, math.inf):
            into[state] = cost

    def flush(at: float) -> Dict[State, float]:
        after: Dict[State, float] = {}
        for (entry, dirty, invalidated), cost in states.items():
            if not dirty:
                keep(after, (entry, False, invalidated), cost)
                continue
            if "nothing" in choices:
                keep(after, (entry, False, invalidated), cost)
            if "update" in choices:
                refreshed = entry if entry is ABSENT else ("valid", at)
                keep(after, (refreshed, False, False), cost + update)
            if "invalidate" in choices:
                if invalidated:  # suppressed: the tracker already sent one
                    keep(after, (entry, False, True), cost)
                else:
                    dropped = entry if entry is ABSENT else INVALID
                    keep(after, (dropped, False, True), cost + invalidate)
        return after

    def read(at: float) -> Dict[State, float]:
        after: Dict[State, float] = {}
        for (entry, dirty, invalidated), cost in states.items():
            if entry is ABSENT:  # a cold miss: outside C_F
                keep(after, (("valid", at), False, False), cost)
            elif entry is INVALID:
                keep(after, (("valid", at), False, False), cost + miss)
            else:
                horizon = at - bound
                as_of = entry[1]
                if horizon > as_of and bisect_right(writes, horizon) > bisect_right(writes, as_of):
                    continue  # served too stale: not a choice
                keep(after, (entry, dirty, invalidated), cost)
        return after

    # The driver's flush clock: ``T`` added once per interval, up to the end.
    end = max(duration, times[-1])
    next_flush = bound
    for time, is_read in zip(times, reads):
        while next_flush <= time:
            states = flush(next_flush)
            next_flush += bound
        if is_read:
            states = read(time)
        else:
            states = {(entry, True, mark): cost for (entry, _, mark), cost in states.items()}
    while next_flush <= end:
        states = flush(next_flush)
        next_flush += bound
    return min(states.values(), default=math.inf)


def run(engine: str, trace, policy: str, bound: float, duration: float, costs: CostModel):
    config = dict(
        policy=make_policy(policy), staleness_bound=bound, duration=duration, costs=costs
    )
    if engine == "scalar":
        simulation = Simulation(trace.iter_requests(), **config)
    else:
        simulation = VectorSimulation(trace, **config)
    return simulation.run()


@pytest.fixture(scope="module", params=TRACES, ids=lambda shape: f"rate{shape[0]:g}-r{shape[1]:g}")
def traced(request):
    rate, read_ratio, duration = request.param
    trace = one_key_trace(rate, read_ratio, duration)
    return trace, duration


def _optimum(traced, bound: float, costs: CostModel, choices=CHOICES) -> float:
    trace, duration = traced
    return optimum(
        trace.times.tolist(), trace.is_read.tolist(), bound, duration, costs, choices
    )


@pytest.mark.parametrize("costs", list(COSTS), ids=list(COSTS))
@pytest.mark.parametrize("bound", BOUNDS)
def test_the_optimum_is_below_every_kernel_policy_on_both_engines(traced, bound, costs) -> None:
    """Below the reactive policies by construction: their choices are among
    the programme's.  Below the TTL policies at the engine's default costs,
    where an update is cheaper than the miss an expired entry pays; with a
    dear update an expiry timer, an invalidate that costs nothing, can
    undercut every message the programme may send, so they are left out."""
    trace, duration = traced
    model = COSTS[costs]
    best = _optimum(traced, bound, model)
    assert 0.0 < best < math.inf
    policies = KERNEL_POLICIES if costs == "default" else REACTIVE_POLICIES
    for policy in policies:
        for engine in ("scalar", "vector"):
            result = run(engine, trace, policy, bound, duration, model)
            assert result.staleness_violations == 0, (policy, engine)
            assert best <= result.freshness_cost * (1 + 1e-12), (policy, engine)


@pytest.mark.parametrize("costs", list(COSTS), ids=list(COSTS))
@pytest.mark.parametrize("policy", ["invalidate", "update"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_one_choice_is_the_fixed_policys_replay(traced, bound, policy, costs) -> None:
    """The programme's model is the engine's: restricted to one choice it
    charges the invalidate or the update policy's C_F to the last bit, and
    finds that policy's replay within the bound."""
    trace, duration = traced
    model = COSTS[costs]
    fixed = _optimum(traced, bound, model, choices=(policy,))
    result = run("scalar", trace, policy, bound, duration, model)
    assert fixed == result.freshness_cost


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="optimal defers past a read that falls before the next write's flush; "
    "ROADMAP 'the row-change PR' makes the defer rule flush-aware",
)
@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_optimal_serves_no_read_beyond_the_bound(traced, bound, engine) -> None:
    trace, duration = traced
    result = run(engine, trace, "optimal", bound, duration, CostModel())
    assert result.staleness_violations == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="optimal's C_F undercuts the optimum by serving reads beyond the bound; "
    "ROADMAP 'the row-change PR' makes the defer rule flush-aware",
)
@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_optimal_costs_what_the_optimum_costs(traced, bound, engine) -> None:
    trace, duration = traced
    result = run(engine, trace, "optimal", bound, duration, CostModel())
    assert result.freshness_cost == pytest.approx(_optimum(traced, bound, CostModel()), rel=1e-12)
