"""The scenario catalog's timelines and parameter checks, pinned.

Every registered scenario, bound to one awkward run (7 s, T = 0.3, four
nodes), fires exactly these ``(time, label)`` pairs, float for float; and
each parameter set below is accepted or refused exactly as listed.  A
change to how scenarios resolve their defaults, order their events or
check their parameters shows here before it shows in a row.
"""

import pytest

from repro.cluster.scenarios import SCENARIO_FACTORIES, make_scenario
from repro.errors import ClusterError

DURATION = 7.0
BOUND = 0.3
NODES = 4

#: (scenario, parameters, events as (time, label)).  The first twelve are
#: each scenario at its defaults (``autoscale`` has no default trigger).
TIMELINES = [
    ("autoscale", {"high_load": 50.0}, [(0.0, "autoscale-standby")]),
    ("backend-saturation", {}, [
        (2.8000000000000003, "saturation-start"),
        (5.6000000000000005, "saturation-end"),
    ]),
    ("cold-l1", {}, [(3.5, "cold-l1-restart")]),
    ("flapping", {}, [
        (2.1, "flap-down:0"),
        (2.8, "flap-back:0"),
        (3.5, "flap-down:1"),
        (4.2, "flap-back:1"),
        (4.8999999999999995, "flap-down:2"),
        (5.6, "flap-back:2"),
        (6.3, "flap-settle"),
    ]),
    ("flash-crowd", {}, [(3.5, "shift")]),
    ("gray-failure", {}, [(2.1, "gray-start"), (5.95, "gray-end")]),
    ("kill-at-t", {}, [(3.5, "crash-restart-warm")]),
    ("l2-outage", {}, [
        (2.8000000000000003, "l2-outage-start"),
        (4.8999999999999995, "l2-outage-end"),
    ]),
    ("node-failure", {}, [(2.8000000000000003, "fail"), (4.0, "detect"), (5.25, "recover")]),
    ("partition", {}, [(2.1, "partition-start"), (4.8999999999999995, "partition-end")]),
    ("stampede", {}, [(3.5, "stampede-expire")]),
    ("zone-outage", {}, [
        (2.8000000000000003, "zone-fail:zone-0"),
        (4.0, "zone-detect:zone-0"),
        (5.25, "zone-recover:zone-0"),
    ]),
    ("node-failure", {"rejoin": "warm", "recover_at": None}, [
        (2.8000000000000003, "fail"),
        (4.0, "detect"),
    ]),
    ("kill-at-t", {"mode": "cold"}, [(3.5, "crash-restart-cold")]),
    ("zone-outage", {"zone": 1, "detect_at": 3.5}, [
        (2.8000000000000003, "zone-fail:zone-1"),
        (3.5, "zone-detect:zone-1"),
        (5.25, "zone-recover:zone-1"),
    ]),
    ("flapping", {"flaps": 2, "mode": "ring"}, [
        (2.1, "flap-down:0"),
        (3.15, "flap-back:0"),
        (4.199999999999999, "flap-down:1"),
        (5.249999999999999, "flap-back:1"),
        (6.3, "flap-settle"),
    ]),
    ("partition", {"node_indices": [1, 2], "start_at": 0.5}, [
        (0.5, "partition-start"),
        (4.8999999999999995, "partition-end"),
    ]),
]


def _bound(name, params, duration=DURATION, bound=BOUND):
    scenario = make_scenario(name, params)
    scenario.bind(duration=duration, staleness_bound=bound, num_nodes=NODES)
    return scenario


def test_every_registered_scenario_has_a_pinned_timeline() -> None:
    assert {name for name, _, _ in TIMELINES} == set(SCENARIO_FACTORIES)


@pytest.mark.parametrize(
    "name, params, expected",
    TIMELINES,
    ids=[f"{name}-{index}" for index, (name, _, _) in enumerate(TIMELINES)],
)
def test_scenario_events_are_pinned_time_for_time(name, params, expected) -> None:
    events = _bound(name, params).events()
    assert [(event.time, event.label) for event in events] == expected


#: (scenario, parameters, refused) on a 10-second run at T = 0.5 over four
#: nodes: refusals at construction and at bind alike.
PARAMETER_SETS = [
    # node-failure
    ("node-failure", {}, False),
    ("node-failure", {"node_index": 3}, False),
    ("node-failure", {"node_index": 4}, True),
    ("node-failure", {"node_index": -1}, True),
    ("node-failure", {"fail_at": 5.0, "detect_at": 4.0}, True),
    ("node-failure", {"fail_at": 5.0, "detect_at": 5.0}, True),
    ("node-failure", {"detect_at": 9.0}, False),
    ("node-failure", {"detect_at": 9.0, "recover_at": None}, False),
    ("node-failure", {"fail_at": 1.0, "recover_at": 2.0}, True),
    ("node-failure", {"recover_at": 7.0, "detect_at": 7.0}, True),
    ("node-failure", {"fail_at": 0.0, "detect_at": 0.5, "recover_at": 0.6}, False),
    ("node-failure", {"fail_at": 12.0, "recover_at": None}, True),
    ("node-failure", {"rejoin": "warm"}, False),
    ("node-failure", {"rejoin": "tepid"}, True),
    ("node-failure", {"loss": 0.5}, True),
    # zone-outage
    ("zone-outage", {}, False),
    ("zone-outage", {"zone": 1}, False),
    ("zone-outage", {"zone": "zone-3"}, False),
    ("zone-outage", {"fail_at": 5.0, "detect_at": 4.0}, True),
    ("zone-outage", {"detect_at": 9.0}, False),
    ("zone-outage", {"detect_at": 9.0, "recover_at": None}, False),
    ("zone-outage", {"fail_at": 1.0, "recover_at": 2.0}, True),
    ("zone-outage", {"recover_at": 7.0, "detect_at": 7.0}, True),
    ("zone-outage", {"fail_at": 12.0, "recover_at": None}, True),
    ("zone-outage", {"rejoin": "warm"}, False),
    ("zone-outage", {"rejoin": "tepid"}, True),
    ("zone-outage", {"node_index": 0}, True),
    # partition
    ("partition", {}, False),
    ("partition", {"node_indices": [1, 3]}, False),
    ("partition", {"node_indices": [4]}, True),
    ("partition", {"node_indices": [-1]}, True),
    ("partition", {"node_indices": []}, True),
    ("partition", {"start_at": 8.0, "end_at": 2.0}, True),
    ("partition", {"start_at": 5.0, "end_at": 5.0}, True),
    ("partition", {"start_at": -3.0, "end_at": 30.0}, True),
    ("partition", {"loss": 0.0}, True),
    ("partition", {"loss": 0.5}, False),
    ("partition", {"loss": 1.5}, True),
    # l2-outage
    ("l2-outage", {}, False),
    ("l2-outage", {"node_indices": None}, False),
    ("l2-outage", {"node_indices": [0, 2]}, False),
    ("l2-outage", {"node_indices": [4]}, True),
    ("l2-outage", {"node_indices": []}, True),
    ("l2-outage", {"start_at": 8.0, "end_at": 2.0}, True),
    ("l2-outage", {"start_at": 5.0, "end_at": 5.0}, True),
    ("l2-outage", {"start_at": -1.0}, True),
    ("l2-outage", {"end_at": 10.0}, False),
    ("l2-outage", {"end_at": 10.5}, True),
    ("l2-outage", {"start_at": 0.0, "end_at": 1.0}, False),
    # backend-saturation
    ("backend-saturation", {}, False),
    ("backend-saturation", {"capacity": 0}, True),
    ("backend-saturation", {"capacity": 3}, False),
    ("backend-saturation", {"squeeze_at": 8.0, "recover_at": 2.0}, True),
    ("backend-saturation", {"squeeze_at": 5.0, "recover_at": 5.0}, True),
    ("backend-saturation", {"squeeze_at": -1.0}, True),
    ("backend-saturation", {"recover_at": 10.0}, False),
    ("backend-saturation", {"recover_at": 10.5}, True),
    ("backend-saturation", {"squeeze_at": 0.0, "recover_at": 1.0}, False),
    # gray-failure
    ("gray-failure", {}, False),
    ("gray-failure", {"node_indices": [1, 2]}, False),
    ("gray-failure", {"node_indices": [4]}, True),
    ("gray-failure", {"node_indices": []}, True),
    ("gray-failure", {"degrade_at": 5.0, "recover_at": 2.0}, True),
    ("gray-failure", {"degrade_at": 5.0, "recover_at": 5.0}, True),
    ("gray-failure", {"degrade_at": -2.0, "recover_at": 40.0}, True),
    ("gray-failure", {"slowdown": 0.5}, True),
    ("gray-failure", {"slowdown": 1.0}, False),
    ("gray-failure", {"loss": 0.0}, False),
    ("gray-failure", {"loss": 1.5}, True),
    ("gray-failure", {"delay": -1.0}, True),
    ("gray-failure", {"delay": 0.2}, False),
    # flapping
    ("flapping", {}, False),
    ("flapping", {"node_index": 3}, False),
    ("flapping", {"node_index": 4}, True),
    ("flapping", {"node_index": -1}, True),
    ("flapping", {"flaps": 0}, True),
    ("flapping", {"flaps": 1}, False),
    ("flapping", {"mode": "ring"}, False),
    ("flapping", {"mode": "loud"}, True),
    ("flapping", {"start_at": 6.0, "end_at": 2.0}, True),
    ("flapping", {"start_at": 5.0, "end_at": 5.0}, True),
    ("flapping", {"start_at": -1.0, "end_at": 20.0}, True),
    ("flapping", {"degraded_loss": 1.5}, True),
    ("flapping", {"degraded_delay": -0.1}, True),
    ("flapping", {"degraded_loss": 1.0, "degraded_delay": 0.5}, False),
    # kill-at-t
    ("kill-at-t", {}, False),
    ("kill-at-t", {"kill_at": 0.0}, True),
    ("kill-at-t", {"kill_at": 10.0}, True),
    ("kill-at-t", {"kill_at": 9.99}, False),
    ("kill-at-t", {"kill_at": -1.0}, True),
    ("kill-at-t", {"mode": "cold"}, False),
    ("kill-at-t", {"mode": "tepid"}, True),
    # cold-l1
    ("cold-l1", {}, False),
    ("cold-l1", {"restart_at": 0.0}, True),
    ("cold-l1", {"restart_at": 10.0}, True),
    ("cold-l1", {"restart_at": 0.01}, False),
    ("cold-l1", {"restart_at": 11.0}, True),
    # stampede
    ("stampede", {}, False),
    ("stampede", {"expire_at": 0.0}, True),
    ("stampede", {"expire_at": 10.0}, True),
    ("stampede", {"expire_at": 2.5}, False),
    ("stampede", {"fraction": 0.0}, True),
    ("stampede", {"fraction": 1.0}, False),
    ("stampede", {"fraction": 1.1}, True),
    # flash-crowd
    ("flash-crowd", {}, False),
    ("flash-crowd", {"shift_at": -5.0}, True),
    ("flash-crowd", {"shift_at": 50.0}, True),
    ("flash-crowd", {"fraction": 0.0}, True),
    ("flash-crowd", {"fraction": 1.0}, False),
    ("flash-crowd", {"hot_keys": 0}, True),
    ("flash-crowd", {"hot_keys": 1}, False),
    # autoscale
    ("autoscale", {}, True),
    ("autoscale", {"high_load": 10.0}, False),
    ("autoscale", {"high_load": 10.0, "min_nodes": 4}, False),
    ("autoscale", {"high_load": 10.0, "min_nodes": 5}, True),
    ("autoscale", {"pressure_high": 0.5}, False),
    ("autoscale", {"pressure_high": 1.5}, True),
    ("autoscale", {"high_load": 10.0, "low_load": 10.0}, True),
    ("autoscale", {"high_load": 10.0, "flash_fraction": 0.5, "flash_at": 3.0}, False),
]


@pytest.mark.parametrize(
    "name, params, refused",
    PARAMETER_SETS,
    ids=[f"{name}-{index}" for index, (name, _, _) in enumerate(PARAMETER_SETS)],
)
def test_each_scenario_accepts_and_refuses_the_same_parameters(name, params, refused) -> None:
    try:
        _bound(name, params, duration=10.0, bound=0.5)
    except ClusterError:
        assert refused, f"{name} refused {params}"
    else:
        assert not refused, f"{name} accepted {params}"


#: (parameters, refused, events) of ``node-failure`` and ``zone-outage`` on
#: a 10-second run at T = 0.5 over four nodes: an explicit time outside
#: [0, 10] is refused; a derived detect time or an ``auto`` recovery past
#: the run's end is kept, and never fires.
OUTAGE_TIMES = [
    ({"fail_at": -3.0}, True, None),
    ({"fail_at": 50.0}, True, None),
    ({"fail_at": 10.5, "detect_at": 11.0, "recover_at": None}, True, None),
    ({"detect_at": 40.0}, True, None),
    ({"detect_at": -0.5, "fail_at": -1.0}, True, None),
    ({"recover_at": 10.5}, True, None),
    ({"fail_at": 0.0, "detect_at": 10.0, "recover_at": None}, False, [0.0, 10.0]),
    ({"detect_at": 9.0, "recover_at": 10.0}, False, [4.0, 9.0, 10.0]),
    ({"fail_at": 9.0}, False, [9.0, 11.0, 11.5]),
    ({"fail_at": 10.0, "recover_at": None}, False, [10.0, 12.0]),
]


@pytest.mark.parametrize("name", ["node-failure", "zone-outage"])
@pytest.mark.parametrize(
    "params, refused, times", OUTAGE_TIMES, ids=[str(index) for index in range(len(OUTAGE_TIMES))]
)
def test_an_outage_refuses_an_explicit_time_outside_the_run(name, params, refused, times) -> None:
    """``fail_at=-3`` used to detect at -1 s, and ``detect_at=40`` to push the
    recovery to 40.5 s; a time past the run that only the defaults put
    there is allowed, as a window's or an instant's never is."""
    if refused:
        with pytest.raises(ClusterError, match="must fall inside the run"):
            _bound(name, params, duration=10.0, bound=0.5)
        return
    scenario = _bound(name, params, duration=10.0, bound=0.5)
    assert [event.time for event in scenario.events()] == times
