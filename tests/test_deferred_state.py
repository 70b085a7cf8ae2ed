"""A columnar replay's nodes are built on their first read.

When a lockstep unit ends, each host's four state owners — cache, invalidation
tracker, write buffer, E[W] tracker — get one pending build of the host's
objects (``repro.deferred``, ``_HostColumns.defer``).  Whatever reads a node
first — an owner's dict, the driver's aliases, an owner's methods, a copy, a
pickle, the next replay's load — must find exactly what the eager write-back
built, field by field and in dict order, and no host may be built twice.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.cluster.replication import ReplicationConfig
from repro.cluster.vector import VectorClusterSimulation
from repro.deferred import settled_class
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation, replay_in_lockstep
from repro.sim.vector.columns import _HostColumns
from repro.sim.vector.lockstep import _Lockstep
from repro.workload.compiled import CompiledTrace, compile_workload
from repro.workload.poisson import PoissonZipfWorkload

TRACE = compile_workload(PoissonZipfWorkload(num_keys=60, rate_per_key=5.0, seed=21), 8.0)
#: The same requests 8 s later: a second replay that continues the first.
LATER = CompiledTrace(
    times=TRACE.times + 8.0,
    key_ids=TRACE.key_ids,
    is_read=TRACE.is_read,
    key_sizes=TRACE.key_sizes,
    value_sizes=TRACE.value_sizes,
    key_names=TRACE.key_names,
)
POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]
#: One replica per key: the fleet's groups read with the single cache's
#: stride, so a sweep stacks both shapes' reactive replays in one unit.
FLEET = dict(num_nodes=3, replication=ReplicationConfig(factor=1))


def engines(shape: str, trace: CompiledTrace = TRACE, duration: float = 8.0) -> list:
    """Every kernel policy's replay at T = 0.5: on the single cache, on a
    3-node fleet, or — ``lockstep`` — both, stepped as a sweep steps them
    (the six reactive replays then form one unit, and each TTL policy's two
    replays another)."""
    config = dict(staleness_bound=0.5, duration=duration)
    built = []
    if shape in ("single", "lockstep"):
        built += [VectorSimulation(trace, policy=make_policy(name), **config) for name in POLICIES]
    if shape in ("fleet", "lockstep"):
        built += [
            VectorClusterSimulation(trace, policy=name, **FLEET, **config) for name in POLICIES
        ]
    return built


def replay(built: list) -> None:
    replay_in_lockstep([engine.replay() for engine in built])
    assert all(engine.used_vector_path for engine in built)


def owners(node) -> list:
    """The node's state owners: cache, tracker, buffer and any E[W] tracker."""
    estimator = getattr(node.policy, "estimator", None)
    return [node.cache, node.tracker, node.buffer] + ([estimator] if estimator else [])


def table(owner) -> list:
    """An owner's dict as ``(key, repr(value))`` pairs, in dict order."""
    return [(key, repr(value)) for key, value in getattr(owner, owner._state).items()]


def raw(owner) -> dict:
    """An owner's dict, read past any pending build: from its slot, or from
    its ``__dict__``."""
    slot = settled_class(owner).__dict__.get(owner._state)
    return slot.__get__(owner) if slot is not None else vars(owner)[owner._state]


def pending(owner) -> bool:
    return type(owner) is not settled_class(owner)


@pytest.fixture
def write_backs(monkeypatch) -> list:
    """The ``(columns, host)`` of every write-back, as they run."""
    calls = []
    write_back = _HostColumns.write_back

    def counted(columns, host=None):
        calls.append((id(columns), host))
        write_back(columns, host)

    monkeypatch.setattr(_HostColumns, "write_back", counted)
    return calls


def eager_states(shape: str, monkeypatch, second: bool = False) -> list:
    """Every node's owner tables after the same replays with the write-back
    run at the unit's end, as it was before the build was deferred."""
    with monkeypatch.context() as patch:
        patch.setattr(_HostColumns, "defer", lambda columns: columns.write_back())
        built = engines(shape)
        replay(built)
        if second:
            built = continue_on(built, shape)
        return [state for engine in built for state in read_owners(engine)]


def continue_on(first: list, shape: str) -> list:
    """A second columnar replay, of :data:`LATER`, on the nodes of ``first``."""
    later = engines(shape, LATER, duration=16.0)
    for engine, earlier in zip(later, first, strict=True):
        engine._adopt(earlier._node_list)
    replay(later)
    return later


def test_the_unit_of_the_lockstep_shape_has_six_members(monkeypatch) -> None:
    sizes = []
    init = _Lockstep.__init__

    def counted(unit, members):
        sizes.append(len(members))
        init(unit, members)

    monkeypatch.setattr(_Lockstep, "__init__", counted)
    replay(engines("lockstep"))
    assert sorted(sizes) == [2, 2, 6]


@pytest.mark.parametrize("shape", ["single", "fleet", "lockstep"])
def test_a_finished_replay_leaves_every_owner_pending_and_builds_nothing(
    shape: str, write_backs: list
) -> None:
    """After ``run()`` every owner of every node waits on its host's build:
    no write-back has run, and each dict is the empty one it started as."""
    built = engines(shape)
    replay(built)
    assert write_backs == []
    for engine in built:
        for node in engine._node_list:
            for owner in owners(node):
                assert pending(owner) and raw(owner) == {}
                assert type(owner).__qualname__ == settled_class(owner).__qualname__


def read_owners(engine) -> list:
    """Each node's owner tables, read through the owners of ``_node_list``."""
    return [[table(owner) for owner in owners(node)] for node in engine._node_list]


def read_driver(engine) -> list:
    """The same through the driver: ``sim.cache`` / ``.tracker`` / ``.buffer``
    and ``sim.node`` on the single cache, ``node_at(i)`` on a fleet."""
    if isinstance(engine, VectorSimulation):
        node = engine.node
        return [[table(owner) for owner in [engine.cache, engine.tracker, engine.buffer]
                 + owners(node)[3:]]]
    return [[table(owner) for owner in owners(engine.node_at(index))]
            for index in range(len(engine._node_list))]


def read_methods(engine) -> list:
    """The same through the owners' methods, in the order the methods list."""
    states = []
    for node in engine._node_list:
        cache, tracker, buffer, *estimator = owners(node)
        assert len(tracker) == len(raw(tracker)) and len(buffer) == len(raw(buffer))
        state = [
            [(entry.key, repr(entry)) for entry in cache.entries()],
            [(key, repr(raw(tracker)[key])) for key in raw(tracker) if tracker.is_invalidated(key)],
            [(write.key, repr(write)) for write in buffer.peek()],
        ]
        if estimator:
            state.append([(key, repr(raw(estimator[0])[key])) for key, *_ in estimator[0].state()])
        states.append(state)
    return states


def read_clones(clone):
    def read(engine) -> list:
        states = []
        for node in engine._node_list:
            copies = [clone(owner) for owner in owners(node)]
            assert not any(pending(each) for each in copies)
            states.append([table(each) for each in copies])
        return states

    return read


READS = {
    "owners": read_owners,
    "driver": read_driver,
    "methods": read_methods,
    "deepcopy": read_clones(copy.deepcopy),
    "copy": read_clones(copy.copy),
    "pickle": read_clones(lambda owner: pickle.loads(pickle.dumps(owner))),
}


@pytest.mark.parametrize("path", sorted(READS))
@pytest.mark.parametrize("shape", ["single", "fleet", "lockstep"])
def test_the_first_read_finds_what_the_eager_write_back_built(
    shape: str, path: str, monkeypatch, write_backs: list
) -> None:
    """Each read path, taken first, runs the build of the hosts it reads and
    finds the eager write-back's dicts, entry by entry in dict order; every
    host is built once however many of its owners are read."""
    expected = eager_states(shape, monkeypatch)
    write_backs.clear()
    built = engines(shape)
    replay(built)
    assert [state for engine in built for state in READS[path](engine)] == expected
    hosts = sum(len(engine._node_list) for engine in built)
    assert len(write_backs) == len(set(write_backs)) == hosts
    assert all(host is not None for _, host in write_backs)
    assert [state for engine in built for state in read_owners(engine)] == expected
    assert len(write_backs) == hosts


def test_reading_one_host_builds_that_host_alone(write_backs: list) -> None:
    """Reading one fleet node's tracker builds that node's four dicts and no
    other node's; its other owners then read without another build."""
    [engine] = engines("fleet")[4:]  # adaptive
    replay([engine])
    middle = engine._node_list[1]
    len(middle.tracker)
    assert [host for _, host in write_backs] == [1]
    cache, tracker, buffer, estimator = owners(middle)
    assert not pending(tracker)
    assert all(pending(owner) for owner in (cache, buffer, estimator))
    assert raw(cache) and raw(estimator)
    filled = [dict(raw(owner)) for owner in (cache, buffer, estimator)]
    assert [dict(getattr(owner, owner._state)) for owner in (cache, buffer, estimator)] == filled
    assert [host for _, host in write_backs] == [1]
    for other in (engine._node_list[0], engine._node_list[2]):
        assert all(pending(owner) and not raw(owner) for owner in owners(other))


@pytest.mark.parametrize("shape", ["single", "fleet", "lockstep"])
def test_a_second_replay_on_the_same_nodes_loads_the_pending_state(
    shape: str, monkeypatch
) -> None:
    """A second columnar replay on the nodes of a first, nothing read in
    between: its load runs the first replay's builds, and the nodes end as
    after the same two replays with eager write-backs."""
    expected = eager_states(shape, monkeypatch, second=True)
    first = engines(shape)
    replay(first)
    later = continue_on(first, shape)
    for engine in later:
        for node in engine._node_list:
            assert all(pending(owner) for owner in owners(node))
    assert [state for engine in later for state in read_owners(engine)] == expected


def test_the_later_load_and_an_eager_write_back_round_trip(write_backs: list) -> None:
    """Columns loaded from pending nodes hold what the build would have
    written: their own write-back leaves the nodes as reading them does."""
    built = engines("lockstep")
    replay(built)
    nodes = [node for engine in built for node in engine._node_list]
    columns = _HostColumns(nodes, TRACE.key_names)
    assert len(write_backs) == len(nodes)
    before = [[table(owner) for owner in owners(node)] for node in nodes]
    columns.write_back()
    assert [[table(owner) for owner in owners(node)] for node in nodes] == before
    assert np.count_nonzero(columns.state) > 0


@pytest.mark.parametrize("engine", ["scalar", "columnar-pending"])
def test_a_deep_copied_node_reads_its_own_cache(engine: str) -> None:
    """``copy`` takes a built-in bound method as an atom, so a node's read
    path aliases — its cache's ``dict.get`` — would still read the original's
    entries in a deep copy.  After a scalar replay, and after a columnar one
    whose owners are still pending, deleting a key from the copy's cache
    makes the copy's read of it miss while the original still hits."""
    config = dict(policy=make_policy("invalidate"), staleness_bound=0.5, duration=8.0)
    if engine == "scalar":
        simulation = Simulation(TRACE.iter_requests(), **config)
    else:
        simulation = VectorSimulation(TRACE, **config)
    simulation.run()
    node = simulation._node_list[0]
    if engine != "scalar":
        assert type(node.cache) is not settled_class(node.cache)  # still pending
    clone = copy.deepcopy(node)
    assert clone._l2_peek.__self__ is clone.cache._entries
    assert clone._l2_peek.__self__ is not node.cache._entries
    key, entry = next(
        (key, entry) for key, entry in node.cache._entries.items() if entry.state.value == "valid"
    )
    del clone.cache._entries[key]
    time = entry.as_of + 1e-3  # within the bound: a valid entry serves the read
    misses, hits = clone.result.cold_misses, node.result.hits
    clone.handle_read(time, key, 16, 64)
    node.handle_read(time, key, 16, 64)
    assert clone.result.cold_misses == misses + 1
    assert node.result.hits == hits + 1
