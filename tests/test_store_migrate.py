"""Store file formats: the format number, the upgrade steps and their refusals."""

import copy
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.store import load_snapshot
from repro.store.migrate import RUN_CONFIG_FORMAT, SNAPSHOT_FORMAT, upgrade

STORES = Path(__file__).parent / "data" / "stores"
FORMAT_0_SNAPSHOT = STORES / "format-0" / "snapshot-00000002.json"
FORMAT_1_SNAPSHOT = STORES / "format-1" / "snapshot-00000002.json"

#: Fields format 1 dropped: they described inexact backend state.
_DROPPED = ("retention", "pruned_writes", "pruned", "forgotten")


def _names(data) -> set:
    """Every key anywhere in a parsed JSON document."""
    if isinstance(data, dict):
        return set(data).union(*(_names(value) for value in data.values()))
    if isinstance(data, list):
        return set().union(*(_names(value) for value in data))
    return set()


def test_a_format_0_snapshot_upgrades_without_the_inexact_fields() -> None:
    data = json.loads(FORMAT_0_SNAPSHOT.read_text())
    original = copy.deepcopy(data)
    assert "format" not in data
    assert set(_DROPPED) <= _names(data)
    upgraded = upgrade(data, FORMAT_0_SNAPSHOT)
    assert data == original, "a step is pure: the parsed file is left as it was"
    assert upgraded["format"] == SNAPSHOT_FORMAT
    assert not set(_DROPPED) & _names(upgraded)
    # Everything else is the file as written.
    assert upgraded["datastore"]["histories"].keys() == data["datastore"]["histories"].keys()
    assert upgraded["nodes"]["node-000"]["tracker"] == {
        "keys": data["nodes"]["node-000"]["tracker"]["keys"]
    }


def test_a_current_snapshot_upgrades_to_itself() -> None:
    data = json.loads(FORMAT_1_SNAPSHOT.read_text())
    assert data["format"] == SNAPSHOT_FORMAT
    assert upgrade(data, FORMAT_1_SNAPSHOT) == data


def test_a_snapshot_says_the_format_it_was_read_in() -> None:
    old, current = load_snapshot(FORMAT_0_SNAPSHOT), load_snapshot(FORMAT_1_SNAPSHOT)
    assert (old.format, current.format) == (0, SNAPSHOT_FORMAT)
    assert (old.path, current.path) == (FORMAT_0_SNAPSHOT, FORMAT_1_SNAPSHOT)
    assert old.as_dict()["format"] == SNAPSHOT_FORMAT


@pytest.mark.parametrize("version", [SNAPSHOT_FORMAT + 1, 99, -1, "1", 1.0, True, None])
def test_a_snapshot_format_this_build_cannot_read_is_refused(tmp_path, version) -> None:
    path = tmp_path / "snapshot-00000001.json"
    data = json.loads(FORMAT_1_SNAPSHOT.read_text())
    path.write_text(json.dumps({**data, "format": version}))
    message = f"{path}: snapshot format {version!r} is not one this build reads"
    with pytest.raises(StoreError, match="^" + re.escape(message)):
        load_snapshot(path)


def test_a_format_0_run_config_ran_single_tier() -> None:
    config = {"workload": "poisson", "nodes": 2}
    assert upgrade(config, "RUN.json") == {
        **config, "l1_capacity": 0, "tier_mode": "write-through", "format": RUN_CONFIG_FORMAT,
    }
    tiered = {**config, "l1_capacity": 16, "tier_mode": "write-back"}
    assert upgrade(tiered, "RUN.json") == {**tiered, "format": RUN_CONFIG_FORMAT}
    current = {**tiered, "format": RUN_CONFIG_FORMAT}
    assert upgrade(current, "RUN.json") == current


def test_a_malformed_format_0_snapshot_names_the_file_and_the_field(tmp_path) -> None:
    data = json.loads(FORMAT_0_SNAPSHOT.read_text())
    del data["nodes"]
    with pytest.raises(StoreError, match=r"^x\.json: format-0 snapshot has no field 'nodes'$"):
        upgrade(data, "x.json")
    data = json.loads(FORMAT_0_SNAPSHOT.read_text())
    data["datastore"]["retention"] = 2.0
    with pytest.raises(
        StoreError, match=r"^x\.json: format-0 snapshot: snapshot field retention is 2\.0: "
    ):
        upgrade(data, "x.json")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda node: node["entries"][0].pop("as_of"), "has no field 'as_of'"),
        (lambda node: node.update(entries={"key-000019": {}}), "entries is dict, not a list"),
        (lambda node: node.update(entries=7), "entries is int, not a list"),
    ],
    ids=["entry-without-as_of", "entries-a-dict", "entries-an-int"],
)
def test_a_warm_rejoin_from_a_hostile_snapshot_names_the_file_and_the_field(
    tmp_path, edit, field
) -> None:
    """A warm rejoin reads a node's cache entries off its newest snapshot: a
    malformed one ends in one ``StoreError`` line naming the snapshot and
    the field, never a bare ``KeyError`` or ``TypeError``."""
    from repro.store import warm_state

    store = tmp_path / "store"
    shutil.copytree(STORES / "format-1", store)
    path = store / "snapshot-00000002.json"
    data = json.loads(path.read_text())
    edit(data["nodes"]["node-000"])
    path.write_text(json.dumps(data))
    with pytest.raises(StoreError) as raised:
        warm_state(store, "node-000", 5.0)
    message = str(raised.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: node 'node-000'") and message.endswith(field), message
    # The untouched node still rejoins warm.
    assert warm_state(store, "node-001", 5.0).entries
