"""Store file formats: the current numbers, and the one place that knows older ones.

Every snapshot and every ``RUN.json`` says its format in a top-level
``"format"`` key; a file without one is format 0, written before the key
existed.  :func:`upgrade` is the only reader of that key.  It refuses a
format this build cannot read and walks an older file forward one step at a
time, so every other reader sees the newest format and nothing else.

A step is a pure function from a file's parsed JSON at format ``n`` to the
same file at format ``n + 1``.  A change to a stored field raises the format
and adds one step here; the WAL's format is its magic (``RPROWAL1``) and
moves only when a record changes.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator

from repro.errors import StoreError

#: Format of the snapshots this build writes.
SNAPSHOT_FORMAT = 1
#: Format of the ``RUN.json`` files this build writes.
RUN_CONFIG_FORMAT = 1

Step = Callable[[Dict[str, Any]], Dict[str, Any]]


@contextmanager
def malformed(path: str | Path, part: str) -> Iterator[None]:
    """Report a missing or malformed field of ``part`` as a ``StoreError``
    naming the file, instead of the ``KeyError`` or ``TypeError`` that a
    reader raises on it."""
    try:
        yield
    except KeyError as exc:
        raise StoreError(f"{path}: {part} has no field {exc.args[0]!r}") from None
    except StoreError as exc:
        raise StoreError(f"{path}: {part}: {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise StoreError(f"{path}: {part} is malformed: {exc}") from None


def file_format(data: Dict[str, Any]) -> Any:
    """The format a parsed store file declares (0 when it has no key)."""
    return data.get("format", 0)


def _refuse_inexact(name: str, value: Any) -> None:
    if value:
        raise StoreError(
            f"snapshot field {name} is {value!r}: pruned write history and "
            "bounded trackers are no longer supported; only exact state restores"
        )


def _snapshot_0_to_1(data: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the four fields that described inexact backend state.

    Format 0 carried a history-retention window (``retention``, the
    ``pruned_writes`` total, each history's ``pruned`` count) and a bounded
    tracker's ``forgotten`` count.  Null or zero was the exact configuration
    and restores as it always did; any other value is state that can no
    longer be rebuilt, so it is refused, never dropped.
    """
    datastore = dict(data["datastore"])
    _refuse_inexact("retention", datastore.pop("retention", None))
    _refuse_inexact("pruned_writes", datastore.pop("pruned_writes", None))
    histories = {}
    for key, history in datastore["histories"].items():
        history = dict(history)
        _refuse_inexact(f"histories[{key}].pruned", history.pop("pruned", None))
        histories[key] = history
    datastore["histories"] = histories
    nodes = {}
    for node_id, node in data["nodes"].items():
        if "tracker" in node:  # a failed node's stub has none
            tracker = dict(node["tracker"])
            _refuse_inexact("tracker.forgotten", tracker.pop("forgotten", None))
            node = {**node, "tracker": tracker}
        nodes[node_id] = node
    return {**data, "datastore": datastore, "nodes": nodes}


def _run_config_0_to_1(data: Dict[str, Any]) -> Dict[str, Any]:
    """A run config from before the tier ran single-tier."""
    return {"l1_capacity": 0, "tier_mode": "write-through", **data}


#: Per file kind: the current format and the step out of each older one.
_FORMATS: Dict[str, tuple[int, Dict[int, Step]]] = {
    "snapshot": (SNAPSHOT_FORMAT, {0: _snapshot_0_to_1}),
    "run config": (RUN_CONFIG_FORMAT, {0: _run_config_0_to_1}),
}


def upgrade(data: Dict[str, Any], path: str | Path) -> Dict[str, Any]:
    """Return a parsed store file at the current format of its kind.

    A snapshot says its kind (``"kind": "repro-snapshot"``); the store's
    other JSON file is its ``RUN.json``.  ``data`` is not modified.

    Raises:
        StoreError: Naming ``path``, if the format is not an ``int``, is
            negative or is newer than this build; or if an older file has a
            field its step refuses or lacks one it reads.
    """
    kind = "snapshot" if data.get("kind") == "repro-snapshot" else "run config"
    current, steps = _FORMATS[kind]
    version = file_format(data)
    if type(version) is not int or not 0 <= version <= current:
        raise StoreError(
            f"{path}: {kind} format {version!r} is not one this build reads "
            f"(0 to {current})"
        )
    for older in range(version, current):
        with malformed(path, f"format-{older} {kind}"):
            data = steps[older](data)
    return {**data, "format": current}
