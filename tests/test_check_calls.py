"""``scripts/check_calls.py``: the committed counts are the ones it gates,
and a count that moves either way is printed."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_calls", ROOT / "scripts" / "check_calls.py")
check_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_calls)


def test_the_committed_file_holds_every_gated_count() -> None:
    committed = check_calls.load()
    rows = {name.split(".")[0] for name in committed}
    assert rows == set(check_calls.FIELDS)
    for row, fields in check_calls.FIELDS.items():
        for field in fields:
            assert any(name.startswith(f"{row}.{field}") for name in committed), (row, field)
    # A count of objects a cut builds is exactly none.
    assert [value for name, value in committed.items() if name.endswith("_objects")] == [0] * 3


def test_equal_counts_differ_nowhere() -> None:
    counts = {"a.calls_per_request.update": 3.5, "b.sweep_cut_builds": 2}
    assert check_calls.differences(counts, dict(counts)) == []


def test_a_count_that_moves_either_way_is_printed() -> None:
    committed = {"a.calls_per_request.update": 3.5, "b.sweep_cut_builds": 2, "c.gone": 1}
    fresh = {"a.calls_per_request.update": 3.25, "b.sweep_cut_builds": 3, "d.new": 0}
    assert check_calls.differences(committed, fresh) == [
        "a.calls_per_request.update: 3.5 committed, 3.25 counted",
        "b.sweep_cut_builds: 2 committed, 3 counted",
        "c.gone: 1 committed, not counted",
        "d.new: not committed, 0 counted",
    ]


def test_another_interpreter_is_refused(monkeypatch, capsys) -> None:
    monkeypatch.setattr(check_calls, "PYTHON", (2, 7))
    assert check_calls.main([]) == 2
    assert "exact on CPython 2.7" in capsys.readouterr().out
