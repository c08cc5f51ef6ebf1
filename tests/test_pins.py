"""The scoped re-pin helper writes the named keys and nothing else."""

from __future__ import annotations

import json

import pytest

from tests.pins import regen


def _dump(pins: dict) -> str:
    return json.dumps(pins, indent=1) + "\n"


@pytest.fixture
def pinned(tmp_path):
    path = tmp_path / "pins.json"
    path.write_text(_dump({"a": 1, "b": {"x": [1, 2]}, "c": "same"}))
    return path


def _compute(**values):
    values = {"a": 1, "b": {"x": [1, 2]}, "c": "same", **values}
    return {key: (lambda v=v: v) for key, v in values.items()}


def test_writes_only_the_named_keys(pinned, capsys):
    assert regen(pinned, _compute(a=5, d=[0]), _dump, ["--only", "a", "d"]) == 0
    assert json.loads(pinned.read_text()) == {
        "a": 5, "b": {"x": [1, 2]}, "c": "same", "d": [0]
    }
    out = capsys.readouterr().out
    assert "named a: 1 value(s) moved" in out and "a: 1 -> 5" in out


def test_refuses_when_an_unnamed_key_would_change(pinned, capsys):
    before = pinned.read_text()
    assert regen(pinned, _compute(a=5, b={"x": [1, 3]}), _dump, ["--only", "a"]) == 1
    assert pinned.read_text() == before
    out = capsys.readouterr().out
    assert "UNNAMED b" in out and "b.x[1]: 2 -> 3" in out
    assert "refusing to write" in out


def test_check_writes_nothing(pinned):
    before = pinned.read_text()
    assert regen(pinned, _compute(a=5), _dump, ["--only", "a", "--check"]) == 0
    assert regen(pinned, _compute(), _dump, ["--check"]) == 0
    assert regen(pinned, _compute(a=5), _dump, ["--check"]) == 1
    assert pinned.read_text() == before


def test_an_unknown_key_is_a_usage_error(pinned):
    with pytest.raises(SystemExit) as exc:
        regen(pinned, _compute(), _dump, ["--only", "nope"])
    assert exc.value.code == 2
