"""``scripts/check_bench.py --section``: partial runs and partial refreshes."""

from __future__ import annotations

import importlib.util
import json
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"


@pytest.fixture
def check_bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    ran: list[tuple[str, ...]] = []
    timings = {"alpha": 0.010, "beta": 0.020, "gamma": 0.030}

    def run_suite(iters_scale=1.0, only=()):
        ran.append(tuple(only))
        names = only or tuple(timings)
        return {
            "schema": 1,
            "suite": "hotpath",
            "sections": {
                n: {"iters": 1, "mean_s": timings[n], "min_s": timings[n], "meta": {}}
                for n in names
            },
        }

    suite = types.SimpleNamespace(SECTIONS=dict.fromkeys(timings), run_suite=run_suite)
    monkeypatch.setattr(module, "_load_suite", lambda: suite)
    monkeypatch.setattr(module, "BASELINE", tmp_path / "BENCH_hotpath.json")
    module.ran, module.timings = ran, timings
    return module


def _sections(module) -> dict:
    return json.loads(module.BASELINE.read_text())["sections"]


def test_update_section_rewrites_only_the_named_anchors(check_bench):
    assert check_bench.main(["--update"]) == 0
    committed = check_bench.BASELINE.read_text()
    check_bench.timings.update(alpha=0.001, beta=0.002, gamma=0.003)

    assert check_bench.main(["--update", "--section", "beta"]) == 0
    assert check_bench.ran[-1] == ("beta",)
    after = _sections(check_bench)
    before = json.loads(committed)["sections"]
    assert after["beta"]["min_s"] == 0.002
    assert after["alpha"] == before["alpha"] and after["gamma"] == before["gamma"]
    # Untouched anchors are byte-identical, not merely equal.
    assert check_bench.BASELINE.read_text() == committed.replace("0.02", "0.002")
    assert json.loads(check_bench.BASELINE.read_text())["suite"] == "hotpath"


def test_section_is_repeatable(check_bench):
    check_bench.main(["--update"])
    check_bench.timings.update(alpha=0.5, beta=0.5, gamma=0.5)
    assert check_bench.main(["--update", "--section", "alpha", "--section", "gamma"]) == 0
    after = _sections(check_bench)
    assert (after["alpha"]["min_s"], after["beta"]["min_s"], after["gamma"]["min_s"]) == (
        0.5, 0.020, 0.5,
    )


def test_compare_with_section_gates_only_that_section(check_bench, capsys):
    check_bench.main(["--update"])
    check_bench.timings.update(alpha=1.0)  # a 100x regression elsewhere
    assert check_bench.main(["--section", "beta"]) == 0
    assert "alpha" not in capsys.readouterr().out
    assert check_bench.main(["--section", "alpha"]) == 1
    assert check_bench.main([]) == 1


def test_unknown_section_and_missing_baseline_are_usage_errors(check_bench):
    with pytest.raises(SystemExit) as exc:
        check_bench.main(["--update", "--section", "population"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        check_bench.main(["--update", "--section", "beta"])  # nothing to merge into
    assert exc.value.code == 2
    assert not check_bench.BASELINE.exists()


def _real_suite():
    spec = importlib.util.spec_from_file_location(
        "bench_hotpath", SCRIPT.parent.parent / "benchmarks" / "bench_hotpath.py"
    )
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def test_real_suite_runs_a_subset():
    suite = _real_suite()
    out = suite.run_suite(0.01, only=("subspace",))
    assert list(out["sections"]) == ["subspace"]
    with pytest.raises(KeyError):
        suite.run_suite(0.01, only=("no_such_section",))


def test_every_section_has_exactly_one_committed_anchor():
    # A section without an anchor, or an anchor without a section, makes
    # the full gate fail ("present in baseline but not in suite").
    baseline = json.loads((SCRIPT.parent.parent / "BENCH_hotpath.json").read_text())
    assert set(_real_suite().SECTIONS) == set(baseline["sections"])
