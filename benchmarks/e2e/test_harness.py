"""Tests of the benchmark harness itself (not of the program).

Run with `PYTHONPATH=src python -m pytest benchmarks/e2e -q`; the
directory is outside the tier-1 `testpaths`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run
import spans
from stats import summarize, verdict, worsening


# -- self-time arithmetic ----------------------------------------------
def test_self_time_is_duration_minus_children():
    names = ["root", "a", "b"]
    #   root 0..10
    #     a 1..7
    #       b 2..4        a 5..6 (nested same name)
    #     b 8..9.5
    rows = [
        (2, 2, 1, 2.0, 4.0),
        (3, 1, 1, 5.0, 6.0),
        (1, 1, 0, 1.0, 7.0),
        (4, 2, 0, 8.0, 9.5),
        (0, 0, -1, 0.0, 10.0),
    ]
    agg = spans.self_times(rows, names)
    assert agg["root"] == {"self_s": pytest.approx(10 - 6 - 1.5), "calls": 1}
    assert agg["a"] == {"self_s": pytest.approx((6 - 2 - 1) + 1), "calls": 2}
    assert agg["b"] == {"self_s": pytest.approx(2 + 1.5), "calls": 2}
    assert sum(v["self_s"] for v in agg.values()) == pytest.approx(10.0)


def test_self_times_rejects_a_span_left_open():
    with pytest.raises(ValueError):
        spans.self_times([(0, 0, -1, 0.0, 1.0), (2, 0, 0, 0.2, 0.4)], ["root"])


class _Layer:
    def work(self, n):
        return sum(range(n))

    @classmethod
    def make(cls):
        return cls()


def test_install_records_only_under_a_root_and_uninstall_restores():
    raw_work, raw_make = vars(_Layer)["work"], vars(_Layer)["make"]
    table = (
        spans.Target("layer.work", __name__, "_Layer.work",
                     count=lambda c, a, k, r: c.update(total=r)),
        spans.Target("layer.make", __name__, "_Layer.make"),
    )
    recorder = spans.Recorder()
    spans.install(recorder, table)
    try:
        _Layer().work(3)  # no root open: not recorded
        with recorder.root():
            assert isinstance(_Layer.make(), _Layer)
            _Layer().work(4)
    finally:
        spans.uninstall(recorder)
    assert vars(_Layer)["work"] is raw_work and vars(_Layer)["make"] is raw_make
    agg = spans.self_times(recorder.spans, recorder.names)
    assert agg["layer.work"]["calls"] == 1 and agg["layer.make"]["calls"] == 1
    assert recorder.counts["total"] == 6


@pytest.mark.parametrize("qualname", ["_Layer.gone", "_Missing.work"])
def test_a_target_that_does_not_resolve_names_itself(qualname):
    with pytest.raises(spans.SpanTableError, match=qualname):
        spans.install(spans.Recorder(), (spans.Target("x", __name__, qualname),))


def test_the_real_table_resolves_and_unwraps():
    recorder = spans.Recorder()
    spans.install(recorder)
    spans.uninstall(recorder)


# -- medians, quartiles, bounds ----------------------------------------
def test_summarize_matches_statistics_quantiles():
    s = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5)
    assert s["spread"] == pytest.approx(1.0)
    assert summarize([7.0])["spread"] == 0.0


def test_worsening_follows_the_metric_direction():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worsening(0.8, 0.6, "higher") == pytest.approx(0.25)


def test_verdict_lower_is_better():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [10.5, 10.4, 10.6, 10.5, 10.5], "lower", 0.10) == "unchanged"
    assert verdict(steady, [11.5, 11.4, 11.6, 11.5, 11.5], "lower", 0.10) == "regressed"


def test_verdict_higher_is_better():
    steady = [0.90, 0.91, 0.89, 0.90, 0.90]
    assert verdict(steady, [0.80, 0.80, 0.81, 0.79, 0.80], "higher", 0.05) == "regressed"
    assert verdict(steady, [0.95, 0.96, 0.95, 0.94, 0.95], "higher", 0.05) == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [10.2, 9.0, 11.5, 10.0, 10.4], "lower", 0.10) == "unresolved"
    # ... unless every new run beats every baseline run.
    assert verdict(noisy, [7.0, 7.5, 7.2, 7.9, 7.1], "lower", 0.10) == "unchanged"


# -- report assembly ---------------------------------------------------
def _fake_run(digest="d", wall=1.0, traced=False, twin=False, failures=()):
    return {"traced": traced, "twin": twin, "failures": list(failures), "digest": digest,
            "wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 70.0, "uplink_bytes": 100,
            "sim_time_s": 2.0, "delivered_frac": 1.0, "params": {}, "versions": {}}


def test_report_takes_medians_and_flags_digest_disagreement():
    contract = run.load_contract()
    rep = run.report("w", [_fake_run(wall=w) for w in (1.0, 3.0, 2.0)], contract)
    assert rep["end_to_end"]["wall_s"]["median"] == 2.0 and not rep["failures"]
    assert rep["end_to_end"]["ok_frac"]["median"] == 1.0
    rep = run.report("w", [_fake_run("a"), _fake_run("b")], contract)
    assert any("disagree" in f for f in rep["failures"])


def test_a_failed_run_contributes_no_timing():
    contract = run.load_contract()
    runs = [_fake_run(wall=1.0), _fake_run(wall=99.0, failures=["boom"])]
    rep = run.report("w", runs, contract)
    assert rep["end_to_end"]["wall_s"]["values"] == [1.0]
    assert rep["failed"] == 1 and rep["end_to_end"]["ok_frac"]["median"] == 0.5
    assert run.contract_line(rep, contract, trace=False)["correct"] is False


# -- the whole thing, small --------------------------------------------
def test_smoke_pass_over_all_workloads(capsys):
    """1 repetition, counts / 10, traced, every check on."""
    assert run.main(["--smoke", "--trace", "1"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    contract = run.load_contract()
    for workload in contract["workloads"]:
        for metric in contract["per_layer"]:
            assert f"{workload['name']}.{metric['name']}" in line["metrics"]
