"""Full-trace digests of the resilience paths, pinned before the engine split.

``data/trace_digests.json`` was written by ``trace_digest_cases`` on
the commit that still had two independent engine loops; these tests
prove the shared :mod:`repro.fl.engine` base reproduces every event of
every case — type, order, timestamp and data — byte for byte.
"""

from __future__ import annotations

import json

import pytest

from tests.fl.trace_digest_cases import (
    DIGEST_CASES,
    DIGEST_PATH,
    EVENT_CASES,
    digest,
    event_rows,
)


@pytest.fixture(scope="module")
def pinned() -> dict:
    assert DIGEST_PATH.exists(), (
        "missing trace digests; regenerate with "
        "`python -m tests.fl.trace_digest_cases` on the pre-refactor engines"
    )
    return json.loads(DIGEST_PATH.read_text())


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_trace_digest_unchanged(case: str, pinned: dict) -> None:
    assert digest(DIGEST_CASES[case]) == pinned["digests"][case]


def _untimed(rows: list) -> list:
    return [[kind, cid, data] for kind, cid, _, data in rows]


def _times(rows: list) -> list[float]:
    return [t for _, _, t, _ in rows]


@pytest.mark.parametrize("case", sorted(EVENT_CASES))
def test_event_sequence_unchanged_times_within_an_ulp(case: str, pinned: dict) -> None:
    """Async multi-attempt uplinks: everything exact except times."""
    expected = pinned["event_cases"][case]
    actual = event_rows(EVENT_CASES[case])
    assert _untimed(actual["events"]) == _untimed(expected["events"])
    assert _times(actual["events"]) == pytest.approx(
        _times(expected["events"]), rel=1e-12, abs=0.0
    )
    for got, want in zip(actual["records"], expected["records"], strict=True):
        assert float(got["sim_time_s"]) == pytest.approx(
            float(want["sim_time_s"]), rel=1e-12, abs=0.0
        )
        assert {**got, "sim_time_s": None} == {**want, "sim_time_s": None}
