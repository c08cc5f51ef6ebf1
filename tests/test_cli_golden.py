"""Every CLI command prints and writes what it did before ``RunSpec``.

``cli_golden.json`` was written by ``tests.cli_golden_cases`` on the
parent of the commit that introduced :mod:`repro.experiments.spec`; see
that module for the two entries re-pinned on purpose since.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.cli_golden_cases import CASES, GOLDEN_PATH, SLOW_CASES, digest


@pytest.fixture(scope="module")
def pinned() -> dict:
    assert GOLDEN_PATH.exists(), (
        "missing CLI golden; regenerate with `python -m tests.cli_golden_cases` "
        "on a commit you trust"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    # The tcp case spawns workers: give it the transport hard deadline.
    [pytest.param(c, marks=pytest.mark.transport) if "tcp" in c else c
     for c in sorted(CASES)],
)
def test_cli_output_unchanged(case: str, pinned: dict) -> None:
    assert digest(CASES[case]) == pinned[case]


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="whole figures and tables take ~35 s; set REPRO_SLOW_TESTS=1",
)
@pytest.mark.parametrize("case", sorted(SLOW_CASES))
def test_slow_cli_output_unchanged(case: str, pinned: dict) -> None:
    assert digest(SLOW_CASES[case]) == pinned[case]
