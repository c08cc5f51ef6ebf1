"""Zoo conv models against their pinned one-step digests.

``data/layout_digests.json`` was written by ``layout_digest_cases`` on
the code that forced every pool output and pool input gradient to
C-contiguous NCHW; these tests prove the layout-following layers move
no value and no zero sign in any component.
"""

from __future__ import annotations

import json

import pytest

from tests.nn.layout_digest_cases import CASES, COMPONENTS, DIGEST_PATH, digests


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGEST_PATH.read_text())


def test_every_case_is_pinned(pinned: dict) -> None:
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_layout_digest_unchanged(case: str, pinned: dict) -> None:
    got = digests(case)
    for component in COMPONENTS:
        assert got[component] == pinned[case][component], component
