"""Benchmark-harness plumbing: what ``bench_paper.py`` leaves behind.

Each artifact's text and claim rows are registered through the
``report`` fixture: the text is written to ``results/<name>.txt`` next
to this directory, and both are printed in the terminal summary (so
they survive pytest's output capture), ending in one claims table.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.reporting import format_table

_RESULTS_DIR = Path(__file__).parent / "results"
_ARTIFACTS: list[tuple[str, str]] = []
_CLAIM_ROWS: list[list[str]] = []


@pytest.fixture
def report():
    """Record one artifact's rendered text and its claim rows."""

    def _report(name: str, text: str, claim_rows: list[list[str]]) -> None:
        _ARTIFACTS.append((name, text))
        _CLAIM_ROWS.extend(claim_rows)
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ARTIFACTS:
        terminalreporter.section("reproduced paper artifacts")
        for name, text in _ARTIFACTS:
            terminalreporter.write_line(f"--- {name} " + "-" * max(0, 60 - len(name)))
            for line in text.splitlines():
                terminalreporter.write_line(line)
            terminalreporter.write_line("")
    if _CLAIM_ROWS:
        terminalreporter.section("paper claims")
        headers = ["artifact", "claim", "paper", "measured", "bound", "verdict"]
        for line in format_table(headers, _CLAIM_ROWS).splitlines():
            terminalreporter.write_line(line)
