"""Tier-1 gate: the repository itself passes reprolint with an empty baseline."""

import json

import pytest

from repro.analysis import (
    default_baseline_path,
    default_lint_paths,
    default_src_root,
    exit_code,
    load_baseline,
    run_lint,
)
from repro.cli import main

pytestmark = pytest.mark.lint


def test_repo_is_lint_clean():
    result = run_lint(
        default_lint_paths(),
        src_root=default_src_root(),
        baseline_path=default_baseline_path(),
    )
    rendered = "\n".join(v.render() for v in result.violations)
    assert result.clean, f"reprolint violations:\n{rendered}"
    assert not result.stale_baseline
    assert exit_code(result) == 0


def test_shipped_baseline_is_empty():
    # The calibrated rules' findings were fixed, not grandfathered.
    assert load_baseline(default_baseline_path()) == []


def test_cli_lint_is_clean(capsys):
    assert main(["lint"]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_cli_lint_json_reports_coverage(capsys):
    assert main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    coverage = payload["metrics"]["annotation_coverage"]
    # The strict packages hold their public surfaces at 100%.
    assert coverage["packages"]["sim"]["coverage"] == 1.0
    assert coverage["total"]["coverage"] > 0.9


def test_cli_lint_select_single_family(capsys):
    assert main(["lint", "--select", "R2"]) == 0
    out = capsys.readouterr().out
    assert "2 rules" in out


def test_cli_lint_select_flow_families(capsys):
    assert main(["lint", "--select", "R9,R10,R11"]) == 0
    out = capsys.readouterr().out
    assert "9 rules" in out
    assert "lint: clean" in out


def test_cli_lint_sarif_is_clean(capsys):
    assert main(["lint", "--format", "sarif", "--select", "R9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"] == []


def test_cli_lint_diff_head_is_clean(capsys):
    # Whatever the working tree touched since HEAD must still be clean.
    assert main(["lint", "--diff", "HEAD"]) == 0
    assert "lint: clean" in capsys.readouterr().out
