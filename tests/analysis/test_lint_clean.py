"""Tier-1 gate: the repository passes reprolint, and ``scripts/check_lint.py``
is wired to it.

The whole package is linted once per test run; the script's interface
(``paths``, ``--json``, ``--select``, ``--rules``, exit codes 0/1/2) is
exercised on single fixture files.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    Project,
    default_lint_paths,
    default_src_root,
    exit_code,
    lint_project,
    render_catalogue,
)
from tests.analysis.helpers import FIXTURES

pytestmark = pytest.mark.lint

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_lint.py"
CLEAN = str(FIXTURES / "r5_clean.py")
OFFENDING = str(FIXTURES / "r1_offending.py")


@pytest.fixture(scope="session")
def repo_project():
    return Project.load(default_lint_paths(), src_root=default_src_root())


@pytest.fixture(scope="session")
def repo_lint(repo_project):
    return lint_project(repo_project)


@pytest.fixture
def gate():
    spec = importlib.util.spec_from_file_location("check_lint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_repo_is_lint_clean(repo_lint):
    rendered = "\n".join(v.render() for v in repo_lint.violations)
    assert repo_lint.clean, f"reprolint violations:\n{rendered}"
    assert exit_code(repo_lint) == 0
    assert len(repo_lint.rules_run) == len(RULE_REGISTRY)


def test_shipped_config_names_only_modules_that_exist(repo_project):
    # A rule skips a configured module it cannot find (R304: a partial
    # run), so a rename would switch the check off without a word.
    config = repo_project.config
    modules = set(repo_project.by_module)
    named = [
        config.taxonomy_module,
        *config.taxonomy_consumers,
        *(f"{config.package}.{package}" for package in config.allowed_deps),
        *(root for root in config.reach_roots if "/" not in root and not root.endswith(".md")),
    ]
    missing = [
        name for name in named
        if name not in modules and not any(m.startswith(name + ".") for m in modules)
    ]
    assert missing == []
    globs = [root for root in config.reach_roots if root not in named]
    assert [g for g in globs if not any(repo_project.repo_root.glob(g))] == []


def test_cli_lint_is_clean(gate, capsys):
    assert gate([CLEAN]) == 0
    out = capsys.readouterr().out
    assert f"{len(RULE_REGISTRY)} rules" in out
    assert "lint: clean" in out


def test_cli_lint_json_report(gate, capsys):
    assert gate([OFFENDING, "--json", "--select", "R103"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["rules_run"] == ["R103"]
    assert {v["rule"] for v in payload["violations"]} == {"R103"}
    assert payload["metrics"]["violations_by_rule"] == {"R103": 2}


def test_cli_lint_select_single_family(gate, capsys):
    assert gate([CLEAN, "--select", "R2"]) == 0
    assert "2 rules" in capsys.readouterr().out


def test_cli_lint_rules_prints_the_catalogue(gate, capsys):
    assert gate(["--rules"]) == 0
    out = capsys.readouterr().out
    assert out == render_catalogue() + "\n"
    assert sum(line.startswith("  R") for line in out.splitlines()) == len(RULE_REGISTRY)


def test_cli_lint_failed_pass_exits_2(gate, capsys, tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert gate([str(broken)]) == 2
    assert "syntax error" in capsys.readouterr().err
    assert gate([CLEAN, "--select", "R99"]) == 2
    assert "unknown rule selector" in capsys.readouterr().err
    planted = tmp_path / "planted.py"
    planted.write_text("x = 1  # reprolint: allow[R999] no such rule\n")
    assert gate([str(planted)]) == 2
    assert "pragma names no rule or family: R999" in capsys.readouterr().err


def test_gate_imports_nothing_it_checks(tmp_path):
    # A full pass in a fresh interpreter, then its module table: the
    # gate must not need the checked code to import, or a layering
    # break / import cycle would kill it before R201/R202 could report.
    modules_out = tmp_path / "modules.json"
    probe = (
        "import json, runpy, sys\n"
        f"sys.argv = [{str(SCRIPT)!r}, {CLEAN!r}]\n"
        "try:\n"
        f"    runpy.run_path({str(SCRIPT)!r}, run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "report = json.dumps([status, sorted(sys.modules)])\n"
        f"open({str(modules_out)!r}, 'w').write(report)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(modules_out.read_text())
    assert status == 0
    assert "repro.analysis.rules" in modules  # the pass really ran
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]
    foreign = [
        m
        for m in modules
        if m.startswith("repro.") and not m.startswith("repro.analysis")
    ]
    assert foreign == []
