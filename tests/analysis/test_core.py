"""Framework mechanics: pragmas, registry, reporters, exit codes."""

import json

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    default_config,
    exit_code,
    iter_rules,
    parse_pragmas,
    render_catalogue,
    render_json,
    render_text,
)
from repro.analysis.core import is_allowed, unknown_pragma_ids
from repro.analysis.runner import EXIT_CLEAN

from tests.analysis.helpers import lint_fixture

pytestmark = pytest.mark.lint


class TestPragmas:
    def test_same_line(self):
        pragmas = parse_pragmas("x = 1  # reprolint: allow[R103] why\n")
        assert is_allowed(pragmas, 1, "R103")
        assert not is_allowed(pragmas, 1, "R506")

    def test_comment_line_covers_next_line(self):
        pragmas = parse_pragmas("# reprolint: allow[R506] intentional\ndef kept(): ...\n")
        assert is_allowed(pragmas, 2, "R506")

    def test_family_and_wildcard(self):
        pragmas = parse_pragmas("y = 2  # reprolint: allow[R5, R103]\n")
        assert is_allowed(pragmas, 1, "R506")  # family prefix
        assert is_allowed(pragmas, 1, "R103")  # exact id
        assert not is_allowed(pragmas, 1, "R202")
        wild = parse_pragmas("z = 3  # reprolint: allow[*]\n")
        assert is_allowed(wild, 1, "R999")

    def test_only_comments_carry_pragmas(self):
        source = (
            'def f():\n'
            '    """Allow one in place with ``# reprolint: allow[R103] why``."""\n'
            '    return "# reprolint: allow[R506]"\n'
        )
        assert parse_pragmas(source) == {}

    def test_unknown_ids_are_found(self):
        typo = parse_pragmas("x = 1  # reprolint: allow[R5O6]\n")
        assert unknown_pragma_ids(typo) == [(1, "R5O6")]
        known = parse_pragmas("x = 1  # reprolint: allow[R1, R506, *]\n")
        assert unknown_pragma_ids(known) == []


class TestRegistry:
    def test_all_families_registered(self):
        families = {rule_id[:-2] for rule_id in RULE_REGISTRY}
        assert families == {"R1", "R2", "R3", "R5"}
        assert len(RULE_REGISTRY) == 7

    def test_select_by_family_and_id(self):
        assert {r.id for r in iter_rules(["R2"])} == {"R201", "R202"}
        assert {r.id for r in iter_rules(["R3"])} == {"R302", "R303", "R304"}
        assert [r.id for r in iter_rules(["R506"])] == ["R506"]
        with pytest.raises(ValueError):
            list(iter_rules(["R99"]))

    def test_rules_carry_summaries(self):
        for rule in iter_rules(None):
            assert rule.summary
            assert rule.scope in ("file", "project")


class TestReporters:
    def test_render_text_and_json(self):
        result = lint_fixture([("r1_offending.py", "fix.clock")], select=["R1"])
        text = render_text(result)
        assert "lint: FAILED" in text
        assert "r1_offending.py" in text
        payload = json.loads(render_json(result))
        assert payload["schema"] == 1
        assert payload["clean"] is False
        assert len(payload["violations"]) == 2
        assert payload["metrics"]["violations_by_rule"] == {"R103": 2}

    def test_clean_report(self):
        result = lint_fixture([("r5_clean.py", "fix.ok")], select=["R5"])
        assert "lint: clean" in render_text(result)
        assert exit_code(result) == EXIT_CLEAN

    def test_catalogue_lists_every_rule(self):
        catalogue = render_catalogue()
        for rule_id in RULE_REGISTRY:
            assert rule_id in catalogue


class TestConfig:
    def test_default_config_is_frozen(self):
        config = default_config()
        with pytest.raises(Exception):
            config.package = "other"

    def test_dag_covers_every_package(self):
        config = default_config()
        for deps in config.allowed_deps.values():
            assert deps <= set(config.allowed_deps)
