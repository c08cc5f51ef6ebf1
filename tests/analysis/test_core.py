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
from repro.analysis.core import is_allowed
from repro.analysis.runner import EXIT_CLEAN

from tests.analysis.helpers import lint_fixture

pytestmark = pytest.mark.lint


class TestPragmas:
    def test_same_line(self):
        pragmas = parse_pragmas(["x = 1  # reprolint: allow[R401] why"])
        assert is_allowed(pragmas, 1, "R401")
        assert not is_allowed(pragmas, 1, "R402")

    def test_comment_line_covers_next_line(self):
        lines = ["# reprolint: allow[R403] intentional", "buf[idx] = vals"]
        pragmas = parse_pragmas(lines)
        assert is_allowed(pragmas, 2, "R403")

    def test_family_and_wildcard(self):
        pragmas = parse_pragmas(["y = 2  # reprolint: allow[R4, R101]"])
        assert is_allowed(pragmas, 1, "R403")  # family prefix
        assert is_allowed(pragmas, 1, "R101")  # exact id
        assert not is_allowed(pragmas, 1, "R202")
        wild = parse_pragmas(["z = 3  # reprolint: allow[*]"])
        assert is_allowed(wild, 1, "R999")


class TestRegistry:
    def test_all_families_registered(self):
        families = {rule_id[:-2] for rule_id in RULE_REGISTRY}
        assert families == {
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11"
        }
        assert len(RULE_REGISTRY) == 31

    def test_select_by_family_and_id(self):
        assert {r.id for r in iter_rules(["R2"])} == {"R201", "R202"}
        assert {r.id for r in iter_rules(["R10"])} == {"R1001", "R1002", "R1003"}
        assert [r.id for r in iter_rules(["R403"])] == ["R403"]
        with pytest.raises(ValueError):
            list(iter_rules(["R99"]))

    def test_rules_carry_summaries(self):
        for rule in iter_rules(None):
            assert rule.summary
            assert rule.scope in ("file", "project")


class TestReporters:
    def test_render_text_and_json(self):
        result = lint_fixture(
            [("r4_offending.py", "fix.hot")],
            select=["R4"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        text = render_text(result)
        assert "lint: FAILED" in text
        assert "r4_offending.py" in text
        payload = json.loads(render_json(result))
        assert payload["schema"] == 1
        assert payload["clean"] is False
        assert len(payload["violations"]) == 4
        assert "annotation_coverage" in payload["metrics"]

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
