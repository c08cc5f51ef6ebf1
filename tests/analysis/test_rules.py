"""Paired offending/clean fixture tests for every reprolint rule family."""

import pytest

from tests.analysis.helpers import lint_fixture, rule_ids

pytestmark = pytest.mark.lint


class TestR1Determinism:
    def test_offending(self):
        result = lint_fixture(
            [("r1_offending.py", "repro.sim.fixture_rng")], select=["R1"]
        )
        assert rule_ids(result) == ["R103", "R103"]

    def test_clean(self):
        result = lint_fixture(
            [("r1_clean.py", "repro.sim.fixture_rng")], select=["R1"]
        )
        assert rule_ids(result) == []


class TestR2Layering:
    def test_substrate_importing_fl_offends(self):
        result = lint_fixture(
            [("r2_layering_offending.py", "repro.nn.fixture_bad")], select=["R201"]
        )
        assert rule_ids(result) == ["R201"]
        assert "must not import" in result.violations[0].message

    def test_fl_importing_substrate_is_clean(self):
        result = lint_fixture(
            [("r2_layering_clean.py", "repro.fl.fixture_ok")], select=["R201"]
        )
        assert rule_ids(result) == []

    def test_cycle_detected_once_with_real_path(self):
        result = lint_fixture(
            [
                ("r2_cycle_a.py", "repro.sim.fixture_cycle_a"),
                ("r2_cycle_b.py", "repro.sim.fixture_cycle_b"),
            ],
            select=["R202"],
        )
        assert rule_ids(result) == ["R202"]
        message = result.violations[0].message
        assert "repro.sim.fixture_cycle_a" in message
        assert "repro.sim.fixture_cycle_b" in message


class TestR3Taxonomy:
    def test_broken_partition(self):
        result = lint_fixture(
            [("r3_taxonomy_broken.py", "fix.trace")],
            select=["R303"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == ["R303"] * 4
        blob = " | ".join(v.message for v in result.violations)
        assert "duplicates" in blob
        assert "overlap" in blob
        assert "ghost" in blob  # in no bucket
        assert "phantom" in blob  # bucket member not declared

    def test_offending_emits(self):
        result = lint_fixture(
            [
                ("r3_taxonomy.py", "fix.trace"),
                ("r3_emit_offending.py", "fix.engine"),
            ],
            select=["R302"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == ["R302"]

    def test_clean_emits(self):
        result = lint_fixture(
            [
                ("r3_taxonomy.py", "fix.trace"),
                ("r3_emit_clean.py", "fix.engine"),
            ],
            select=["R3"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == []

    def test_consumer_must_reference_the_bucket_it_dispatches_on(self):
        result = lint_fixture(
            [
                ("r3_taxonomy.py", "fix.trace"),
                ("r3_emit_clean.py", "fix.engine"),
            ],
            select=["R304"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={"fix.engine": ("COUNTED_DROP_REASONS",)},
        )
        assert rule_ids(result) == ["R304"]
        assert "COUNTED_DROP_REASONS" in result.violations[0].message

    def test_rules_skip_when_taxonomy_not_in_scope(self):
        # Partial lint runs (single file) must not crash or fire R3.
        result = lint_fixture(
            [("r3_emit_offending.py", "fix.engine")],
            select=["R3"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == []


class TestR506Reachability:
    PACKAGE = dict(package="fixpkg", reach_roots=("fixpkg.main",))

    def _lint(self, lib: str, *extra: tuple[str, str], **config):
        return lint_fixture(
            [
                ("r506_root.py", "fixpkg.main"),
                ("r506_init.py", "fixpkg"),
                ("r506_held.py", "fixpkg.held"),
                (lib, "fixpkg.lib"),
                *extra,
            ],
            select=["R506"],
            **{**self.PACKAGE, **config},
        )

    def test_offending_name_and_orphan_module(self):
        result = self._lint("r506_offending.py", ("r5_clean.py", "fixpkg.orphan"))
        found = sorted((v.path, v.message.split("'")[1]) for v in result.violations)
        assert found == [("r506_offending.py", "dead_fn"), ("r5_clean.py", "fixpkg.orphan")]
        # kept_fn is as unreached as dead_fn; its reason keeps it.
        assert result.pragma_suppressed == 1
        # Anchored where the reason would go: on the definition.
        assert result.violations[0].snippet.startswith("def dead_fn")

    def test_clean(self):
        assert rule_ids(self._lint("r506_clean.py")) == []

    def test_package_reexport_reaches_nothing_by_itself(self):
        # Nothing imports the package: its __init__ lists lib's names,
        # yet lib stays unreached.
        result = lint_fixture(
            [
                ("r506_held.py", "fixpkg.main"),
                ("r506_init.py", "fixpkg"),
                ("r506_clean.py", "fixpkg.lib"),
            ],
            select=["R506"],
            **self.PACKAGE,
        )
        assert [v.message.split("'")[1] for v in result.violations] == ["fixpkg.lib"]

    def test_silent_without_an_entry_point_in_the_project(self):
        assert rule_ids(self._lint("r506_offending.py", reach_roots=("fixpkg.cli",))) == []
