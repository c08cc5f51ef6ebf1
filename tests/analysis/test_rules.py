"""Paired offending/clean fixture tests for every reprolint rule family."""

import pytest

from tests.analysis.helpers import lint_fixture, rule_ids

pytestmark = pytest.mark.lint


class TestR1Determinism:
    def test_offending(self):
        result = lint_fixture(
            [("r1_offending.py", "repro.sim.fixture_rng")], select=["R1"]
        )
        assert rule_ids(result) == ["R101", "R102", "R103", "R103"]

    def test_clean(self):
        result = lint_fixture(
            [("r1_clean.py", "repro.sim.fixture_rng")], select=["R1"]
        )
        assert rule_ids(result) == []

    def test_allowlisted_module_is_exempt(self):
        result = lint_fixture(
            [("r1_offending.py", "repro.sim.fixture_rng")],
            select=["R1"],
            rng_allowed_modules=frozenset({"fixture_rng"}),
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
            select=["R301", "R302"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == ["R301", "R301", "R302"]

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

    def test_rules_skip_when_taxonomy_not_in_scope(self):
        # Partial lint runs (single file) must not crash or fire R3.
        result = lint_fixture(
            [("r3_emit_offending.py", "fix.engine")],
            select=["R3"],
            taxonomy_module="fix.trace",
            taxonomy_consumers={},
        )
        assert rule_ids(result) == []


class TestR4Hotpath:
    def test_offending(self):
        result = lint_fixture(
            [("r4_offending.py", "fix.hot")],
            select=["R4"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == ["R401", "R402", "R402", "R403"]

    def test_clean_including_pragma(self):
        result = lint_fixture(
            [("r4_clean.py", "fix.hot")],
            select=["R4"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []
        assert result.pragma_suppressed == 1

    def test_cold_module_is_exempt(self):
        result = lint_fixture(
            [("r4_offending.py", "fix.cold")],
            select=["R4"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []


class TestR5ApiSurface:
    def test_offending_all_and_docstring(self):
        result = lint_fixture(
            [("r5_offending.py", "fix.mod")], select=["R501", "R502", "R505"]
        )
        assert rule_ids(result) == ["R501", "R501", "R502", "R505"]

    def test_missing_all(self):
        result = lint_fixture([("r5_no_all.py", "fix.noall")], select=["R503"])
        assert rule_ids(result) == ["R503"]

    def test_all_exempt_module(self):
        result = lint_fixture(
            [("r5_no_all.py", "fix.noall")],
            select=["R503"],
            all_exempt_modules=frozenset({"fix.noall"}),
        )
        assert rule_ids(result) == []

    def test_strict_annotations_offending(self):
        result = lint_fixture(
            [("r5_annotations_offending.py", "fix.strict.mod")],
            select=["R504"],
            strict_annotation_prefixes=("fix.strict",),
        )
        assert rule_ids(result) == ["R504", "R504", "R504"]
        missing = " | ".join(v.message for v in result.violations)
        assert "a" in missing and "return" in missing

    def test_strict_annotations_only_in_strict_packages(self):
        result = lint_fixture(
            [("r5_annotations_offending.py", "fix.lax.mod")],
            select=["R504"],
            strict_annotation_prefixes=("fix.strict",),
        )
        assert rule_ids(result) == []

    def test_clean(self):
        result = lint_fixture(
            [("r5_clean.py", "fix.strict.clean")],
            select=["R5"],
            strict_annotation_prefixes=("fix.strict",),
        )
        assert rule_ids(result) == []

    def test_annotation_coverage_metric(self):
        full = lint_fixture(
            [("r5_clean.py", "fix.strict.clean")],
            select=["R5"],
            strict_annotation_prefixes=("fix.strict",),
        )
        coverage = full.metrics["annotation_coverage"]
        assert coverage["total"]["coverage"] == 1.0
        partial = lint_fixture(
            [("r5_annotations_offending.py", "fix.strict.mod")],
            select=["R5"],
            strict_annotation_prefixes=("fix.strict",),
        )
        assert partial.metrics["annotation_coverage"]["total"]["coverage"] < 1.0


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


class TestR6WireBytes:
    def test_offending(self):
        result = lint_fixture(
            [("r6_offending.py", "repro.fl.fixture_bytes")], select=["R6"]
        )
        assert rule_ids(result) == ["R601", "R601", "R601"]
        blob = " | ".join(v.message for v in result.violations)
        assert "dense_bytes" in blob
        assert "sparse_payload_bytes" in blob
        assert "quantized_bytes" in blob

    def test_clean(self):
        result = lint_fixture(
            [("r6_clean.py", "repro.fl.fixture_bytes")], select=["R6"]
        )
        assert rule_ids(result) == []

    def test_wire_layer_is_exempt(self):
        result = lint_fixture(
            [("r6_offending.py", "repro.wire.fixture_codec")], select=["R6"]
        )
        assert rule_ids(result) == []

    def test_compression_base_is_exempt(self):
        result = lint_fixture(
            [("r6_offending.py", "repro.compression.base")], select=["R6"]
        )
        assert rule_ids(result) == []


class TestR7Population:
    def test_offending(self):
        result = lint_fixture(
            [("r7_offending.py", "repro.fl.sync_engine")], select=["R7"]
        )
        assert rule_ids(result) == ["R701", "R702", "R702"]

    def test_clean(self):
        result = lint_fixture(
            [("r7_clean.py", "repro.fl.sync_engine")], select=["R7"]
        )
        assert rule_ids(result) == []

    def test_unrestricted_modules_are_exempt(self):
        # Experiment setup code may build clients eagerly.
        result = lint_fixture(
            [("r7_offending.py", "repro.experiments.scalability")], select=["R7"]
        )
        assert rule_ids(result) == []

    def test_registry_itself_is_exempt(self):
        result = lint_fixture(
            [("r7_offending.py", "repro.fl.population")],
            select=["R7"],
            population_restricted_modules=frozenset({"repro.fl.population"}),
        )
        assert rule_ids(result) == []

    def test_restricted_set_is_configurable(self):
        result = lint_fixture(
            [("r7_offending.py", "fix.myengine")],
            select=["R7"],
            population_restricted_modules=frozenset({"fix.myengine"}),
        )
        assert rule_ids(result) == ["R701", "R702", "R702"]


class TestR8Transport:
    def test_offending(self):
        result = lint_fixture(
            [("r8_offending.py", "repro.fl.sync_engine")], select=["R8"]
        )
        assert rule_ids(result) == ["R801", "R801", "R801"]
        blob = " | ".join(v.message for v in result.violations)
        assert "socket" in blob
        assert "subprocess" in blob
        assert "multiprocessing" in blob

    def test_clean(self):
        result = lint_fixture(
            [("r8_clean.py", "repro.experiments.socket_run")], select=["R8"]
        )
        assert rule_ids(result) == []

    def test_transport_layer_is_exempt(self):
        result = lint_fixture(
            [("r8_offending.py", "repro.transport.sockets")], select=["R8"]
        )
        assert rule_ids(result) == []

    def test_out_of_package_code_is_exempt(self):
        # The rule guards the shipped package, not tests or scripts.
        result = lint_fixture(
            [("r8_offending.py", "scripts.bench_hotpath")], select=["R8"]
        )
        assert rule_ids(result) == []

    def test_banned_set_is_configurable(self):
        result = lint_fixture(
            [("r8_offending.py", "repro.fl.sync_engine")],
            select=["R8"],
            raw_transport_modules=frozenset({"socket"}),
        )
        assert rule_ids(result) == ["R801"]


class TestR9RngStreams:
    def test_stored_stream_offending(self):
        result = lint_fixture([("r901_offending.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == ["R901", "R901"]

    def test_local_draw_clean(self):
        result = lint_fixture([("r901_clean.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == []

    def test_key_rebinding_offending(self):
        # The seeded-taint shape: one kernel.stream reused across two
        # client ids.
        result = lint_fixture([("r902_offending.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == ["R902"]
        assert "cid" in result.violations[0].message

    def test_fresh_stream_per_key_clean(self):
        result = lint_fixture([("r902_clean.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == []

    def test_draw_and_escape_offending(self):
        result = lint_fixture([("r903_offending.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == ["R903"]

    def test_pure_forwarder_clean(self):
        result = lint_fixture([("r903_clean.py", "fix.sim")], select=["R9"])
        assert rule_ids(result) == []

    def test_stream_factory_module_is_exempt(self):
        result = lint_fixture(
            [("r901_offending.py", "repro.sim.kernel")], select=["R9"]
        )
        assert rule_ids(result) == []


class TestR10DtypeFlow:
    def test_float_promotion_offending(self):
        # The acceptance shape: float64 creep in a hot-path function.
        result = lint_fixture(
            [("r1001_offending.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == ["R1001"]
        assert "float64" in result.violations[0].message

    def test_consistent_dtypes_clean(self):
        result = lint_fixture(
            [("r1001_clean.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []

    def test_object_escape_offending(self):
        result = lint_fixture(
            [("r1002_offending.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == ["R1002"]

    def test_numeric_boundary_clean(self):
        result = lint_fixture(
            [("r1002_clean.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []

    def test_mixed_int_float_offending(self):
        result = lint_fixture(
            [("r1003_offending.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == ["R1003"]

    def test_cast_before_mixing_clean(self):
        result = lint_fixture(
            [("r1003_clean.py", "fix.hot")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []

    def test_cold_module_is_exempt(self):
        result = lint_fixture(
            [("r1001_offending.py", "fix.cold")],
            select=["R10"],
            hotpath_modules=frozenset({"fix.hot"}),
        )
        assert rule_ids(result) == []


class TestR11Lifecycle:
    def test_leak_on_exception_path_offending(self):
        result = lint_fixture(
            [("r1101_offending.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == ["R1101"]
        assert "exception path" in result.violations[0].message

    def test_try_finally_clean(self):
        result = lint_fixture(
            [("r1101_clean.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == []

    def test_use_after_release_offending(self):
        result = lint_fixture(
            [("r1102_offending.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == ["R1102", "R1102"]

    def test_single_close_clean(self):
        result = lint_fixture(
            [("r1102_clean.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == []

    def test_lossy_take_offending(self):
        result = lint_fixture(
            [("r1103_offending.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == ["R1103"]

    def test_take_after_fallible_work_clean(self):
        result = lint_fixture(
            [("r1103_clean.py", "fix.res.pool")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == []

    def test_out_of_scope_module_is_exempt(self):
        result = lint_fixture(
            [("r1101_offending.py", "fix.other")],
            select=["R11"],
            lifecycle_module_prefixes=("fix.res",),
        )
        assert rule_ids(result) == []
