"""Lint configuration: the repo's invariants, written down as data.

Every rule family reads its project-specific knowledge from
:class:`LintConfig` rather than hard-coding it, so the test suite can
lint synthetic fixture projects with a scaled-down configuration and
the shipped defaults stay in one reviewable place:

* which package layers may import which (:data:`ALLOWED_DEPS` — the
  DAG behind rule R201);
* where the trace taxonomy is declared and who must consume it
  (R301-R304);
* which modules are benchmark-pinned hot paths (R4);
* which packages require complete public annotations (R504).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "LintConfig",
    "ALLOWED_DEPS",
    "HOTPATH_MODULES",
    "default_config",
    "default_src_root",
    "default_lint_paths",
    "default_baseline_path",
]

# ----------------------------------------------------------------------
# R2: the package DAG.  Key: second-level package under ``repro``;
# value: packages it may import.  ``blocks`` (the cache-blocked
# elementwise kernels), ``wire``, ``data`` and ``analysis`` are leaves;
# the substrate ``nn``/``compression``/``sim`` sits just above them;
# ``fl`` builds on the substrate;
# ``core`` (AdaFL) builds on ``fl``; ``experiments`` and the CLI sit on
# top.  Anything absent from a value set — in particular ``fl``,
# ``experiments``, and ``cli`` from any substrate package — is a
# layering violation.
# ----------------------------------------------------------------------
ALLOWED_DEPS: Mapping[str, frozenset[str]] = {
    "blocks": frozenset(),
    "nn": frozenset({"blocks"}),
    "wire": frozenset(),
    "compression": frozenset({"blocks", "wire"}),
    "sim": frozenset({"wire"}),
    "data": frozenset(),
    "analysis": frozenset(),
    "network": frozenset(),
    "embedded": frozenset({"nn"}),
    "transport": frozenset({"compression", "sim", "wire"}),
    "fl": frozenset(
        {
            "blocks",
            "compression",
            "data",
            "embedded",
            "network",
            "nn",
            "sim",
            "transport",
            "wire",
        }
    ),
    "core": frozenset(
        {"compression", "data", "fl", "network", "nn", "sim", "wire"}
    ),
    "experiments": frozenset(
        {
            "compression",
            "core",
            "data",
            "embedded",
            "fl",
            "network",
            "nn",
            "sim",
            "transport",
        }
    ),
    "cli": frozenset(
        {
            "analysis",
            "compression",
            "core",
            "data",
            "embedded",
            "experiments",
            "fl",
            "network",
            "nn",
            "sim",
            "transport",
            "wire",
        }
    ),
}

# ----------------------------------------------------------------------
# R4: modules on the flat-parameter / DGC / conv hot paths pinned by
# BENCH_hotpath.json (sections flat_roundtrip, local_train,
# dgc_roundtrip, conv_fwd_bwd).  Allocation and copy discipline is
# enforced only here — elsewhere clarity wins.
# ----------------------------------------------------------------------
HOTPATH_MODULES: frozenset[str] = frozenset(
    {
        "repro.blocks",
        "repro.nn.sequential",
        "repro.nn.subspace",
        "repro.nn.optim",
        "repro.nn.conv_utils",
        "repro.nn.layers",
        "repro.nn.batched",
        "repro.compression.dgc",
        "repro.compression.topk",
        "repro.fl.client",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint pass (defaults describe this repo)."""

    # Root package the layering/taxonomy rules reason about.
    package: str = "repro"
    # R1: module suffixes where legacy RNG / wall-clock calls are
    # legitimate (none in src today; tests inject their own).
    rng_allowed_modules: frozenset[str] = frozenset()
    # R2
    allowed_deps: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(ALLOWED_DEPS)
    )
    # R3: where the taxonomy lives and which consumers must reference
    # which of its names.
    taxonomy_module: str = "repro.sim.trace"
    taxonomy_consumers: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "repro.fl.metrics": (
                "COUNTED_DROP_REASONS",
                "REJECTED_DROP_REASONS",
            ),
            "repro.experiments.chaos": (
                "COUNTED_DROP_REASONS",
                "REJECTED_DROP_REASONS",
            ),
            "repro.sim.analysis": ("DROPPED",),
        }
    )
    # R4
    hotpath_modules: frozenset[str] = HOTPATH_MODULES
    # R5: packages whose *public* callables must be fully annotated.
    strict_annotation_prefixes: tuple[str, ...] = (
        "repro.sim",
        "repro.fl.config",
        "repro.nn.subspace",
        "repro.experiments.sweep",
    )
    # R6: the only modules that may call the analytic byte-size
    # formulas directly (the wire layer owns them; compression.base
    # reads ``dense_bytes`` for a payload's compression ratio).
    size_formula_modules: tuple[str, ...] = (
        "repro.wire",
        "repro.compression.base",
    )
    # Modules exempt from the module-level ``__all__`` requirement.
    all_exempt_modules: frozenset[str] = frozenset({"repro.__main__"})
    # R506: where work enters the program — entry-point modules, and
    # repo-relative globs of scripts and of docs whose fenced python
    # counts as a caller.  Tests are deliberately not roots.
    reach_roots: tuple[str, ...] = (
        "repro.cli",
        "repro.__main__",
        "repro.transport.worker",
        "benchmarks/**/*.py",
        "examples/**/*.py",
        "scripts/*.py",
        "README.md",
        "docs/*.md",
    )
    # R7: client lifecycle ownership.  Only the population registry may
    # construct Clients or sweep the full population; engine, strategy,
    # and selection modules go through the registry's cohort API.
    population_module: str = "repro.fl.population"
    population_restricted_modules: frozenset[str] = frozenset(
        {
            "repro.fl.engine",
            "repro.fl.sync_engine",
            "repro.fl.async_engine",
            "repro.fl.batched",
            "repro.fl.strategy",
            "repro.fl.baselines",
            "repro.fl.fedat",
            "repro.core.selection",
            "repro.core.adafl",
        }
    )
    # R8: the only package that may touch raw sockets or spawn
    # processes.  Everything else goes through its API, so the
    # frame/CRC/deadline discipline and worker teardown stay airtight.
    transport_package: str = "repro.transport"
    raw_transport_modules: frozenset[str] = frozenset(
        {"socket", "subprocess", "multiprocessing", "asyncio"}
    )
    # R9 (flow): methods whose return value is a seeded RNG stream.
    # The kernel module itself is exempt — it *owns* the per-key
    # generator cache, so storing/returning streams there is the point.
    stream_methods: frozenset[str] = frozenset({"stream", "client_rng"})
    stream_factory_modules: frozenset[str] = frozenset({"repro.sim.kernel"})
    # R11 (flow): where the resource-lifecycle rules run, and what
    # counts as acquiring/releasing a leakable resource.  Acquirers
    # match on the trailing dotted name of the call (``sockets.dial``
    # matches ``dial``); tuple acquirers bind the resource to the
    # first element of a tuple-unpack target (``sock, _ = accept()``).
    lifecycle_module_prefixes: tuple[str, ...] = (
        "repro.transport",
        "repro.fl.population",
    )
    resource_acquirers: frozenset[str] = frozenset(
        {"socket.socket", "open", "dial", "os.fdopen"}
    )
    resource_tuple_acquirers: frozenset[str] = frozenset(
        {"accept", "open_listener", "socketpair"}
    )
    resource_release_methods: frozenset[str] = frozenset({"close"})
    resource_release_funcs: frozenset[str] = frozenset(
        {"close_quietly", "_close_quietly"}
    )
    # R1103: destructive one-way takes from shared containers that
    # must be committed (re-stored) before any raise can escape.
    destructive_take_methods: frozenset[str] = frozenset({"discard"})

    def module_rng_allowed(self, module: str) -> bool:
        """Whether R1 is switched off for ``module``."""
        return any(
            module == m or module.endswith("." + m) for m in self.rng_allowed_modules
        )


def default_config() -> LintConfig:
    """The shipped configuration for linting this repository."""
    return LintConfig()


def default_src_root() -> Path:
    """The ``src/`` directory this installed ``repro`` package lives in."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def default_lint_paths() -> list[Path]:
    """What ``repro lint`` checks when no paths are given: the package."""
    return [default_src_root() / "repro"]


def default_baseline_path() -> Path:
    """Repo-root ``LINT_baseline.json`` next to ``BENCH_hotpath.json``."""
    return default_src_root().parent / "LINT_baseline.json"
