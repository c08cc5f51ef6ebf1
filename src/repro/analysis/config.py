"""Lint configuration: the repo's invariants, written down as data.

Every rule family reads its project-specific knowledge from
:class:`LintConfig` rather than hard-coding it, so the test suite can
lint synthetic fixture projects with a scaled-down configuration and
the shipped defaults stay in one reviewable place:

* which package layers may import which (:data:`ALLOWED_DEPS` — the
  DAG behind rule R201);
* where the trace taxonomy is declared and who must consume it
  (R302-R304);
* where work enters the program (R506).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "LintConfig",
    "ALLOWED_DEPS",
    "default_config",
    "default_src_root",
    "default_lint_paths",
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


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint pass (defaults describe this repo)."""

    # Root package the layering/taxonomy rules reason about.
    package: str = "repro"
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


def default_config() -> LintConfig:
    """The shipped configuration for linting this repository."""
    return LintConfig()


def default_src_root() -> Path:
    """The ``src/`` directory this installed ``repro`` package lives in."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def default_lint_paths() -> list[Path]:
    """The package: what ``scripts/check_lint.py`` checks by default."""
    return [default_src_root() / "repro"]
