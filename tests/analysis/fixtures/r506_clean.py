"""R506 clean fixture: everything exported is used (lint as ``fixpkg.lib``)."""

from fixpkg.held import probe

__all__ = ["used_fn", "dead_fn", "kept_fn"]


def used_fn() -> int:
    """Imported by the root through the package."""
    return dead_fn() + kept_fn() + probe()


def dead_fn() -> int:
    """Called by ``used_fn``."""
    return 0


def kept_fn() -> int:
    """Called by ``used_fn``."""
    return 0
