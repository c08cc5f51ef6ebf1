"""R506 fixture: a module held as an object (lint as ``fixpkg.held``)."""

__all__ = ["probe"]


def probe() -> int:
    """Read as ``fixpkg.held.probe`` by the root."""
    return 1
