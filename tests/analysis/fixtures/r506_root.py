"""R506 fixture: the entry point (lint as ``fixpkg.main``)."""

import fixpkg.held
from fixpkg import used_fn

__all__ = ["main"]


def main() -> int:
    """Reach ``lib.used_fn`` through the package and ``held.probe`` as an attribute."""
    return used_fn() + fixpkg.held.probe()
