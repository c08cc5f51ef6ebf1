"""R506 fixture: a package ``__init__`` that re-exports (lint as ``fixpkg``)."""

from fixpkg.lib import dead_fn, kept_fn, used_fn

__all__ = ["dead_fn", "kept_fn", "used_fn"]
