"""R506 offending fixture: one used, one dead, one kept with a reason
(lint as ``fixpkg.lib``; the ``__init__`` re-exports all three)."""

__all__ = ["used_fn", "dead_fn", "kept_fn", "Base"]


class Base:
    """Reached by the module's own code (``used_fn`` builds one)."""


def used_fn() -> int:
    """Imported by the root through the package."""
    return len([Base()])


def dead_fn() -> int:
    """Re-exported by the package, imported by nobody."""
    return 0


# reprolint: allow[R506] the oracle a test compares against
def kept_fn() -> int:
    """Unreached, kept with a written reason."""
    return 0
