"""R3 offending taxonomy: duplicates, overlap, unhandled + undeclared."""

DROP_REASONS = ("lost", "lost", "late", "ghost")
COUNTED_DROP_REASONS = frozenset({"lost", "late"})
REJECTED_DROP_REASONS = frozenset({"late"})
UNCOUNTED_DROP_REASONS = frozenset({"phantom"})
