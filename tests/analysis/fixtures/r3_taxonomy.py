"""R3 fixture taxonomy (loaded as ``fix.trace``): a closed mini-vocabulary."""

DROP_REASONS = ("lost", "late", "offline")
COUNTED_DROP_REASONS = frozenset({"lost"})
REJECTED_DROP_REASONS = frozenset({"late"})
UNCOUNTED_DROP_REASONS = frozenset({"offline"})
