"""Rule families — importing this package populates the registry.

Four families ship with the repo, each kept by the rule audit in
``docs/linting.md`` because tier-1 would not catch what it does:

* :mod:`repro.analysis.rules.determinism` — R1xx: no wall-clock reads;
* :mod:`repro.analysis.rules.layering` — R2xx: the package DAG and
  cycle freedom, reported even on a tree that cannot import;
* :mod:`repro.analysis.rules.taxonomy` — R3xx: the drop-reason
  taxonomy is closed and consumed consistently;
* :mod:`repro.analysis.rules.reach` — R5xx: every module and
  ``__all__`` name is reached from an entry point.
"""

from repro.analysis.rules import (
    determinism,
    layering,
    reach,
    taxonomy,
)

__all__ = [
    "determinism",
    "layering",
    "reach",
    "taxonomy",
]
