"""Rule families — importing this package populates the registry.

Five families ship with the repo, each kept by the rule audit in
``docs/linting.md`` because tier-1 would not catch what it does:

* :mod:`repro.analysis.rules.determinism` — R1xx: no wall-clock reads;
* :mod:`repro.analysis.rules.layering` — R2xx: the package DAG and
  cycle freedom, reported even on a tree that cannot import;
* :mod:`repro.analysis.rules.taxonomy` — R3xx: the drop-reason
  taxonomy is closed and consumed consistently;
* :mod:`repro.analysis.rules.reach` — R5xx: every module and
  ``__all__`` name is reached from an entry point;
* :mod:`repro.analysis.rules.lifecycle` — R11xx: resources release
  exactly once on every CFG path, exception edges included, and
  destructive takes from shared state commit before raising (built on
  :mod:`repro.analysis.cfg` and :mod:`repro.analysis.dataflow`).
"""

from repro.analysis.rules import (
    determinism,
    layering,
    lifecycle,
    reach,
    taxonomy,
)

__all__ = [
    "determinism",
    "layering",
    "lifecycle",
    "reach",
    "taxonomy",
]
