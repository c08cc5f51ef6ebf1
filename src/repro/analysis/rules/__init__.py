"""Rule families — importing this package populates the registry.

Eleven families ship with the repo:

* :mod:`repro.analysis.rules.determinism` — R1xx: no legacy global
  RNG or wall-clock reads outside the kernel's seeded streams;
* :mod:`repro.analysis.rules.layering` — R2xx: the package DAG and
  cycle freedom;
* :mod:`repro.analysis.rules.taxonomy` — R3xx: the event/drop-reason
  taxonomy is closed and consumed consistently;
* :mod:`repro.analysis.rules.hotpath` — R4xx: allocation and copy
  discipline in benchmark-pinned hot paths;
* :mod:`repro.analysis.rules.api` — R5xx: ``__all__`` consistency,
  docstrings, and annotation coverage of the public surface;
  :mod:`repro.analysis.rules.reach` adds R506, reachability of every
  module and export from the program's entry points;
* :mod:`repro.analysis.rules.wirebytes` — R6xx: byte accounting goes
  through the wire layer, not raw size formulas;
* :mod:`repro.analysis.rules.population` — R7xx: client lifecycle
  stays behind the population registry (no eager ``Client()``
  construction or full-population sweeps in engines/strategies);
* :mod:`repro.analysis.rules.transport` — R8xx: raw sockets and
  process spawning stay inside ``repro.transport``.

The flow-sensitive families run on the CFG/dataflow engine
(:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`):

* :mod:`repro.analysis.rules.rngflow` — R9xx: RNG-stream discipline
  (no shared stream storage, no draws under a rebound key, one
  consumer per stream);
* :mod:`repro.analysis.rules.dtypeflow` — R10xx: dtype/promotion
  hygiene on hot paths (no silent float32→float64, no dtype=object
  escapes, no int×float ufunc copies);
* :mod:`repro.analysis.rules.lifecycle` — R11xx: resources release
  exactly once on every path, exception edges included, and
  destructive takes from shared state commit before raising.
"""

from repro.analysis.rules import (
    api,
    determinism,
    dtypeflow,
    hotpath,
    layering,
    lifecycle,
    population,
    reach,
    rngflow,
    taxonomy,
    transport,
    wirebytes,
)

__all__ = [
    "api",
    "determinism",
    "dtypeflow",
    "hotpath",
    "layering",
    "lifecycle",
    "population",
    "reach",
    "rngflow",
    "taxonomy",
    "transport",
    "wirebytes",
]
