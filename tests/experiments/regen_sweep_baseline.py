"""Regenerate the committed strategy-sweep artifact.

Usage::

    PYTHONPATH=src python -m tests.experiments.regen_sweep_baseline --check
    PYTHONPATH=src python -m tests.experiments.regen_sweep_baseline --only sweep

Reruns the exact configuration ``test_sweep.py`` pins
(:data:`~tests.experiments.test_sweep.BASELINE_CONFIG`).  The whole
artifact is one key, ``sweep``, of :func:`tests.pins.regen`: ``--check``
reports whether it moved, ``--only sweep`` rewrites
``data/sweep_baseline.json`` in :meth:`SweepResult.save`'s format.  Only
re-pin after an *intentional* trajectory change — the artifact is the
evidence behind the constrained-network resilience claim, not a cache.
"""

import json

from repro.experiments.sweep import run_sweep

from tests.experiments.test_sweep import BASELINE_CONFIG, BASELINE_PATH
from tests.pins import regen


def main(argv=None) -> int:
    return regen(
        BASELINE_PATH,
        {"sweep": lambda: run_sweep(BASELINE_CONFIG, progress=print).to_dict()},
        lambda pins: json.dumps(pins["sweep"], indent=2) + "\n",
        argv,
        load=lambda artifact: {"sweep": artifact},
    )


if __name__ == "__main__":
    raise SystemExit(main())
