"""Pinned CLI output: one sha-256 per command over stdout and written files.

Each case is a short script of ``repro --scale fast --seed 0 …``
invocations run inside an empty scratch directory (so the paths a
command echoes are the relative names given here); its digest covers
every line printed and the bytes of every ``--out`` / ``--trace`` file
it names.  Snapshots are pickles and are not digested — ``resume``'s
output is.

``python -m tests.cli_golden_cases --only CASE… [--check]`` rewrites
the named lines of ``cli_golden.json`` (see :mod:`tests.pins`).
The committed file was generated with ``PYTHONPATH=<parent>/src`` on the
commit *before* :mod:`repro.experiments.spec` existed, so
``test_cli_golden.py`` proves that moving every command onto
``RunSpec`` changed no printed character and no written byte.  Two
entries were re-pinned on purpose afterwards, each in the commit that
changed it: ``sweep_adafl`` (the sweep's ``adafl`` cell now runs the
evaluation's AdaFL configuration) and ``table1`` (SCAFFOLD's
compression ratio prints ``0.5x``, not ``0x``).  ``quickrun_sync_adafl``
and ``quickrun_async_adafl`` were re-pinned when DGC's momentum and
residual became float32.  ``quickrun_sync_fedavg``,
``quickrun_async_fedbuff``, ``quickrun_snapshot_resume`` and
``quickrun_tcp_fedavg`` were re-pinned when the server began folding
the float32 values a dense upload's frame carries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as repro_main
from tests.pins import regen

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"

_RUN_FILES = ("--out", "run.json", "--trace", "run.jsonl")

# name -> (commands, files to digest after the last one)
CASES: dict[str, tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]] = {
    "quickrun_sync_fedavg": (
        (("quickrun", "--method", "fedavg", *_RUN_FILES),), ("run.json", "run.jsonl"),
    ),
    "quickrun_sync_adafl": (
        (("quickrun", "--method", "adafl", *_RUN_FILES),), ("run.json", "run.jsonl"),
    ),
    "quickrun_async_fedbuff": (
        (("quickrun", "--engine", "async", "--method", "fedbuff", *_RUN_FILES),),
        ("run.json", "run.jsonl"),
    ),
    "quickrun_async_adafl": (
        (("quickrun", "--engine", "async", "--method", "adafl", *_RUN_FILES),),
        ("run.json", "run.jsonl"),
    ),
    "quickrun_tcp_fedavg": (
        (("quickrun", "--method", "fedavg", "--rounds", "2", "--transport", "tcp",
          "--workers", "2", *_RUN_FILES),),
        ("run.json", "run.jsonl"),
    ),
    "quickrun_snapshot_resume": (
        (
            ("quickrun", "--model", "mlp", "--method", "fedavg", "--rounds", "4",
             "--snapshot", "run.snap", "--out", "run.json"),
            ("resume", "--snapshot", "run.snap", "--out", "resumed.json",
             "--trace", "resumed.jsonl"),
        ),
        ("run.json", "resumed.json", "resumed.jsonl"),
    ),
    "sweep": ((("sweep", "--rounds", "2", "--out", "sweep.json"),), ("sweep.json",)),
    "sweep_adafl": (
        (("sweep", "--strategies", "fedavg", "adafl", "--rounds", "4",
          "--out", "sweep.json"),),
        ("sweep.json",),
    ),
    "chaos_sync": ((("chaos",),), ()),
    "chaos_async": ((("chaos", "--engine", "async"),), ()),
    "ablation": ((("ablation",),), ()),
    "overhead": ((("overhead",),), ()),
    "fig3": ((("fig3",),), ()),
}

# Minutes-scale figures and tables: run with REPRO_SLOW_TESTS=1.
SLOW_CASES = {
    name: (((name,),), ()) for name in ("fig1", "table1", "table2", "scalability")
}


def digest(case: tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]) -> str:
    """sha-256 over one case's stdout and the files it wrote."""
    commands, files = case
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for command in commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = repro_main(["--scale", "fast", "--seed", "0", *command])
            if code != 0:
                raise RuntimeError(f"repro {' '.join(command)} exited {code}")
            sha.update(stdout.getvalue().encode())
        for name in files:
            sha.update(b"\0" + name.encode() + b"\0")
            sha.update(Path(name).read_bytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    compute = {
        name: (lambda case=case: digest(case))
        for name, case in {**CASES, **SLOW_CASES}.items()
    }
    return regen(
        GOLDEN_PATH, compute, lambda pins: json.dumps(pins, indent=1) + "\n", argv
    )


if __name__ == "__main__":
    raise SystemExit(main())
