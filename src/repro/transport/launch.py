"""Worker-process launching: the only sanctioned ``subprocess`` call site.

Spawning is deliberately boring — ``python -m repro.transport.worker``
with the repo's ``src`` on ``PYTHONPATH`` — and centralised here, the
one module that imports ``subprocess``.  Workers
are *separate OS processes* (their own interpreters, their own memory,
their own GIL), which is both the point of the exercise (real
multi-core local training, real kill -9 crash testing) and the reason
every byte between them and the server must cross a real socket.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

__all__ = ["spawn_worker", "terminate_workers"]


def _src_root() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def spawn_worker(
    address: str,
    index: int,
    idle_exit_s: float = 600.0,
    env: dict[str, str] | None = None,
) -> subprocess.Popen:
    """Start one worker process dialing ``address`` for slot ``index``."""
    child_env = dict(os.environ if env is None else env)
    src = _src_root()
    existing = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    # ``-c`` instead of ``-m``: the package __init__ imports the worker
    # module, and runpy warns when re-executing an already-imported
    # module as __main__.
    entry = "import sys; from repro.transport.worker import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            entry,
            "--connect",
            address,
            "--index",
            str(index),
            "--idle-exit-s",
            str(idle_exit_s),
        ],
        env=child_env,
    )


def terminate_workers(
    procs: list[subprocess.Popen], timeout_s: float = 5.0
) -> None:
    """Best-effort teardown: terminate, then kill whatever lingers."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
