"""What ``import repro.experiments.runner`` drags into a process.

Every benchmark workload, socket worker and CLI command pays this
import before any work starts.  numpy is the only runtime dependency:
scipy used to ride in for one ``ndimage.zoom`` call (+0.4 s, +30 MiB per
process), and the modules folded into ``repro.sim`` must not come back
through a convenience import either.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
import repro.experiments.runner
print(json.dumps(sorted(sys.modules)))
"""

_ABSENT = ("scipy", "repro.network.events", "repro.network.churn", "repro.fl.faults")


def test_runner_import_stays_numpy_only():
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "repro.sim.faults" in loaded and "numpy" in loaded
    for name in _ABSENT:
        leaked = sorted(m for m in loaded if m == name or m.startswith(name + "."))
        assert not leaked, f"{name} was imported: {leaked[:5]}"
