"""What ``import repro.experiments.runner`` drags into a process.

Every benchmark workload, socket worker and CLI command pays this
import before any work starts.  numpy is the only runtime dependency:
scipy used to ride in for one ``ndimage.zoom`` call (+0.4 s, +30 MiB per
process), and the modules folded into ``repro.sim`` must not come back
through a convenience import either.  The ``repro.*`` set itself is
pinned: it is what the parent of the ``RunSpec`` commit loaded, plus
``repro.experiments.spec`` — which imports the runner, never the reverse
at module scope, and reaches ``socket_run`` only when a spec asks for
``tcp`` — so ``setup_s`` cannot grow through the spec layer unnoticed —
and ``repro.blocks``, the blocked kernels that moved out of
``repro.nn.optim`` so ``repro.compression`` can share them.
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

# package -> the submodules ``import repro.experiments.runner`` loads.
_LOADED = {
    "compression": "base dgc identity qsgd terngrad topk",
    "core": "adafl compression_policy diagnostics fairness selection utility zoo",
    "data": "dataset partition synthetic",
    "embedded": "cluster device energy profiler",
    "experiments": "ablation analysis comparison empirical energy_study overhead presets "
                   "report_html reporting runner scalability sensitivity spec sweep tables",
    "fl": "async_engine baselines batched client config engine fedat metrics persist "
          "population replica server snapshot strategy sync_engine validation",
    "network": "conditions link tracefile traces",
    "nn": "batched conv_utils initializers layers losses models optim sequential subspace",
    "sim": "analysis events faults kernel retry trace",
    "transport": "base chaos launch messages sockets worker",
    "wire": "codecs frame sizes",
}


def _loaded_by_runner_import() -> set[str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_runner_import_loads_the_pinned_repro_modules():
    loaded = {m for m in _loaded_by_runner_import() if m.split(".")[0] == "repro"}
    expected = {"repro", "repro.blocks"} | {f"repro.{package}" for package in _LOADED} | {
        f"repro.{package}.{module}"
        for package, modules in _LOADED.items()
        for module in modules.split()
    }
    assert sorted(loaded - expected) == [], "newly imported at module scope"
    assert sorted(expected - loaded) == [], "no longer imported: update the pin"


def test_runner_import_stays_numpy_only():
    loaded = _loaded_by_runner_import()
    assert "repro.sim.faults" in loaded and "numpy" in loaded
    for name in _ABSENT:
        leaked = sorted(m for m in loaded if m == name or m.startswith(name + "."))
        assert not leaked, f"{name} was imported: {leaked[:5]}"
