"""Persistence: save/load run results.

``RunResult`` serialises to a single JSON document (curves, byte
accounting, per-round records) so experiment outputs can be archived
and re-plotted without re-running.  (A run's *state* — model included —
is :mod:`repro.fl.snapshot`'s.)
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fl.metrics import RoundRecord, RunResult

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "save_run_result",
    "load_run_result",
]

# Version 2 added per-round ``rejected_uploads`` (validation refusals);
# it is the only version read.
_FORMAT_VERSION = 2


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-serialisable representation of a run."""
    return {
        "format_version": _FORMAT_VERSION,
        "method": result.method,
        "num_clients": result.num_clients,
        "model_bytes": result.model_bytes,
        "records": [
            {
                "round_index": r.round_index,
                "sim_time_s": r.sim_time_s,
                "num_uploads": r.num_uploads,
                "bytes_up": r.bytes_up,
                "bytes_down": r.bytes_down,
                "participants": list(r.participants),
                "accuracy": r.accuracy,
                "loss": r.loss,
                "upload_sizes": [int(s) for s in r.upload_sizes],
                "dropped_uploads": r.dropped_uploads,
                "rejected_uploads": r.rejected_uploads,
            }
            for r in result.records
        ],
    }


def run_result_from_dict(payload: dict) -> RunResult:
    """Inverse of :func:`run_result_to_dict`."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported run-result format version {version!r}")
    result = RunResult(
        method=payload["method"],
        num_clients=payload["num_clients"],
        model_bytes=payload["model_bytes"],
    )
    for rec in payload["records"]:
        result.records.append(
            RoundRecord(
                round_index=rec["round_index"],
                sim_time_s=rec["sim_time_s"],
                num_uploads=rec["num_uploads"],
                bytes_up=rec["bytes_up"],
                bytes_down=rec["bytes_down"],
                participants=list(rec["participants"]),
                accuracy=rec["accuracy"],
                loss=rec["loss"],
                upload_sizes=list(rec["upload_sizes"]),
                dropped_uploads=rec["dropped_uploads"],
                rejected_uploads=rec["rejected_uploads"],
            )
        )
    return result


def save_run_result(result: RunResult, path: str | Path) -> Path:
    """Write a run result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_result_to_dict(result), indent=1))
    return path


def load_run_result(path: str | Path) -> RunResult:
    """Read a run result previously written by :func:`save_run_result`."""
    return run_result_from_dict(json.loads(Path(path).read_text()))
