"""Tests for run-result persistence."""

import numpy as np
import pytest

from repro.fl.metrics import RoundRecord, RunResult
from repro.fl.persist import (
    load_run_result,
    run_result_from_dict,
    run_result_to_dict,
    save_run_result,
)


@pytest.fixture
def result():
    res = RunResult(method="adafl", num_clients=10, model_bytes=4000)
    res.records = [
        RoundRecord(
            round_index=0,
            sim_time_s=1.5,
            num_uploads=3,
            bytes_up=300,
            bytes_down=150,
            participants=[1, 4, 7],
            accuracy=0.45,
            loss=1.2,
            upload_sizes=[100, 100, 100],
            dropped_uploads=1,
        ),
        RoundRecord(
            round_index=1,
            sim_time_s=3.0,
            num_uploads=2,
            bytes_up=220,
            bytes_down=150,
            participants=[2, 3],
            upload_sizes=[110, 110],
        ),
    ]
    return res


class TestRunResultRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.method == result.method
        assert restored.total_uploads == result.total_uploads
        assert restored.total_bytes == result.total_bytes
        assert restored.final_accuracy == result.final_accuracy
        assert restored.records[0].participants == [1, 4, 7]
        assert restored.records[1].accuracy is None

    def test_file_roundtrip(self, result, tmp_path):
        path = save_run_result(result, tmp_path / "run.json")
        restored = load_run_result(path)
        assert run_result_to_dict(restored) == run_result_to_dict(result)

    def test_curves_survive(self, result, tmp_path):
        path = save_run_result(result, tmp_path / "run.json")
        restored = load_run_result(path)
        x0, y0 = result.accuracy_curve()
        x1, y1 = restored.accuracy_curve()
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(y0, y1)

    def test_bad_version_rejected(self, result):
        payload = run_result_to_dict(result)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            run_result_from_dict(payload)

    def test_creates_parent_dirs(self, result, tmp_path):
        path = save_run_result(result, tmp_path / "deep" / "nested" / "run.json")
        assert path.exists()


class TestFormatVersions:
    """v2 adds per-round rejected_uploads; v1 files must still load."""

    def test_writer_emits_version_2(self, result):
        payload = run_result_to_dict(result)
        assert payload["format_version"] == 2
        assert all("rejected_uploads" in rec for rec in payload["records"])

    def test_v2_roundtrip_preserves_rejections(self, result):
        result.records[0].rejected_uploads = 3
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.records[0].rejected_uploads == 3
        assert restored.total_rejected == 3

    def test_v1_document_loads_with_zero_rejections(self, result):
        payload = run_result_to_dict(result)
        payload["format_version"] = 1
        for rec in payload["records"]:
            del rec["rejected_uploads"]
        restored = run_result_from_dict(payload)
        assert all(r.rejected_uploads == 0 for r in restored.records)
        assert restored.total_uploads == result.total_uploads

    def test_v1_file_roundtrip(self, result, tmp_path):
        import json

        payload = run_result_to_dict(result)
        payload["format_version"] = 1
        for rec in payload["records"]:
            del rec["rejected_uploads"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        restored = load_run_result(path)
        assert restored.final_accuracy == result.final_accuracy
