"""The paper-artifact registry, its claims and EXPERIMENTS.md agree.

``benchmarks/bench_paper.py`` regenerates each paper artifact and
checks its claim rows; that takes minutes to hours, so tier-1 does not
run it.  These checks run nothing: they keep the registry, the claim
rows, the CLI's study table and the document's ``MEASURED`` markers
naming the same artifacts, and hold ``scripts/fill_experiments.py`` to
failing closed on a marker nothing produces.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import STUDIES

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module  # fill_experiments imports bench_paper by name
    spec.loader.exec_module(module)
    return module


bench = _load(ROOT / "benchmarks" / "bench_paper.py")
fill = _load(ROOT / "scripts" / "fill_experiments.py")


def test_each_registered_artifact_has_one_marker_in_experiments_md():
    markers = fill._BLOCK.findall((ROOT / "EXPERIMENTS.md").read_text())
    assert sorted(markers) == sorted(bench.ARTIFACTS)


def test_every_claim_names_a_registered_artifact_and_a_known_op():
    for claim in bench.CLAIMS:
        assert claim.artifact in bench.ARTIFACTS, claim.label
        assert claim.op in bench.OPS, claim.label
        assert (claim.op == "in") == isinstance(claim.bound, tuple), claim.label
    assert {c.artifact for c in bench.CLAIMS} == set(bench.ARTIFACTS)


def test_cli_backed_artifacts_are_the_cli_studies():
    backed = {name for name, study in bench.ARTIFACTS.items() if study is STUDIES.get(name)}
    assert backed == set(STUDIES)


def _doc(tmp_path: Path, *markers: str) -> Path:
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("".join(f"## {m}\n\n<!-- MEASURED:{m} -->\n\n" for m in markers))
    return doc


def test_fill_rejects_an_unknown_marker_and_writes_nothing(tmp_path, capsys):
    doc = _doc(tmp_path, "table1", "fig1sync")
    before = doc.read_text()
    (tmp_path / "table1.txt").write_text("Table I\n")
    assert fill.main(doc, tmp_path) == 2
    assert "fig1sync" in capsys.readouterr().err
    assert doc.read_text() == before


@pytest.mark.parametrize("measured, status", [(("table1", "fig3"), 0), (("table1",), 1)])
def test_fill_splices_each_result_and_reports_gaps(tmp_path, measured, status):
    doc = _doc(tmp_path, "table1", "fig3")
    for name in measured:
        (tmp_path / f"{name}.txt").write_text(f"{name} measured\n")
    assert fill.main(doc, tmp_path) == status
    text = doc.read_text()
    assert "<!-- MEASURED:table1 -->\n```text\ntable1 measured\n```" in text
    assert ("fig3 measured" in text) == (status == 0)
    assert fill.main(doc, tmp_path) == status  # a filled block is refilled in place
    assert doc.read_text() == text
