import csv

import pytest

from lcframe.classify import CSV_HEADER
from lcframe.cli import CURVATURE_HEADER, main, run_demo

TRACE_HEADER = ["field", "polyline", "vertex", "u", "v", "residual",
                "degenerate", "closed"]
SAMPLES_HEADER = ["direction", "quantity", "k", "distance", "value"]


def _header(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.reader(fh))


def test_demo_matches_goldens(tmp_path):
    assert run_demo(tmp_path) == 0


def test_validate(capsys):
    assert main(["validate", "mixed_bowl", "--grid", "8x8"]) == 0
    assert "admitted: true" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command, header", [
    ("classify", list(CSV_HEADER)),
    ("curvature", list(CURVATURE_HEADER)),
])
def test_grid_commands(tmp_path, command, header):
    assert main([command, "mixed_bowl", "--grid", "9x8", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"mixed_bowl-{command}.csv"]
    assert _header(tmp_path / f"mixed_bowl-{command}.csv") == header


@pytest.mark.parametrize("surface, field", [
    ("sphere", "lambda_til"),
    ("timelike_trough", "c2"),
])
def test_trace(tmp_path, capsys, surface, field):
    assert main(["trace", surface, "--field", field, "--grid", "16x16",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / f"{surface}-trace-{field}.csv"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    assert _header(out) == TRACE_HEADER
    assert "(0 polylines)" not in capsys.readouterr().out


def test_limits_report(tmp_path, capsys):
    assert main(["limits", "mixed_bowl", "--at", "1,1", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mixed_bowl-limits-samples.csv", "mixed_bowl-limits.txt"]
    assert _header(tmp_path / "mixed_bowl-limits-samples.csv") == SAMPLES_HEADER
    text = (tmp_path / "mixed_bowl-limits.txt").read_text(encoding="utf-8")
    assert text.startswith("target: 1, 1\ncategory: lightlike\n")
    assert text in capsys.readouterr().out


def test_limits_single_quantity(capsys):
    assert main(["limits", "sphere", "--at", "pi/2,1", "--quantity", "K"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "transversal-: K: nonzero value=1" in lines
