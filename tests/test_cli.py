import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcframe
from lcframe import catalog
from lcframe.classify import CSV_HEADER
from lcframe.cli import (
    CURVATURE_HEADER, _write_curvature_csv, _write_curvature_points, main, run_demo,
)
from lcframe.limits import boundedness_report

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


def test_trace_passes_tol_to_vertex_classification(tmp_path):
    # at --tol 10 every vertex classifies rank-two singular, off the
    # lightlike locus, so no vertex reports degeneracy
    args = ["trace", "sphere", "--grid", "16x16", "--out", str(tmp_path)]
    out = tmp_path / "sphere-trace-lambda_til.csv"
    assert main(args) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        assert {row["degenerate"] for row in csv.DictReader(fh)} == {"false"}
    assert main(args + ["--tol", "10"]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        assert {row["degenerate"] for row in csv.DictReader(fh)} == {""}


@pytest.mark.parametrize("args", [
    ["classify", "sphere", "--grid", "8x8", "--tol", "-1"],
    ["trace", "flat_plane", "--tol", "0"],
    ["classify", "sphere", "--grid", "8x8", "--tol", "nan"],
    ["trace", "flat_plane", "--tol", "nan"],
    ["classify", "sphere", "--grid", "8x8", "--tol", "inf"],
    ["trace", "sphere", "--tol", "inf"],
])
def test_non_positive_tol_is_an_error(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert "classification tolerance must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_refine_tol_must_be_positive_and_finite(tmp_path, capsys, value):
    args = ["trace", "sphere", "--refine-tol", value, "--out", str(tmp_path)]
    assert main(args) == 1
    assert "refinement tolerance must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", catalog.names())
def test_array_curvature_csv_matches_the_point_loop(name):
    s = catalog.load(name)
    arrays, points = io.StringIO(), io.StringIO()
    _write_curvature_csv(s, (65, 64), arrays)
    points.write(",".join(CURVATURE_HEADER) + "\n")
    _write_curvature_points(s, *s.domain.grid(65, 64), points)
    assert arrays.getvalue() == points.getvalue()


def test_array_curvature_csv_fails_as_the_point_loop_does(tmp_path, capsys):
    surf = tmp_path / "sqrt_u.surf"
    surf.write_text(json.dumps({
        "name": "sqrt_u",
        "X": ["u", "-sqrt(u)*sin(v)", "-sqrt(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["0", "1"], "v": ["0", "2*pi"]},
    }), encoding="utf-8")
    for grid in ("9x8", "65x64"):
        assert main(["curvature", str(surf), "--grid", grid, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: division by zero\n"


def test_small_runs_do_not_import_numpy(tmp_path):
    # the demo, a limits report and the imports stay on the point loop,
    # so a process that only runs them never pays for importing numpy
    code = (
        "import math, sys\n"
        "from pathlib import Path\n"
        "import lcframe, lcframe.cli\n"
        "from lcframe import catalog\n"
        "from lcframe.limits import boundedness_report\n"
        f"assert lcframe.cli.run_demo(Path({str(tmp_path)!r})) == 0\n"
        "boundedness_report(catalog.load('sphere'), math.pi / 2, 1.0)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(lcframe.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_curvature_has_no_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "mixed_bowl", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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


def test_negative_ray_count_is_an_error(capsys):
    assert main(["limits", "sphere", "--at=pi/2,1", "--directions", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: ray count must be nonnegative, got -3\n"
    assert captured.out == ""


def test_consecutive_calls_carry_no_options_over(tmp_path, capsys):
    # the parser is built once per process; every call starts from the defaults
    limits = ["limits", "sphere", "--at", "pi/2,1"]
    assert main(limits + ["--quantity", "K"]) == 0
    capsys.readouterr()
    assert main(limits) == 0
    full = capsys.readouterr().out
    assert full == boundedness_report(catalog.load("sphere"), math.pi / 2, 1.0).to_text()

    trace = ["trace", "sphere", "--grid", "16x16"]
    assert main(trace + ["--field", "c2", "--out", str(tmp_path / "c2")]) == 0
    assert main(trace + ["--out", str(tmp_path / "default")]) == 0
    assert [p.name for p in (tmp_path / "default").iterdir()] == [
        "sphere-trace-lambda_til.csv"]


def test_non_finite_component_is_an_error(tmp_path, capsys):
    surf = tmp_path / "huge.surf"
    surf.write_text(json.dumps({
        "name": "huge",
        "X": ["1e200*1e200*u", "cos(u)*sin(v)", "cos(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"],
        "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-pi/2", "pi/2"], "v": ["0", "2*pi"]},
    }), encoding="utf-8")
    assert main(["validate", str(surf), "--grid", "4x4"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
