import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcframe
from lcframe import catalog
from lcframe.classify import ARRAY_MIN_POINTS, CSV_HEADER, TRACEABLE_FIELDS, LocusPolyline, _fmt
from lcframe.cli import (
    CURVATURE_HEADER, _build_parser, _load_surface, _surface_from_text, _write_curvature_csv,
    _write_trace_csv, main, run_demo,
)
from lcframe.expr import MAX_NESTING, ExprSyntaxError
from lcframe.limits import QUANTITIES, boundedness_report
from lcframe.surface import SHAPES, SurfaceDef, SurfaceFormatError
from images import image
from oracles import first_difference

TRACE_HEADER = ["field", "polyline", "vertex", "u", "v", "residual",
                "degenerate", "closed"]
SAMPLES_HEADER = ["direction", "quantity", "k", "distance", "value"]


def _header(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.reader(fh))


def test_demo_matches_goldens(tmp_path):
    assert run_demo(tmp_path) == 0


def _subcommands():
    """{name: its argparse parser} of every lcframe subcommand."""
    action, = (a for a in _build_parser()._actions if a.choices and a.dest == "command")
    return action.choices


def test_every_argument_has_a_help_text():
    missing = [(name, a.dest) for name, p in _subcommands().items()
               for a in p._actions if not a.help]
    assert missing == []


def test_choices_come_from_the_library():
    choices = {(name, a.dest): a.choices for name, p in _subcommands().items()
               for a in p._actions if a.choices}
    assert choices == {("trace", "field"): TRACEABLE_FIELDS, ("limits", "quantity"): QUANTITIES}


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
def test_array_curvature_csv_matches_the_point_loop(name, evaluated_as):
    s = catalog.load(name)
    arrays, points = io.StringIO(), io.StringIO()
    _write_curvature_csv(s, (65, 64), arrays)
    with evaluated_as("points"):
        _write_curvature_csv(s, (65, 64), points)
    assert first_difference(arrays.getvalue(), points.getvalue()) is None


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


def test_a_name_too_long_for_the_file_system_is_an_error(tmp_path, capsys):
    data = json.loads(catalog.surface_text("sphere"))
    data["name"] = "n" * 300
    surf = tmp_path / "long.surf"
    surf.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["classify", str(surf), "--grid", "5x4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File name too long" in err, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["classify", "sphere", "--grid", "5x4"],
    ["curvature", "sphere", "--grid", "5x4"],
    ["trace", "sphere", "--grid", "8x8"],
    ["limits", "sphere", "--at", "pi/2,1"],
    ["demo"],
], ids=lambda args: args[0])
def test_an_out_that_is_a_file_is_an_error(tmp_path, capsys, args):
    out = tmp_path / "taken"
    out.write_text("kept", encoding="utf-8")
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err, err
    assert out.read_text(encoding="utf-8") == "kept"


def test_small_runs_do_not_import_numpy(tmp_path):
    # the demo, a limits report, validate, grids below ARRAY_MIN_POINTS
    # and the imports stay on the point loop, so a process that only runs
    # them never pays for importing numpy
    grid = "63x64"
    assert 63 * 64 < ARRAY_MIN_POINTS
    code = (
        "import math, sys\n"
        "from pathlib import Path\n"
        "import lcframe, lcframe.cli\n"
        "from lcframe import catalog\n"
        "from lcframe.limits import boundedness_report\n"
        f"out = Path({str(tmp_path)!r})\n"
        "assert lcframe.cli.run_demo(out / 'demo') == 0\n"
        "boundedness_report(catalog.load('sphere'), math.pi / 2, 1.0)\n"
        "for args in (['validate', 'mixed_bowl'],\n"
        f"             ['classify', 'mixed_bowl', '--grid', {grid!r}, '--out', str(out)],\n"
        f"             ['curvature', 'mixed_bowl', '--grid', {grid!r}, '--out', str(out)]):\n"
        "    assert lcframe.cli.main(args) == 0, args\n"
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
    # one line per ray: the 8 of the fan and the two transversal rays
    rays = [f"fan{i}" for i in range(8)] + ["transversal+", "transversal-"]
    assert [line.split(":")[0] for line in lines] == rays
    assert main(["limits", "sphere", "--at", "pi/2,1", "--quantity", "K",
                 "--directions", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == rays[:3] + rays[-2:]


def test_limits_quantity_the_target_has_not_is_an_error(tmp_path, capsys):
    # c2*K is estimated at lightlike targets only; at this rank-one
    # singular point the six completed rays were left out without a word
    out = tmp_path / "out"
    assert main(["limits", "flat_plane", "--at", "0,0", "--quantity", "c2K",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: c2K is not estimated at a singular1 target; "
                            "a report there estimates K, H\n")
    assert captured.out == ""
    assert not out.exists()


def test_limits_without_a_completed_ray_reads_unknown(tmp_path, capsys):
    # a patch at the sphere pole so narrow that every ray fails
    surf = tmp_path / "pole_patch.surf"
    surf.write_text(json.dumps({
        "name": "pole_patch",
        "X": ["sin(u)", "cos(u)*sin(v)", "cos(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"],
        "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["pi/2 - 0.05", "pi/2"], "v": ["0.9", "1.1"]},
    }), encoding="utf-8")
    assert main(["limits", str(surf), "--at", "pi/2,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rays = [line for line in lines if line.startswith("direction ")]
    assert len(rays) == 10 and all(": error: " in line for line in rays)
    assert lines[-5:] == [
        "K bounded (evidence): unknown",
        "H bounded (evidence): unknown",
        "K dichotomy: unknown",
        "H dichotomy: unknown",
        "bounded H implies bounded K: unknown",
    ]


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


def test_non_finite_component_is_an_error(tmp_path, capsys, builds):
    surf = tmp_path / "huge.surf"
    surf.write_text(json.dumps({
        "name": "huge",
        "X": ["1e200*1e200*u", "cos(u)*sin(v)", "cos(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"],
        "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-pi/2", "pi/2"], "v": ["0", "2*pi"]},
    }), encoding="utf-8")
    errors = []
    for _ in range(2):  # the second call fails on the surface the first built
        assert main(["validate", str(surf), "--grid", "4x4"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[1] == errors[0]
    assert builds == ["huge"]


# ---------------------------------------------------------------------------
# Built surfaces shared across calls of main, keyed by their .surf text


@pytest.fixture
def builds(monkeypatch):
    """Starts from an empty surface cache and lists the name of every
    SurfaceDef built (or attempted) while the test runs."""
    _surface_from_text.cache_clear()
    names = []
    init = SurfaceDef.__init__

    def counted(self, name, *args, **kwargs):
        names.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(SurfaceDef, "__init__", counted)
    yield names
    _surface_from_text.cache_clear()


def test_repeated_calls_build_each_text_once(tmp_path, capsys, builds):
    # a catalog name and a file holding its text share one surface
    copy = tmp_path / "copy.surf"
    copy.write_text(catalog.surface_text("sphere"), encoding="utf-8")
    for spec in ("sphere", str(copy), "sphere"):
        assert main(["validate", spec, "--grid", "4x4"]) == 0
    assert main(["limits", "sphere", "--at=pi/2,1", "--quantity", "K"]) == 0
    assert builds == ["sphere"]


def test_a_rewritten_file_is_built_again(tmp_path, capsys, builds):
    surf = tmp_path / "surface.surf"
    for name in ("sphere", "mixed_bowl", "sphere"):
        surf.write_text(catalog.surface_text(name), encoding="utf-8")
        assert main(["validate", str(surf), "--grid", "4x4"]) == 0
        assert f"surface: {name}" in capsys.readouterr().out.splitlines()
    assert builds == ["sphere", "mixed_bowl"]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read surface file "),
    ('{"name": "cut", ', "is not valid JSON: "),
], ids=["missing", "not-json"])
def test_unreadable_files_keep_the_loader_errors(tmp_path, capsys, builds,
                                                content, message):
    surf = tmp_path / "surface.surf"
    if content is not None:
        surf.write_text(content, encoding="utf-8")
    with pytest.raises(SurfaceFormatError) as exc:
        SurfaceDef.from_file(str(surf))
    assert message in str(exc.value)
    for _ in range(2):
        assert main(["validate", str(surf)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert builds == []


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (b"[1,2]", "a surface must be a JSON object, got list"),
    (b'"sphere"', "a surface must be a JSON object, got str"),
    # int() converts at most 4300 digits (since Python 3.10.7 and 3.11);
    # json.loads raised that ValueError inside the CLI's build
    (b'{"name": ' + b"7" * 5000 + b"}",
     "exceeds a limit of the JSON decoder: Exceeds the limit (4300"),
    (b"[" * 100000, "exceeds a limit of the JSON decoder: maximum recursion depth exceeded"),
], ids=["not-utf-8", "list", "string", "long-integer", "deep-json"])
def test_malformed_files_are_format_errors(tmp_path, capsys, builds, content, message):
    # each ended in a traceback
    surf = tmp_path / "surface.surf"
    surf.write_bytes(content)
    with pytest.raises(SurfaceFormatError) as exc:
        SurfaceDef.from_file(str(surf))
    assert message in str(exc.value)
    assert main(["validate", str(surf)]) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)

SPHERE = json.loads(catalog.surface_text("sphere"))

#: the sphere with one key's value replaced, or given three arbitrary
#: components
NEAR_SURFACES = st.one_of(
    st.builds(lambda key, value: dict(SPHERE, **{key: value}),
              st.sampled_from(sorted(SPHERE)), JSON_VALUES),
    st.builds(lambda key, value: dict(SPHERE, **{key: value}),
              st.sampled_from(["X", "v", "w"]),
              st.lists(JSON_VALUES | st.sampled_from(["u", "1/0", "sqrt(-u)"]),
                       min_size=3, max_size=3)),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(lambda x: json.dumps(x).encode("utf-8")),
    NEAR_SURFACES.map(lambda x: json.dumps(x).encode("utf-8")),
))
def test_validate_reads_any_file_without_a_traceback(tmp_path_factory, content):
    surf = tmp_path_factory.getbasetemp() / "any.surf"
    surf.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["validate", str(surf)])
    assert rc in (0, 1)
    assert "Traceback" not in err.getvalue()
    if rc == 1 and not out.getvalue():
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("bound", [True, False])
def test_a_boolean_domain_bound_is_a_format_error(tmp_path, capsys, bound):
    # JSON true and false are ints to Python: "u": [true, 2] was read as
    # the box from 1.0 to 2.0
    surf = tmp_path / "surface.surf"
    surf.write_text(json.dumps(dict(SPHERE, domain={"u": [bound, 2], "v": [0, 1]})),
                    encoding="utf-8")
    assert main(["validate", str(surf)]) == 1
    assert capsys.readouterr() == (
        "", f"error: domain bound must be a number or an expression, got {json.dumps(bound)}\n")


#: Surface names that are not one plain file name; {tmp} is the test's
#: folder
UNSAFE_NAMES = {"parent": "../escaped", "absolute": "{tmp}/elsewhere", "subfolder": "a/b",
                "backslash": "a\\b", "nul": "a\0b", "empty": "", "number": 7, "null": None}


@pytest.mark.parametrize("case", UNSAFE_NAMES)
def test_a_name_that_is_not_a_plain_file_name_is_a_format_error(tmp_path, capsys, builds, case):
    # the outputs are named after the surface and joined onto --out:
    # "../escaped" wrote beside it, an absolute name where it pointed,
    # "a/b" ended in a traceback, and the others wrote oddly named files
    name = UNSAFE_NAMES[case]
    if case == "absolute":
        name = name.format(tmp=tmp_path)
    data = dict(SPHERE, name=name)
    with pytest.raises(SurfaceFormatError, match="^surface name must be ") as exc:
        SurfaceDef.from_dict(data)
    surf = tmp_path / "s.surf"
    surf.write_text(json.dumps(data), encoding="utf-8")
    assert main(["classify", str(surf), "--grid", "5x4", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["s.surf"]
    assert builds == []


def _csv_writer_trace(polylines):
    """The trace CSV of polylines as csv.writer writes it, a row at a
    time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for pid, poly in enumerate(polylines):
        for k, ((u, v), res, deg) in enumerate(
                zip(poly.vertices, poly.residuals, poly.degenerate)):
            writer.writerow((poly.field, pid, k, _fmt(u), _fmt(v), _fmt(res),
                             "" if deg is None else str(deg).lower(),
                             str(poly.closed).lower()))
    return out.getvalue()


VERTICES = st.lists(st.tuples(st.floats() | st.just(-0.0), st.floats() | st.just(-0.0),
                              st.floats(min_value=0.0), st.sampled_from([None, True, False])),
                    min_size=2, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    lambda field, vertices, closed: LocusPolyline(
        field, [(u, v) for u, v, _, _ in vertices], [r for _, _, r, _ in vertices],
        [d for _, _, _, d in vertices], closed),
    # a name csv.writer quotes besides the traced fields
    st.sampled_from(TRACEABLE_FIELDS + ('a,"b"',)), VERTICES, st.booleans()), max_size=6))
def test_trace_csv_writes_the_bytes_of_csv_writer(polylines):
    out = io.StringIO()
    _write_trace_csv(polylines, out)
    assert out.getvalue() == _csv_writer_trace(polylines)


def test_an_expression_nested_too_deeply_is_a_syntax_error(tmp_path, capsys, builds):
    # the parser's RecursionError ended in a traceback
    surf = tmp_path / "surface.surf"
    deep = "(" * 5000 + "u" + ")" * 5000
    surf.write_text(json.dumps(dict(SPHERE, X=[deep, *SPHERE["X"][1:]])), encoding="utf-8")
    with pytest.raises(ExprSyntaxError, match="^expression nested too deeply at line 1, "):
        SurfaceDef.from_file(str(surf))
    assert main(["validate", str(surf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: expression nested too deeply at line 1, column ")
    assert err.count("\n") == 1


def test_the_nesting_error_depends_on_the_input_alone(tmp_path, capsys, builds):
    # it was worded where Python's recursion limit was reached, so its
    # column moved with the caller's stack depth and with the limit
    surf = tmp_path / "surface.surf"
    deep = "(" * 5000 + "u" + ")" * 5000
    surf.write_text(json.dumps(dict(SPHERE, X=[deep, *SPHERE["X"][1:]])), encoding="utf-8")
    # at the first token nested deeper than MAX_NESTING, the "(" after
    # the first MAX_NESTING + 1 of them
    want = (f"expression nested too deeply at line 1, column {MAX_NESTING + 2} "
            f"(offset {MAX_NESTING + 1})")

    def load(depth=0):
        return load(depth - 1) if depth else SurfaceDef.from_file(str(surf))

    for depth in (0, 60):
        with pytest.raises(ExprSyntaxError) as err:
            load(depth)
        assert str(err.value) == want
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 5000)
    try:
        with pytest.raises(ExprSyntaxError) as err:
            SurfaceDef.from_file(str(surf))
    finally:
        sys.setrecursionlimit(limit)
    assert str(err.value) == want
    assert main(["validate", str(surf)]) == 1
    assert capsys.readouterr() == ("", f"error: {want}\n")


def test_a_program_nested_too_deeply_to_compile_is_an_error(tmp_path, capsys, builds):
    # 120 nested calls parse, but the derivatives of X nest deeper than
    # Python compiles (200 parentheses): "too many nested parentheses"
    surf = tmp_path / "surface.surf"
    deep = "sin(" * 120 + "u" + ")" * 120
    surf.write_text(json.dumps(dict(SPHERE, X=[deep, *SPHERE["X"][1:]])), encoding="utf-8")
    assert main(["validate", str(surf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: expression nested too deeply to compile: ")
    assert err.count("\n") == 1


def test_a_build_that_raises_raises_again(tmp_path, capsys, builds):
    surf = tmp_path / "broken.surf"
    surf.write_text(json.dumps({
        "name": "broken",
        "X": ["u +", "cos(u)*sin(v)", "cos(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-pi/2", "pi/2"], "v": ["0", "2*pi"]},
    }), encoding="utf-8")
    errors = []
    for _ in range(2):
        assert main(["validate", str(surf), "--grid", "4x4"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: unexpected end of input") and errors[1] == errors[0]
    assert builds == ["broken", "broken"]


def test_the_text_past_the_bound_evicts_the_least_recently_used(tmp_path, builds):
    # as many surfaces are kept as shapes (surface.SHAPES): the 65th
    # distinct text evicts the least recently used one
    data = json.loads(catalog.surface_text("mixed_bowl"))
    paths = []
    for k in range(SHAPES + 1):
        path = tmp_path / f"s{k}.surf"
        path.write_text(json.dumps(dict(data, name=f"s{k}")), encoding="utf-8")
        paths.append(str(path))
    first = [_load_surface(p) for p in paths[:SHAPES]]
    assert _load_surface(paths[0]) is first[0]  # s1 is now the least recent
    assert _load_surface(paths[SHAPES]).name == f"s{SHAPES}"
    assert _surface_from_text.cache_info().currsize == SHAPES == 64
    assert _load_surface(paths[0]) is first[0]
    assert builds == [f"s{k}" for k in range(SHAPES + 1)]
    assert _load_surface(paths[1]) is not first[1]
    assert builds[SHAPES + 1:] == ["s1"]


def test_a_survey_of_36_surfaces_builds_each_once(tmp_path, capsys, builds):
    # validate and both traces of each of 36 distinct texts, twice in one
    # process, as a survey runs them: the second pass builds nothing
    paths = []
    for name in catalog.names():
        for k, c in enumerate((1e-3, 0.5, 2.0, 1e3)):
            path = tmp_path / f"{name}-{k}.surf"
            path.write_text(json.dumps(image(name, c=c, name=f"{name}-{k}").data),
                            encoding="utf-8")
            paths.append(str(path))
    assert len(paths) == 36
    for _ in range(2):
        for path in paths:
            assert main(["validate", path, "--grid", "8x8"]) == 0
            for field in TRACEABLE_FIELDS:
                argv = ["trace", path, "--field", field, "--grid", "12x12"]
                assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert builds == [Path(p).stem for p in paths]


def test_library_loaders_still_build_fresh(tmp_path, capsys, builds):
    surf = tmp_path / "sphere.surf"
    surf.write_text(catalog.surface_text("sphere"), encoding="utf-8")
    assert main(["validate", "sphere", "--grid", "4x4"]) == 0
    loaded = [catalog.load("sphere"), catalog.load("sphere"),
              SurfaceDef.from_file(surf), SurfaceDef.from_file(surf)]
    assert len({id(s) for s in loaded + [_load_surface(str(surf))]}) == 5
    assert all(s._programs == {} for s in loaded)
    assert builds == ["sphere"] * 5


#: One target on a locus per surface that has a documented one here.
LIMITS_AT = {"sphere": "pi/2,1", "mixed_bowl": "1,1"}


@pytest.mark.parametrize("name", catalog.names())
def test_warm_surfaces_write_what_cold_ones_write(tmp_path, monkeypatch, capsys,
                                                  builds, name):
    # every command on one surface, each once on a freshly built surface
    # and once on the surface the earlier calls built and compiled; the
    # grids run the point loop (17x16) and the arrays (65x64)
    calls = [["validate", name]]
    for grid in ("17x16", "65x64"):
        calls += [["classify", name, "--grid", grid], ["curvature", name, "--grid", grid]]
    for field in ("lambda_til", "c2"):
        calls.append(["trace", name, "--field", field, "--grid", "24x24"])
    if name in LIMITS_AT:
        calls.append(["limits", name, f"--at={LIMITS_AT[name]}"])
    results = {}
    for warmth in ("cold", "warm"):
        run = tmp_path / warmth
        run.mkdir()
        monkeypatch.chdir(run)
        printed = []
        for k, argv in enumerate(calls):
            if warmth == "cold":
                _surface_from_text.cache_clear()
            out = [] if argv[0] == "validate" else ["--out", f"out/{k}"]
            printed.append((main(argv + out), capsys.readouterr()))
        files = {p.relative_to(run).as_posix(): p.read_bytes()
                 for p in sorted(run.rglob("*")) if p.is_file()}
        results[warmth] = printed, files
        assert builds == [name] * len(calls)  # the warm pass builds nothing
    assert len(results["cold"][1]) == len(calls) - 1 + (name in LIMITS_AT)
    assert results["warm"] == results["cold"]
