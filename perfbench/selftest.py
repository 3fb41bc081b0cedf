"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_lcframe()

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- inputs --------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.input_digests == b.input_digests
    assert a.jobs == b.jobs
    c = workloads.build(name, 8)
    assert (c.input_digests, c.jobs) != (a.input_digests, a.jobs)


def test_inputs_are_generated_without_lcframe():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import workloads\n"
            "for name in workloads.NAMES: workloads.build(name, 3)\n"
            "assert not [m for m in sys.modules if m.startswith('lcframe')]\n")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_pinned_surfaces_match_the_catalog():
    from lcframe import catalog

    for name, spec in inputs.BASE_SURFACES.items():
        assert json.loads(catalog.surface_text(name)) == {"name": name, **spec}


U, V = sympy.symbols("u v")


def _sym(components):
    return [sympy.sympify(c.replace("^", "**"), locals={"u": U, "v": V, "pi": sympy.pi})
            for c in components]


def _pdot(a, b):
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@pytest.mark.parametrize("locus", inputs.LOCI, ids=lambda lc: f"{lc[0]}:{lc[1]}")
def test_locus_closed_forms_solve_the_defining_products(locus):
    surface, _label, field, point, (lo, hi) = locus
    spec = inputs.BASE_SURFACES[surface]
    x, fv, fw = _sym(spec["X"]), _sym(spec["v"]), _sym(spec["w"])
    xu = [sympy.diff(c, U) for c in x]
    xv = [sympy.diff(c, V) for c in x]
    a1 = -_pdot(xu, fw) / 2
    b1 = -_pdot(xu, fv) / 2
    for k in range(5):
        u, v = point(lo + (hi - lo) * k / 4)
        at = {U: u, V: v}
        if field == "c2":
            assert all(abs(float(c.subs(at))) < 1e-12 for c in xv)
        else:
            zero, other = (a1, b1) if field == "a1" else (b1, a1)
            assert abs(float(zero.subs(at))) < 1e-12
            assert abs(float(other.subs(at))) > 1e-3
            assert max(abs(float(c.subs(at))) for c in xv) > 1e-3


def test_survey_variants_keep_a_lightlike_pair():
    for name, text in inputs.survey_variants(5)[:9]:
        spec = json.loads(text)
        fv, fw = _sym(spec["v"]), _sym(spec["w"])
        at = {U: 0.3, V: 0.4}
        fv = [float(c.subs(at)) for c in fv]
        fw = [float(c.subs(at)) for c in fw]
        assert abs(_pdot(fv, fv)) < 1e-9 and abs(_pdot(fw, fw)) < 1e-9, name
        assert abs(_pdot(fv, fw) + 2.0) < 1e-9, name


# -- tracing -------------------------------------------------------------


def _tiny_workload(tmp_path):
    jobs = [
        {"id": "classify", "command": "classify", "surface": "sphere",
         "args": ["--grid", "12x12"], "grid": (12, 12), "points": 144,
         "writes": True, "check_seed": "0"},
        {"id": "curvature", "command": "curvature", "surface": "flat_plane",
         "args": ["--grid", "8x8"], "grid": (8, 8), "points": 64,
         "writes": True, "check_seed": "0"},
        {"id": "trace", "command": "trace", "surface": "sphere",
         "args": ["--field", "lambda_til", "--grid", "16x16"], "points": 256,
         "writes": True},
        {"id": "validate", "command": "validate", "surface": "mixed_bowl",
         "args": ["--grid", "8x8"], "points": 64, "writes": False},
        {"id": "limits", "command": "limits", "surface": "sphere",
         "args": ["--at=-1.5707963267948966,1.0"], "points": 120, "writes": True},
    ]
    texts = inputs.base_surface_texts()
    wl = workloads.Workload(texts, jobs, {})
    return run.Runner(wl, tmp_path / "run")


def _namespaces():
    import lcframe.expr
    import lcframe.surface

    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "lcframe" or n.startswith("lcframe.")}
    mods["SurfaceDef"] = dict(vars(lcframe.surface.SurfaceDef))
    mods["CompiledField"] = dict(vars(lcframe.expr.CompiledField))
    return mods


def test_traced_run_is_transparent_and_restores_everything(tmp_path):
    runner = _tiny_workload(tmp_path)
    before = _namespaces()
    metrics, detail = run.measure_traced(runner)
    after = _namespaces()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, obj in before[name].items():
            assert after[name][attr] is obj, f"{name}.{attr} not restored"
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.workload.jobs)
    assert metrics["surface.invariants_per_point"] > 0
    assert metrics["limits.packets_per_sample"] > 0
    assert metrics["classify.trace_vertices"] > 0
    assert detail["trace"]["spans"]["cli.main"]["calls"] == len(runner.workload.jobs)


def test_traced_counts_repeat_exactly(tmp_path):
    a, _ = run.measure_traced(_tiny_workload(tmp_path / "a"))
    b, _ = run.measure_traced(_tiny_workload(tmp_path / "b"))
    for m in CONTRACT["per_layer"]:
        if m["unit"] == "count":
            assert a[m["name"]] == b[m["name"]], m["name"]


def test_a_failing_job_is_counted(tmp_path):
    runner = _tiny_workload(tmp_path)
    job = dict(runner.workload.jobs[4], args=["--at=0.3,1.0"])  # a spacelike point
    _, ok = runner.run(job, run.cli_main())
    assert not ok and runner.failures and runner.failures[0]["job"] == "limits"


# -- contract ------------------------------------------------------------


def test_metric_names_and_units_follow_the_contract():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in CONTRACT[key]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m["unit"]
    assert tuple(w["name"] for w in CONTRACT["workloads"]) == workloads.NAMES


def test_both_modes_compute_every_listed_metric(tmp_path):
    runner = _tiny_workload(tmp_path)
    traced, _ = run.measure_traced(runner)
    plain, _ = run.measure(runner, 0.001)
    assert set(traced) == {m["name"] for m in CONTRACT["per_layer"]}
    assert set(plain) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v > 0 for v in plain.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
