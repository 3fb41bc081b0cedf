"""The package namespace: which modules an import loads, and that every
public name reads as the object its submodule defines."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lcframe

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "errors": ["LcframeError"],
    "minkowski": ["CausalCharacter", "LVec3", "ModelSpace", "causal_character",
                  "in_model_space", "is_delta4_pair", "norm", "pseudo_dot", "wedge"],
    "expr": ["CompiledField", "EvalDomainError", "ExprSyntaxError",
             "UnknownIdentifierError", "compile_field", "differentiate", "evaluate",
             "parse", "to_source"],
    "surface": ["BasicInvariants", "DomainBox", "FramedValidationReport",
                "LightconeFrame", "SurfaceDef", "SurfaceFormatError",
                "basic_invariants_at", "frame_at", "validate_framed"],
    "curvature": ["ClassicalCurvatures", "CurvaturePacket", "SingularCurvatures",
                  "bounded_principal_check", "classical_curvatures", "curvature_packet",
                  "modified_normal", "principal_curvatures", "singular_curvatures",
                  "singular_zero_equivalences"],
    "taxonomy": ["Category", "Kind", "LightlikeBranch", "PointClass"],
    "classify": ["ClassificationTable", "LocusPolyline", "NullVector", "WrongClassError",
                 "classify", "classify_grid", "line_of_curvature_test", "null_vector",
                 "trace_zero_set"],
    "limits": ["ApproachPath", "BoundednessReport", "LimitVerdict", "OrderEstimate",
               "Verdict", "boundedness_report", "limit_along", "vanishing_order"],
}
OBJECTS = {name: home for home, names in PUBLIC.items() for name in names}
SUBMODULES = ["catalog", "curvature", "errors", "expr", "limits", "minkowski",
              "numerics", "straightline", "surface", "taxonomy"]
BUILD_MODULES = ["lcframe", "lcframe._record", "lcframe.errors", "lcframe.expr",
                 "lcframe.minkowski", "lcframe.surface"]
CLI_MODULES = ["lcframe", "lcframe._record", "lcframe.catalog", "lcframe.classify",
               "lcframe.cli", "lcframe.curvature", "lcframe.errors", "lcframe.expr",
               "lcframe.limits", "lcframe.minkowski", "lcframe.numerics",
               "lcframe.straightline", "lcframe.surface", "lcframe.taxonomy"]

LOADED = ("import json, sys\n"
          "print(json.dumps({'lcframe': sorted(m for m in sys.modules\n"
          "                                    if m.split('.')[0] == 'lcframe'),\n"
          "                  'numpy': 'numpy' in sys.modules}))\n")


def _fresh(code, *args):
    """Run code in a fresh interpreter, warnings as errors; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(lcframe.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    def test_the_package_loads_alone(self):
        assert json.loads(_fresh("import lcframe\n" + LOADED)) == {
            "lcframe": ["lcframe"], "numpy": False}

    def test_a_surface_build_loads_only_the_surface_layer(self):
        paths = sorted(str(p) for p in (Path(lcframe.__file__).parent / "catalog").glob("*.surf"))
        assert len(paths) == 9
        code = ("import json, sys\n"
                "from lcframe.surface import SurfaceDef\n"
                "for path in sys.argv[1:]:\n"
                "    with open(path, encoding='utf-8') as fh:\n"
                "        SurfaceDef.from_dict(json.loads(fh.read()))\n" + LOADED)
        assert json.loads(_fresh(code, *paths)) == {"lcframe": BUILD_MODULES, "numpy": False}

    def test_the_cli_loads_every_layer_it_runs(self):
        assert json.loads(_fresh("import lcframe.cli\n" + LOADED)) == {
            "lcframe": CLI_MODULES, "numpy": False}

    @pytest.mark.parametrize("module", ["lcframe.surface", "lcframe.cli"])
    def test_an_import_loads_neither_dataclasses_nor_inspect(self, module):
        code = (f"import sys, {module}\n"
                "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        assert _fresh(code) == "\n"


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_a_name_is_its_submodules_own_object(self, name):
        home = importlib.import_module(f"lcframe.{OBJECTS[name]}")
        obj = getattr(lcframe, name)
        assert obj is getattr(home, name)
        assert obj.__module__ == home.__name__

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_a_submodule_name_is_the_submodule(self, name):
        assert getattr(lcframe, name) is importlib.import_module(f"lcframe.{name}")

    def test_all_dir_and_star_import_list_every_name(self):
        names = {*OBJECTS, *SUBMODULES}
        assert len(names) == 69
        assert sorted(lcframe.__all__) == sorted(names)
        assert names <= set(dir(lcframe))
        namespace = {}
        exec("from lcframe import *", namespace)
        for name in names:
            assert namespace[name] is getattr(lcframe, name), name

    def test_an_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            lcframe.no_such_name
        with pytest.raises(ImportError):
            from lcframe import no_such_name  # noqa: F401

    def test_reading_every_name_keeps_none_in_the_package(self):
        code = ("import json, lcframe\n"
                "for name in lcframe.__all__:\n"
                "    getattr(lcframe, name)\n"
                "print(json.dumps(sorted(k for k in vars(lcframe) if not k.startswith('_'))))\n")
        assert json.loads(_fresh(code)) == SUBMODULES

    def test_classify_is_the_function_before_and_after_its_module_is_imported(self):
        code = ("import sys, types\n"
                "import lcframe\n"
                "before = lcframe.classify\n"
                "from lcframe.classify import CLASSES\n"
                "import lcframe.classify as bound\n"
                "module = sys.modules['lcframe.classify']\n"
                "assert isinstance(module, types.ModuleType)\n"
                "assert isinstance(before, types.FunctionType)\n"
                "assert before is lcframe.classify is bound is module.classify\n"
                "assert 'classify' not in vars(lcframe)\n")
        _fresh(code)
