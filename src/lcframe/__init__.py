"""lcframe: geometry of lightcone framed surfaces in Lorentz-Minkowski
3-space.

A lightcone framed surface is a parametrised surface X(u, v), possibly
with singular points, carried by two lightlike vector fields v, w with
<v, w> = -2 whose span contains X_u ^ X_v.  The package computes the
frame coefficients of such surfaces, desingularised curvatures built in
the modified frame {X_u, m, n~}, a full point taxonomy (spacelike /
timelike / lightlike / singular with kind and degeneracy), traced
lightlike and singular loci, and numeric limit analysis of the Gauss
and mean curvature near those loci.

Public names resolve on first read: `import lcframe` loads the package
alone, and `lcframe.SurfaceDef` imports `lcframe.surface` (with what it
imports) when it is first read.  A name is looked up in its submodule on
every read and never kept here, so the package always shows what the
submodule binds.  `from lcframe.surface import SurfaceDef` loads only
the layers a surface build needs.  No import of the package or of a
submodule loads dataclasses, or inspect with ast, dis and tokenize:
lcframe's value classes are records with __slots__ (lcframe._record),
since that import and the code dataclasses generates per class were a
third of a fresh process's set-up for a surface build.

`lcframe.classify` is the function `classify`, even once the submodule
of the same name is imported, so `import lcframe.classify as m` binds
the function too.  The module is `sys.modules["lcframe.classify"]`
(or `importlib.import_module("lcframe.classify")`); `from
lcframe.classify import CLASSES` reads it as usual.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("LcframeError",),
    "minkowski": (
        "CausalCharacter", "LVec3", "ModelSpace", "causal_character",
        "in_model_space", "is_delta4_pair", "norm", "pseudo_dot", "wedge",
    ),
    "expr": (
        "CompiledField", "EvalDomainError", "ExprSyntaxError",
        "UnknownIdentifierError", "compile_field", "differentiate",
        "evaluate", "parse", "to_source",
    ),
    "surface": (
        "BasicInvariants", "DomainBox", "FramedValidationReport",
        "LightconeFrame", "SurfaceDef", "SurfaceFormatError",
        "basic_invariants_at", "frame_at", "validate_framed",
    ),
    "curvature": (
        "ClassicalCurvatures", "CurvaturePacket", "SingularCurvatures",
        "bounded_principal_check", "classical_curvatures",
        "curvature_packet", "modified_normal", "principal_curvatures",
        "singular_curvatures", "singular_zero_equivalences",
    ),
    "taxonomy": ("Category", "Kind", "LightlikeBranch", "PointClass"),
    "classify": (
        "ClassificationTable", "LocusPolyline", "NullVector",
        "WrongClassError", "classify", "classify_grid",
        "line_of_curvature_test", "null_vector", "trace_zero_set",
    ),
    "limits": (
        "ApproachPath", "BoundednessReport", "LimitVerdict", "OrderEstimate",
        "Verdict", "boundedness_report", "limit_along", "vanishing_order",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# `classify` is not among them: that name is the function
_SUBMODULES = (
    "catalog", "curvature", "errors", "expr", "limits", "minkowski",
    "numerics", "straightline", "surface", "taxonomy",
)
__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    """The package module, whose `classify` is always the function."""

    @property
    def classify(self):
        return _import_module(f"{__name__}.classify").classify

    @classify.setter
    def classify(self, module):
        # the import system binds each imported submodule onto its
        # package; this one stays reachable through sys.modules only
        pass


_sys.modules[__name__].__class__ = _Package
