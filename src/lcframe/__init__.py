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

`lcframe.classify` is the function `classify`: importing it here
shadows the submodule of the same name, so `import lcframe.classify as
m` binds the function too.  The module is `sys.modules["lcframe.classify"]`
(or `importlib.import_module("lcframe.classify")`); `from
lcframe.classify import CLASSES` reads it as usual.
"""

from .errors import LcframeError
from .minkowski import (
    CausalCharacter, LVec3, ModelSpace, causal_character, in_model_space,
    is_delta4_pair, norm, pseudo_dot, wedge,
)
from .expr import (
    CompiledField, EvalDomainError, ExprSyntaxError, UnknownIdentifierError,
    compile_field, differentiate, evaluate, parse, to_source,
)
from .surface import (
    BasicInvariants, DomainBox, FramedValidationReport, LightconeFrame,
    SurfaceDef, SurfaceFormatError, basic_invariants_at, frame_at,
    validate_framed,
)
from .curvature import (
    ClassicalCurvatures, CurvaturePacket, SingularCurvatures,
    bounded_principal_check, classical_curvatures, curvature_packet,
    modified_normal, principal_curvatures, singular_curvatures,
    singular_zero_equivalences,
)
from .taxonomy import Category, Kind, LightlikeBranch, PointClass
from .classify import (
    ClassificationTable, LocusPolyline, NullVector, WrongClassError,
    classify, classify_grid, line_of_curvature_test, null_vector,
    trace_zero_set,
)
from .limits import (
    ApproachPath, BoundednessReport, LimitVerdict, OrderEstimate, Verdict,
    boundedness_report, limit_along, vanishing_order,
)
from . import catalog

__version__ = "0.1.0"
