"""The record classes (lcframe._record): each keeps the constructor,
fields, repr, ==, hash, immutability, copies and pickles that callers
read of the dataclass it replaced."""

import copy
import importlib
import itertools
import math
import pickle

import pytest

from lcframe import _record
from lcframe.classify import ClassificationRow, LineOfCurvatureReport, LocusPolyline, NullVector
from lcframe.curvature import (
    BoundedPrincipalReport, ClassicalCurvatures, CurvaturePacket, SingularCurvatures,
    ZeroEquivalenceReport,
)
from lcframe.errors import LcframeError
from lcframe.expr import Add, Call, Const, Div, Mul, Neg, Pow, Slot, Sub, Var
from lcframe.limits import (
    ApproachPath, BoundednessReport, DirectionOutcome, LimitVerdict, OrderEstimate, Verdict,
)
from lcframe.minkowski import LVec3
from lcframe.surface import DomainBox, FramedValidationReport, LightconeFrame, SurfaceFormatError
from lcframe.taxonomy import Category, Kind, LightlikeBranch, PointClass

#: records of every record class, each with its repr as the dataclass
#: of the same fields printed it
RECORDS = [
    (Const(1.5),
     'Const(value=1.5)'),
    (Const(-0.0),
     'Const(value=-0.0)'),
    (Slot(2),
     'Slot(index=2)'),
    (Var("u"),
     "Var(name='u')"),
    (Neg(Var("u")),
     "Neg(arg=Var(name='u'))"),
    (Add(Var("u"), Const(1.0)),
     "Add(left=Var(name='u'), right=Const(value=1.0))"),
    (Sub(Var("v"), Slot(0)),
     "Sub(left=Var(name='v'), right=Slot(index=0))"),
    (Mul(Const(2.0), Var("v")),
     "Mul(left=Const(value=2.0), right=Var(name='v'))"),
    (Div(Var("u"), Var("v")),
     "Div(left=Var(name='u'), right=Var(name='v'))"),
    (Pow(Var("v"), 3),
     "Pow(base=Var(name='v'), exponent=3)"),
    (Call("sin", Var("u")),
     "Call(fn='sin', arg=Var(name='u'))"),
    (LVec3(1.0, -2.0, 0.5),
     'LVec3(x1=1.0, x2=-2.0, x3=0.5)'),
    (PointClass(Category.SPACELIKE),
     "PointClass(category=<Category.SPACELIKE: 'spacelike'>, lightlike_branch=None, "
     'degenerate=None, kind=None)'),
    (PointClass(Category.LIGHTLIKE, LightlikeBranch.L1, False, Kind.FIRST),
     "PointClass(category=<Category.LIGHTLIKE: 'lightlike'>, "
     "lightlike_branch=<LightlikeBranch.L1: 'L1'>, degenerate=False, kind=<Kind.FIRST: "
     "'first'>)"),
    (DomainBox(0.0, 1.0, -1.0, 2.0),
     'DomainBox(u_min=0.0, u_max=1.0, v_min=-1.0, v_max=2.0)'),
    (LightconeFrame(LVec3(1.0, 1.0, 0.0), LVec3(1.0, -1.0, 0.0), LVec3(0.0, 0.0, 1.0)),
     'LightconeFrame(v=LVec3(x1=1.0, x2=1.0, x3=0.0), w=LVec3(x1=1.0, x2=-1.0, x3=0.0), '
     'm=LVec3(x1=0.0, x2=0.0, x3=1.0))'),
    (FramedValidationReport((5, 4), 1e-09, 0.0, 1e-12, 0.0, 0.0, 1.0, 2.0, True, None),
     'FramedValidationReport(grid=(5, 4), tol=1e-09, max_wedge_residual=0.0, '
     'max_delta4_residual=1e-12, max_abs_a2=0.0, max_abs_b2=0.0, max_abs_alpha=1.0, '
     'max_abs_beta=2.0, admitted=True, witness=None)'),
    (CurvaturePacket(0.5, 0.25, 1.0, 0.0, 1.0, 0.5, 0.0, -0.5, 1.0, -0.25, 0.0, -0.25,
                    0.0, 0.5, None, True, False, False, (1.0, 0.0), None,
                    LVec3(0.0, 1.0, 0.0)),
     'CurvaturePacket(u=0.5, v=0.25, Etil=1.0, Ftil=0.0, Gtil=1.0, Ltil=0.5, Mtil=0.0, '
     'Ntil=-0.5, lambda_til=1.0, Ktil=-0.25, Htil=0.0, K=-0.25, H=0.0, kappa_til_1=0.5, '
     'kappa_til_2=None, kappa_til_2_unbounded=True, kappa1_from_limit=False, '
     'principal_complex=False, V1=(1.0, 0.0), V2=None, n_til=LVec3(x1=0.0, x2=1.0, '
     'x3=0.0))'),
    (SingularCurvatures(1.0, None, 0.5, None, None, None, 2.0, None, 1.0, None, None,
                       None, ("c2v~0",)),
     'SingularCurvatures(kappa_v_til=1.0, kappa_c_til=None, kappa_Pi_til=0.5, '
     'kappa_t_til=None, mu_c_til=None, mu_Pi_til=None, kappa_v=2.0, kappa_c=None, '
     "kappa_Pi=1.0, kappa_t=None, mu_c=None, mu_Pi=None, failures=('c2v~0',))"),
    (ClassicalCurvatures(1.0, 0.0, 1.0, 0.5, 0.0, 0.5, 0.25, 0.5),
     'ClassicalCurvatures(E=1.0, F=0.0, G=1.0, L=0.5, M=0.0, N=0.5, K=0.25, H=0.5)'),
    (ZeroEquivalenceReport(False, "needs a rank-one singular point", None),
     "ZeroEquivalenceReport(applicable=False, reason='needs a rank-one singular point', "
     'kind=None, Ktil=None, partner_K=None, gauss_both_zero=None, gauss_agrees=None, '
     'Htil=None, partner_H=None, mean_both_zero=None, mean_agrees=None)'),
    (ZeroEquivalenceReport(True, None, Kind.SECOND, Ktil=0.0, partner_K=0.0,
                          gauss_both_zero=True, gauss_agrees=True),
     "ZeroEquivalenceReport(applicable=True, reason=None, kind=<Kind.SECOND: 'second'>, "
     'Ktil=0.0, partner_K=0.0, gauss_both_zero=True, gauss_agrees=True, Htil=None, '
     'partner_H=None, mean_both_zero=None, mean_agrees=None)'),
    (BoundedPrincipalReport(False, "Etil~0"),
     "BoundedPrincipalReport(applicable=False, reason='Etil~0', kappa_til_1=None, "
     'Ltil_over_Etil=None, matches=None, sign_Etil=None, kappa_v_til=None, '
     'kappa_til_2_unbounded=None)'),
    (BoundedPrincipalReport(True, None, 1.0, 1.0, True, 1, 0.5, True),
     'BoundedPrincipalReport(applicable=True, reason=None, kappa_til_1=1.0, '
     'Ltil_over_Etil=1.0, matches=True, sign_Etil=1, kappa_v_til=0.5, '
     'kappa_til_2_unbounded=True)'),
    (ApproachPath((0.5, 0.25), (3.0, 4.0)),
     'ApproachPath(target=(0.5, 0.25), direction=(0.6, 0.8), curve=None, r0=0.1, '
     'ratio=0.5, count=12)'),
    (ApproachPath(target=(0.0, 0.0), curve=None, direction=(0.0, -2.0), r0=0.25,
                 ratio=0.25, count=4),
     'ApproachPath(target=(0.0, 0.0), direction=(0.0, -1.0), curve=None, r0=0.25, '
     'ratio=0.25, count=4)'),
    (LimitVerdict("K", Verdict.ZERO_LIMIT, None, 2.0, 1.0, 1.0, 0.001, (0.1, 0.05),
                 (0.01, 0.0025)),
     "LimitVerdict(quantity='K', verdict=<Verdict.ZERO_LIMIT: 'zero'>, value=None, "
     'numerator_order=2.0, denominator_order=1.0, slope=1.0, slope_residual=0.001, '
     'distances=(0.1, 0.05), values=(0.01, 0.0025), note=None)'),
    (LimitVerdict("H", Verdict.INCONCLUSIVE, None, None, None, None, None, (), (),
                 note="flat"),
     "LimitVerdict(quantity='H', verdict=<Verdict.INCONCLUSIVE: 'inconclusive'>, "
     'value=None, numerator_order=None, denominator_order=None, slope=None, '
     "slope_residual=None, distances=(), values=(), note='flat')"),
    (OrderEstimate("c2", 1.0, True, 2.0, 1e-06),
     "OrderEstimate(field='c2', order=1.0, is_integer=True, leading_coefficient=2.0, "
     'slope_residual=1e-06)'),
    (DirectionOutcome("fan0", (1.0, 0.0), "spacelike", {}, None),
     "DirectionOutcome(label='fan0', direction=(1.0, 0.0), side='spacelike', verdicts={}, "
     'error=None)'),
    (BoundednessReport((1.0, 2.0), Category.LIGHTLIKE, None),
     "BoundednessReport(target=(1.0, 2.0), category=<Category.LIGHTLIKE: 'lightlike'>, "
     'kind=None, outcomes=[], k_bounded_evidence=None, h_bounded_evidence=None, '
     'k_dichotomy=None, h_dichotomy=None, bounded_mean_implies_bounded_gauss=None)'),
    (BoundednessReport((1.0, 2.0), Category.SINGULAR_1, Kind.FIRST,
                      [DirectionOutcome("fan1", (0.0, 1.0), None, {}, "hit a locus")],
                      True, False, "exhibited", "not-exhibited", "violated-on-evidence"),
     "BoundednessReport(target=(1.0, 2.0), category=<Category.SINGULAR_1: 'singular1'>, "
     "kind=<Kind.FIRST: 'first'>, outcomes=[DirectionOutcome(label='fan1', "
     "direction=(0.0, 1.0), side=None, verdicts={}, error='hit a locus')], "
     "k_bounded_evidence=True, h_bounded_evidence=False, k_dichotomy='exhibited', "
     "h_dichotomy='not-exhibited', "
     "bounded_mean_implies_bounded_gauss='violated-on-evidence')"),
    (NullVector((1.0, -0.5), 0.0),
     'NullVector(eta=(1.0, -0.5), residual=0.0)'),
    (LocusPolyline("c2"),
     "LocusPolyline(field='c2', vertices=[], residuals=[], degenerate=[], closed=False)"),
    (LocusPolyline("lambda_til", [(0.0, 1.0), (0.5, 1.0)], [0.0, 1e-12], [False, None], True),
     "LocusPolyline(field='lambda_til', vertices=[(0.0, 1.0), (0.5, 1.0)], "
     'residuals=[0.0, 1e-12], degenerate=[False, None], closed=True)'),
    (LineOfCurvatureReport(False, "Etil~0"),
     "LineOfCurvatureReport(applicable=False, reason='Etil~0', kind=None, "
     'is_line_of_curvature=None, directional_derivative=None, kappa_t_til=None, '
     'kappa_t_target=None, routes_agree=None)'),
    (LineOfCurvatureReport(True, None, Kind.FIRST, True, 0.0, 1.0, 1.0, True),
     "LineOfCurvatureReport(applicable=True, reason=None, kind=<Kind.FIRST: 'first'>, "
     'is_line_of_curvature=True, directional_derivative=0.0, kappa_t_til=1.0, '
     'kappa_t_target=1.0, routes_agree=True)'),
    (ClassificationRow(0.5, 0.25, PointClass(Category.TIMELIKE), None, -1.0),
     'ClassificationRow(u=0.5, v=0.25, '
     "point_class=PointClass(category=<Category.TIMELIKE: 'timelike'>, "
     'lightlike_branch=None, degenerate=None, kind=None), packet=None, c2=-1.0)'),
]
MUTABLE = (LocusPolyline, BoundednessReport)
MODULES = ("expr", "minkowski", "taxonomy", "surface", "curvature", "classify", "limits")


def _ids(records):
    return [type(r).__name__ for r, _ in records]


def test_every_record_class_is_covered():
    classes = {obj for name in MODULES
               for obj in vars(importlib.import_module(f"lcframe.{name}")).values()
               if isinstance(obj, type) and issubclass(obj, _record.Record) and obj._fields}
    assert len(classes) == 29
    assert classes == {type(r) for r, _ in RECORDS}


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(RECORDS))
def test_repr_names_every_field(record, text):
    assert repr(record) == text
    assert type(record).__match_args__ == record._fields
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(RECORDS))
def test_copies_and_pickles_are_equal(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                 pickle.loads(pickle.dumps(record, protocol=0))):
        assert type(twin) is type(record)
        assert twin == record and not twin != record
        assert repr(twin) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(RECORDS))
def test_frozen_records_hash_and_refuse_assignment(record, text):
    name = record._fields[0]
    if type(record) in MUTABLE:
        record = copy.copy(record)  # RECORDS stays as printed
        assert type(record).__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"
        return
    assert type(record).__hash__ is not None
    try:
        hash(record._astuple())
    except TypeError:  # a dict among the fields, as a DirectionOutcome's verdicts
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(copy.deepcopy(record))
    with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert repr(record) == text


def test_equal_fields_of_two_classes_are_unequal():
    u, v = Var("u"), Var("v")
    for a, b in itertools.permutations((Add, Sub, Mul, Div), 2):
        assert a(u, v) != b(u, v)
        assert not a(u, v) == b(u, v)
        assert a(u, v) == a(Var("u"), Var("v"))
    assert Neg(u) != Call("neg", u) and Var("u") != Slot("u")
    assert NullVector((1.0, 0.0), 0.0) != (1.0, 0.0)


def test_defaults_and_fresh_lists():
    assert PointClass(Category.TIMELIKE) == PointClass(Category.TIMELIKE, None, None, None)
    path = ApproachPath((0.0, 0.0), (2.0, 0.0))
    assert (path.direction, path.curve, path.r0, path.ratio, path.count) == \
        ((1.0, 0.0), None, 0.1, 0.5, 12)
    assert LimitVerdict("K", Verdict.UNBOUNDED, None, 1.0, 2.0, -1.0, 0.0, (), ()).note is None
    polylines = LocusPolyline("c2"), LocusPolyline("c2")
    polylines[0].vertices.append((0.0, 0.0))
    assert polylines[1].vertices == [] and polylines[0].residuals is not polylines[1].residuals
    reports = [BoundednessReport((0.0, 0.0), Category.LIGHTLIKE, None) for _ in range(2)]
    reports[0].outcomes.append(None)
    assert reports[1].outcomes == []


def test_the_constructor_takes_positions_and_keywords():
    assert OrderEstimate("c2", 1.0, True, None, None) == OrderEstimate(
        slope_residual=None, leading_coefficient=None, is_integer=True, order=1.0, field="c2")
    assert LVec3(1.0, 2.0, 3.0) == LVec3(x3=3.0, x1=1.0, x2=2.0)
    with pytest.raises(TypeError, match="missing required argument 'residual'"):
        NullVector((1.0, 0.0))
    with pytest.raises(TypeError, match="unexpected keyword argument 'normal'"):
        NullVector((1.0, 0.0), 0.0, normal=None)
    with pytest.raises(TypeError, match="multiple values for argument 'eta'"):
        NullVector((1.0, 0.0), 0.0, eta=None)
    with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
        NullVector((1.0, 0.0), 0.0, None)
    with pytest.raises(TypeError):
        Add(Var("u"))


@pytest.mark.parametrize("build, error, message", [
    (lambda: LVec3(1.0, math.nan, 0.0), LcframeError, "non-finite vector component: nan"),
    (lambda: LVec3(math.inf, 0.0, 0.0), LcframeError, "non-finite vector component: inf"),
    (lambda: DomainBox(1.0, 0.0, 0.0, 1.0), SurfaceFormatError,
     "degenerate domain box (1.0, 0.0, 0.0, 1.0)"),
    (lambda: DomainBox(0.0, math.inf, 0.0, 1.0), SurfaceFormatError,
     "domain bounds and their distances must be finite, got (0.0, inf, 0.0, 1.0)"),
    (lambda: DomainBox(-1e308, 1e308, 0.0, 1.0), SurfaceFormatError,
     "domain bounds and their distances must be finite, got (-1e+308, 1e+308, 0.0, 1.0)"),
    (lambda: ApproachPath((0.0, 0.0)), LcframeError,
     "provide exactly one of direction or curve"),
    (lambda: ApproachPath((0.0, 0.0), (1.0, 0.0), curve=abs), LcframeError,
     "provide exactly one of direction or curve"),
    (lambda: ApproachPath((0.0, 0.0), (1.0, 0.0), count=3), LcframeError,
     "schedule needs a finite r0 > 0 and from 4 to 64 samples"),
    (lambda: ApproachPath((0.0, 0.0), (1.0, 0.0), ratio=1.5), LcframeError,
     "schedule ratio must lie in (0, 1)"),
    (lambda: ApproachPath((0.0, 0.0), (0.0, 0.0)), LcframeError, "direction must be nonzero"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
