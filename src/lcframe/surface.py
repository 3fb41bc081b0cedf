"""Lightcone framed surfaces.

A surface definition is a triple of vector fields (X, v, w) over a
rectangle in the (u, v) parameter plane: the position X and a pair of
lightlike frame fields v, w with <v,w> = -2.  The third frame leg is
the unit spacelike field m = -(1/2) v^w.

From the components we build, symbolically, the twelve scalar
coefficients of the moving-frame equations

    X_u = a1 v + b1 w + c1 m        v_u = e1 v + 2 g1 m
    X_v = a2 v + b2 w + c2 m        w_u = -e1 w + 2 f1 m
                                    m_u = f1 v + g1 w

(and likewise e2, f2, g2 for v-derivatives), together with the first
partials of a1, b1, c1, c2 that the classification predicates need.
All of these are exact symbolic derivatives of the defining inner
products, so sign tests on them are noise-free.  All derivations of
one build share one expr.Dag, so each distinct subexpression is
simplified and differentiated once; the context is dropped when the
build returns, and the compiled programs keep no reference to it.

The twenty trees and the three components of n~ = X_u ^ m compile into
one 23-root program (expr.compile_program) that computes each shared
subexpression once; basic_invariants_at calls it.  lam~ = -4 a1 b1 and
c2, whose zero sets are traced, compile on their own.  So do the eight
vectors read point by point (X_u, X_v, X_uu, X_uv, X_vv and the frame
legs v, w, m), one 3-root program each; nothing else is compiled at
construction.  The invariant program's array form (the same numbering
in the arrays.ARRAY environment), which large grids evaluate a block of
points per call, is compiled on first use by invariant_arrays, from
trees derived again in a context of its own, and kept on the surface;
lcframe imports numpy only then.

Surfaces handled here satisfy a2 = b2 = 0: the v-tangent is
proportional to m.  That condition is validated, not normalised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import LcframeError
from .expr import (
    Add, CompiledField, Const, Dag, Mul, Neg, Sub, compile_program, constant_value,
    parse,
)
from .minkowski import LVec3, pseudo_dot, wedge

__all__ = [
    "DomainBox",
    "LightconeFrame",
    "BasicInvariants",
    "FramedValidationReport",
    "SurfaceDef",
    "SurfaceFormatError",
    "frame_at",
    "basic_invariants_at",
    "validate_framed",
]

SIGNATURE = (-1.0, 1.0, 1.0)


class SurfaceFormatError(LcframeError):
    """A surface definition file or dictionary is malformed."""


@dataclass(frozen=True)
class DomainBox:
    """Closed parameter rectangle [u_min, u_max] x [v_min, v_max]."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise SurfaceFormatError(
                f"degenerate domain box {self.u_min, self.u_max, self.v_min, self.v_max}")

    def contains(self, u: float, v: float, slack: float = 1e-12) -> bool:
        """Whether (u, v) lies in the box widened by slack; u and v may
        also be numpy arrays of points, giving an array of verdicts."""
        return ((self.u_min - slack <= u) & (u <= self.u_max + slack)
                & (self.v_min - slack <= v) & (v <= self.v_max + slack))

    def grid(self, nu: int, nv: int):
        """Closed sampling: both endpoints of each interval included."""
        if nu < 2 or nv < 2:
            raise LcframeError(f"grid resolution must be at least 2x2, got {nu}x{nv}")
        us = [self.u_min + (self.u_max - self.u_min) * i / (nu - 1) for i in range(nu)]
        vs = [self.v_min + (self.v_max - self.v_min) * j / (nv - 1) for j in range(nv)]
        return us, vs


@dataclass(frozen=True)
class LightconeFrame:
    """Frame triple at a point: lightlike pair (v, w) and the unit
    spacelike leg m = -(1/2) v^w."""

    v: LVec3
    w: LVec3
    m: LVec3


class BasicInvariants(NamedTuple):
    """The twelve frame coefficients, the partials used by the
    classification sign tests and n~ = X_u ^ m, all at a single point,
    in the invariant program's root order."""

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    e1: float
    f1: float
    g1: float
    e2: float
    f2: float
    g2: float
    a1u: float
    a1v: float
    b1u: float
    b1v: float
    c1u: float
    c1v: float
    c2u: float
    c2v: float
    ntil_1: float
    ntil_2: float
    ntil_3: float


@dataclass(frozen=True)
class FramedValidationReport:
    """Grid-sampled residuals of the framed-surface conditions.

    wedge residual: largest component of X_u^X_v - (alpha v + beta w)
    with alpha = -a1*c2 and beta = b1*c2; pair residual: worst failure
    of the lightlike-pair conditions <v,v> = <w,w> = 0, <v,w> = -2.
    A surface is admitted when every residual is below tolerance.
    """

    grid: tuple
    tol: float
    max_wedge_residual: float
    max_delta4_residual: float
    max_abs_a2: float
    max_abs_b2: float
    max_abs_alpha: float
    max_abs_beta: float
    admitted: bool
    witness: tuple | None  # (u, v, check_name, value) for the first failure


def _pdot_expr(a, b):
    """Inner-product expression of two component-expression triples."""
    terms = []
    for sig, ai, bi in zip(SIGNATURE, a, b):
        t = Mul(ai, bi)
        terms.append(Neg(t) if sig < 0 else t)
    return Add(Add(terms[0], terms[1]), terms[2])


def _wedge_expr(dag, a, b):
    """Component expressions of the Lorentzian cross product of two
    triples interned in dag, interned there as written (unfolded)."""
    node = dag.node
    return (
        node(Neg, node(Sub, node(Mul, a[1], b[2]), node(Mul, a[2], b[1]))),
        node(Sub, node(Mul, a[2], b[0]), node(Mul, a[0], b[2])),
        node(Sub, node(Mul, a[0], b[1]), node(Mul, a[1], b[0])),
    )


def _half(e):
    return Mul(Const(0.5), e)


def _partials(dag, trees, var):
    return tuple(dag.differentiate(e, var) for e in trees)


class SurfaceDef:
    """Compiled surface triple with its symbolic invariant program.

    The components of X, v and w are parsed and simplified once; the
    trees the surface evaluates are derived from them symbolically, in
    one derivation context (expr.Dag) per build that is dropped when
    the constructor returns.
    Each vector accessor (x_u, x_v, x_uu, x_uv, x_vv, frame_vec_v,
    frame_vec_w, frame_vec_m) is one 3-root program, the 23
    BasicInvariants fields (with n~) are one program evaluated in one
    call, and scalar_field gives the traced fields lambda_til and c2.

    Instances are immutable after construction, except that the array
    form of the invariant program is compiled and kept on first use of
    invariant_arrays (threads racing there derive in separate contexts
    and compile equal programs, and one is kept); no derivation state
    is shared between builds or kept on the surface, and every
    evaluation is pure, so surfaces may be built and shared freely
    across threads.
    """

    def __init__(self, name, x_sources, v_sources, w_sources, domain):
        self.name = str(name)
        if not isinstance(domain, DomainBox):
            domain = DomainBox(*domain)
        self.domain = domain
        dag = Dag()  # every derivation of this build; dropped on return
        x, fv, fw = (tuple(dag.simplify(parse(c) if isinstance(c, str) else c)
                           for c in sources)
                     for sources in (x_sources, v_sources, w_sources))
        if len(x) != 3 or len(fv) != 3 or len(fw) != 3:
            raise SurfaceFormatError("X, v and w each need exactly 3 components")
        xu, xv = _partials(dag, x, "u"), _partials(dag, x, "v")
        m = tuple(dag.simplify(Neg(_half(c))) for c in _wedge_expr(dag, fv, fw))
        self._vectors = {
            key: compile_program(trees) for key, trees in (
                ("x_u", xu), ("x_v", xv), ("x_uu", _partials(dag, xu, "u")),
                ("x_uv", _partials(dag, xu, "v")), ("x_vv", _partials(dag, xv, "v")),
                ("v", fv), ("w", fw), ("m", m))}
        trees, lambda_til = _invariant_trees(dag, xu, xv, fv, fw, m)
        self._invariant_program = compile_program(trees)
        self._trace_fields = {
            "lambda_til": CompiledField(lambda_til, 0),
            "c2": CompiledField(trees[BasicInvariants._fields.index("c2")], 0)}
        # the array program derives its trees again on first use: kept,
        # they would hold up to a few hundred kB per surface, mostly unused
        self._tree_inputs = (xu, xv, fv, fw, m)

    # -- point evaluation ------------------------------------------------

    def scalar_field(self, name: str) -> CompiledField:
        """The compiled field lambda_til or c2, whose zero sets are traced."""
        return self._trace_fields[name]

    def invariant_arrays(self, u, v):
        """The invariant program over numpy arrays of points.

        Returns (BasicInvariants of arrays, fault mask); the mask is set
        where basic_invariants_at would raise inside the program (the
        domain is not checked).  The array program is compiled on first
        use and kept on the surface.
        """
        program = self.__dict__.get("_array_program")
        if program is None:
            from .arrays import ARRAY  # imports numpy

            trees = _invariant_trees(Dag(), *self._tree_inputs)[0]
            program = self._array_program = compile_program(trees, ARRAY)
        values, bad = program(u, v)
        return BasicInvariants._make(values), bad

    def _vec(self, name, u, v):
        return LVec3(*self._vectors[name](u, v))

    def x_u(self, u, v) -> LVec3:
        return self._vec("x_u", u, v)

    def x_v(self, u, v) -> LVec3:
        return self._vec("x_v", u, v)

    def x_uu(self, u, v) -> LVec3:
        return self._vec("x_uu", u, v)

    def x_uv(self, u, v) -> LVec3:
        return self._vec("x_uv", u, v)

    def x_vv(self, u, v) -> LVec3:
        return self._vec("x_vv", u, v)

    def frame_vec_v(self, u, v) -> LVec3:
        return self._vec("v", u, v)

    def frame_vec_w(self, u, v) -> LVec3:
        return self._vec("w", u, v)

    def frame_vec_m(self, u, v) -> LVec3:
        return self._vec("m", u, v)

    def require_in_domain(self, u, v):
        if not self.domain.contains(u, v):
            raise LcframeError(
                f"point ({u!r}, {v!r}) outside the domain of surface {self.name!r}")

    # -- serialisation helpers -------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceDef":
        try:
            name = data["name"]
            x = data["X"]
            v = data["v"]
            w = data["w"]
            dom = data["domain"]
        except KeyError as exc:
            raise SurfaceFormatError(f"missing surface key: {exc.args[0]!r}") from None
        for key, comp in (("X", x), ("v", v), ("w", w)):
            if not isinstance(comp, (list, tuple)) or len(comp) != 3:
                raise SurfaceFormatError(f"surface key {key!r} must list 3 expressions")
        try:
            bounds = [_bound(dom["u"][0]), _bound(dom["u"][1]),
                      _bound(dom["v"][0]), _bound(dom["v"][1])]
        except (KeyError, IndexError, TypeError):
            raise SurfaceFormatError(
                "domain must be {'u': [lo, hi], 'v': [lo, hi]}") from None
        return cls(name, x, v, w, DomainBox(*bounds))

    @classmethod
    def from_file(cls, path) -> "SurfaceDef":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SurfaceFormatError(f"cannot read surface file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SurfaceFormatError(f"surface file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _invariant_trees(dag, xu, xv, fv, fw, m_simplified):
    """The trees of the BasicInvariants fields, in field order, and of
    lam~, from X_u, X_v, the frame fields v, w and m = -(1/2) v^w,
    derived in the context dag."""
    # the inputs may be another context's nodes (invariant_arrays); taken
    # into dag, no subexpression of the result has two nodes
    xu, xv, fv, fw, m_simplified = (tuple(map(dag.simplify, vec))
                                    for vec in (xu, xv, fv, fw, m_simplified))
    # c1, c2, f and g pair against m unsimplified
    m = tuple(Neg(_half(c)) for c in _wedge_expr(dag, fv, fw))
    fv_u, fv_v = _partials(dag, fv, "u"), _partials(dag, fv, "v")
    fw_u, fw_v = _partials(dag, fw, "u"), _partials(dag, fw, "v")
    base = {
        "a1": Neg(_half(_pdot_expr(xu, fw))),
        "b1": Neg(_half(_pdot_expr(xu, fv))),
        "c1": _pdot_expr(xu, m),
        "a2": Neg(_half(_pdot_expr(xv, fw))),
        "b2": Neg(_half(_pdot_expr(xv, fv))),
        "c2": _pdot_expr(xv, m),
        "e1": _half(_pdot_expr(fv, fw_u)),
        "f1": _half(_pdot_expr(fw_u, m)),
        "g1": _half(_pdot_expr(fv_u, m)),
        "e2": _half(_pdot_expr(fv, fw_v)),
        "f2": _half(_pdot_expr(fw_v, m)),
        "g2": _half(_pdot_expr(fv_v, m)),
    }
    roots = {k: dag.simplify(v) for k, v in base.items()}
    for key in ("a1", "b1", "c1", "c2"):
        roots[key + "u"] = dag.differentiate(roots[key], "u")
        roots[key + "v"] = dag.differentiate(roots[key], "v")
    # n~ stays unsimplified, to run the float operations of
    # wedge(x_u, frame_vec_m), and comes last, to fail last
    roots.update(zip(("ntil_1", "ntil_2", "ntil_3"), _wedge_expr(dag, xu, m_simplified)))
    lambda_til = dag.simplify(Mul(Const(-4.0), Mul(base["a1"], base["b1"])))
    return [roots[key] for key in BasicInvariants._fields], lambda_til


def _bound(value):
    if isinstance(value, (int, float)):
        return float(value)
    return constant_value(str(value))


def frame_at(s: SurfaceDef, u: float, v: float) -> LightconeFrame:
    """Evaluate the frame triple (v, w, m) at a parameter point."""
    s.require_in_domain(u, v)
    return LightconeFrame(
        v=s.frame_vec_v(u, v),
        w=s.frame_vec_w(u, v),
        m=s.frame_vec_m(u, v),
    )


def basic_invariants_at(s: SurfaceDef, u: float, v: float) -> BasicInvariants:
    """Evaluate the frame coefficients, their tracked partials and n~."""
    s.require_in_domain(u, v)
    return BasicInvariants._make(s._invariant_program(u, v))


def validate_framed(s: SurfaceDef, grid=(16, 16), tol: float = 1e-8) -> FramedValidationReport:
    """Check the framed-surface conditions over a sample grid.

    Verifies at each grid point that (v, w) is an admissible lightlike
    pair, that a2 and b2 vanish, and that X_u ^ X_v = -a1*c2 v + b1*c2 w.
    The report carries the worst residuals and, on failure, the first
    witness point.
    """
    if not (0 < tol < math.inf):
        raise LcframeError("validation tolerance must be positive and finite")
    nu, nv = grid
    us, vs = s.domain.grid(nu, nv)
    max_wedge = max_pair = max_a2 = max_b2 = max_alpha = max_beta = 0.0
    witness = None

    for u in us:
        for v in vs:
            fr = frame_at(s, u, v)
            pair_res = max(
                abs(pseudo_dot(fr.v, fr.v)),
                abs(pseudo_dot(fr.w, fr.w)),
                abs(pseudo_dot(fr.v, fr.w) + 2.0),
            )
            scale = 1.0 + max(fr.v.max_abs(), fr.w.max_abs()) ** 2
            max_pair = max(max_pair, pair_res)
            if pair_res > tol * scale and witness is None:
                witness = (u, v, "lightlike-pair", pair_res)

            inv = basic_invariants_at(s, u, v)
            max_a2 = max(max_a2, abs(inv.a2))
            max_b2 = max(max_b2, abs(inv.b2))
            if abs(inv.a2) > tol and witness is None:
                witness = (u, v, "a2", inv.a2)
            if abs(inv.b2) > tol and witness is None:
                witness = (u, v, "b2", inv.b2)

            alpha = -inv.a1 * inv.c2
            beta = inv.b1 * inv.c2
            max_alpha = max(max_alpha, abs(alpha))
            max_beta = max(max_beta, abs(beta))
            lhs = wedge(s.x_u(u, v), s.x_v(u, v))
            rhs = fr.v.scaled(alpha) + fr.w.scaled(beta)
            res = (lhs - rhs).max_abs()
            wedge_scale = 1.0 + lhs.max_abs()
            max_wedge = max(max_wedge, res)
            if res > tol * wedge_scale and witness is None:
                witness = (u, v, "wedge-decomposition", res)

    return FramedValidationReport(
        grid=(nu, nv),
        tol=tol,
        max_wedge_residual=max_wedge,
        max_delta4_residual=max_pair,
        max_abs_a2=max_a2,
        max_abs_b2=max_b2,
        max_abs_alpha=max_alpha,
        max_abs_beta=max_beta,
        admitted=witness is None,
        witness=witness,
    )
