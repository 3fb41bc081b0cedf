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

The twenty trees and the three components of n~ = X_u ^ m are derived
at construction and kept, and construction compiles nothing (loading a
definition compiles each domain bound that is not a single constant).
Every program is compiled on first use and kept on the surface: from
the kept trees, the 23-root invariant program (expr.compile_program,
which computes each shared subexpression once) on the first
basic_invariants_at, and its array form (the same numbering in the
arrays.ARRAY environment), which large grids evaluate a block of
points per call; the eight vectors read point by point (X_u, X_v, X_uu,
X_uv, X_vv and the frame legs v, w, m), one 3-root program each; and
lam~ = -4 a1 b1 and c2, whose zero sets are traced, each an
expr.CompiledField whose tree is derived and simplified once, in one
context, and which compiles from that tree its point program and, on
the first trace, its tensor-grid program.  The vector programs and
traced fields derive their trees again from the kept inputs (X_u, X_v,
v, w, m), in a context of their own.  lcframe imports numpy only for
the array form.

validate_framed evaluates v, w, X_u, X_v and the invariants a1, b1, a2,
b2 and c2 over its grid as one tensor-grid program
(expr.compile_grid_program) and compiles nothing else: neither the
invariant program nor a vector program, m's among them.

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
    Add, CompiledField, Const, Dag, EvalDomainError, Mul, Neg, Sub, compile_grid_program,
    compile_program, constant_value, parse,
)
from .minkowski import LVec3, wedge

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

#: How far outside its box DomainBox.contains lets a point lie.
_SLACK = 1e-12


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
        bounds = (self.u_min, self.u_max, self.v_min, self.v_max)
        widths = (self.u_max - self.u_min, self.v_max - self.v_min)  # grid steps
        if not all(map(math.isfinite, bounds + widths)):
            raise SurfaceFormatError(
                f"domain bounds and their distances must be finite, got {bounds}")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise SurfaceFormatError(
                f"degenerate domain box {self.u_min, self.u_max, self.v_min, self.v_max}")

    def contains(self, u: float, v: float, slack: float = _SLACK) -> bool:
        """Whether (u, v) lies in the box widened by slack; u and v may
        also be numpy arrays of points, giving an array of verdicts."""
        return ((self.u_min - slack <= u) & (u <= self.u_max + slack)
                & (self.v_min - slack <= v) & (v <= self.v_max + slack))

    def grid(self, nu: int, nv: int):
        """Closed sampling: both endpoints of each interval included, and
        every point inside the box as contains sees it."""
        if nu < 2 or nv < 2:
            raise LcframeError(f"grid resolution must be at least 2x2, got {nu}x{nv}")
        return _samples(self.u_min, self.u_max, nu), _samples(self.v_min, self.v_max, nv)


def _samples(lo, hi, n):
    """n evenly spaced samples of [lo, hi], lo + (hi - lo) * i / (n - 1).
    Far from the origin rounding can carry a sample past a bound by more
    than contains allows; such a sample is set to that bound, and every
    other sample is kept as computed."""
    xs = (lo + (hi - lo) * i / (n - 1) for i in range(n))
    return [x if lo - _SLACK <= x <= hi + _SLACK else min(max(x, lo), hi) for x in xs]


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
    """Surface triple with its symbolic invariant trees.

    The components of X, v and w are parsed and simplified once, and
    the 23 BasicInvariants fields (with n~) are derived from them
    symbolically, in a derivation context (expr.Dag) that is dropped
    when construction returns; the trees are kept.  Construction
    compiles nothing.  The first basic_invariants_at compiles the
    invariant trees into one program evaluated in one call, and
    invariant_arrays compiles them for arrays.  Each vector accessor
    (x_u, x_v, x_uu, x_uv, x_vv, frame_vec_v, frame_vec_w, frame_vec_m)
    is one 3-root program, and scalar_field gives the traced fields
    lambda_til and c2 (a point program, and a grid program compiled on
    the first CompiledField.grid call), each derived again in a context
    of its own.  Every program is compiled on first use and kept.

    Instances are immutable after construction, except for the programs
    kept on first use: threads racing there compile equal programs, and
    one is kept.  No derivation state is shared between builds or kept
    on the surface, and every evaluation is pure, so surfaces may be
    built and shared freely across threads.
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
        # derived here, where the build's context already holds most of
        # their subexpressions; compiled on first use
        self._invariants = _invariant_trees(dag, xu, xv, fv, fw, m)
        # the vector programs and traced fields derive their trees again on
        # first use: kept, they would hold up to a few hundred kB per
        # surface, mostly unused
        self._tree_inputs = (xu, xv, fv, fw, m)
        self._programs = {}  # key -> program compiled on first use

    def _compile(self, key):
        """The program key (the invariant program's "invariants" or
        "arrays", a vector accessor's or a traced field's), compiled and
        kept; threads racing here compile equal programs, and the first
        one kept is returned to all of them."""
        if key == "invariants":
            program = compile_program(self._invariants)
        elif key == "arrays":
            from .arrays import ARRAY  # imports numpy

            program = compile_program(self._invariants, ARRAY)
        elif key in _TRACED:
            dag = Dag()  # the tree is simplified once, here
            program = CompiledField(_traced_tree(dag, key, *self._tree_inputs[:4]), 0, dag)
        else:
            program = compile_program(_vector_trees(key, *self._tree_inputs))
        return self._programs.setdefault(key, program)

    # -- point evaluation ------------------------------------------------

    def scalar_field(self, name: str) -> CompiledField:
        """The compiled field lambda_til or c2, whose zero sets are traced."""
        if name not in _TRACED:
            raise KeyError(name)
        return self._programs.get(name) or self._compile(name)

    def invariant_arrays(self, u, v):
        """The invariant program over numpy arrays of points.

        Returns (BasicInvariants of arrays, fault mask); the mask is set
        where basic_invariants_at would raise inside the program (the
        domain is not checked).
        """
        program = self._programs.get("arrays") or self._compile("arrays")
        values, bad = program(u, v)
        return BasicInvariants._make(values), bad

    def _vec(self, name, u, v):
        program = self._programs.get(name) or self._compile(name)
        return LVec3(*program(u, v))

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


def _taken(dag, *vectors):
    """The vectors' trees taken into dag: they may be another context's
    nodes, and once taken no subexpression of a result has two nodes."""
    return (tuple(map(dag.simplify, vec)) for vec in vectors)


def _pairings(dag, xu, xv, fv, fw):
    """m = -(1/2) v^w and the trees of a1, b1 and c2, all unsimplified,
    from X_u, X_v and the frame fields v, w interned in dag."""
    # c1, c2, f and g pair against m unsimplified
    m = tuple(Neg(_half(c)) for c in _wedge_expr(dag, fv, fw))
    return m, {
        "a1": Neg(_half(_pdot_expr(xu, fw))),
        "b1": Neg(_half(_pdot_expr(xu, fv))),
        "c2": _pdot_expr(xv, m),
    }


def _invariant_trees(dag, xu, xv, fv, fw, m_simplified):
    """The trees of the BasicInvariants fields, in field order, from
    X_u, X_v, the frame fields v, w and m = -(1/2) v^w, derived in the
    context dag."""
    xu, xv, fv, fw, m_simplified = _taken(dag, xu, xv, fv, fw, m_simplified)
    m, base = _pairings(dag, xu, xv, fv, fw)
    fv_u, fv_v = _partials(dag, fv, "u"), _partials(dag, fv, "v")
    fw_u, fw_v = _partials(dag, fw, "u"), _partials(dag, fw, "v")
    base.update({
        "c1": _pdot_expr(xu, m),
        "a2": Neg(_half(_pdot_expr(xv, fw))),
        "b2": Neg(_half(_pdot_expr(xv, fv))),
        "e1": _half(_pdot_expr(fv, fw_u)),
        "f1": _half(_pdot_expr(fw_u, m)),
        "g1": _half(_pdot_expr(fv_u, m)),
        "e2": _half(_pdot_expr(fv, fw_v)),
        "f2": _half(_pdot_expr(fw_v, m)),
        "g2": _half(_pdot_expr(fv_v, m)),
    })
    roots = {k: dag.simplify(v) for k, v in base.items()}
    for key in ("a1", "b1", "c1", "c2"):
        roots[key + "u"] = dag.differentiate(roots[key], "u")
        roots[key + "v"] = dag.differentiate(roots[key], "v")
    # n~ stays unsimplified, to run the float operations of
    # wedge(x_u, frame_vec_m), and comes last, to fail last
    roots.update(zip(("ntil_1", "ntil_2", "ntil_3"), _wedge_expr(dag, xu, m_simplified)))
    return [roots[key] for key in BasicInvariants._fields]


#: The traced fields, each as a tree over the unsimplified a1, b1 and c2.
_TRACED = {
    "lambda_til": lambda base: Mul(Const(-4.0), Mul(base["a1"], base["b1"])),
    "c2": lambda base: base["c2"],
}


def _traced_tree(dag, name, xu, xv, fv, fw):
    """The tree of the traced field name, derived in the context dag."""
    xu, xv, fv, fw = _taken(dag, xu, xv, fv, fw)
    return dag.simplify(_TRACED[name](_pairings(dag, xu, xv, fv, fw)[1]))


#: The second partials of X: which first partial, by which variable.
_SECOND_PARTIALS = {"x_uu": ("x_u", "u"), "x_uv": ("x_u", "v"), "x_vv": ("x_v", "v")}


def _vector_trees(key, xu, xv, fv, fw, m):
    """The three trees of the vector program key; a second partial of X
    is derived in a context of its own."""
    kept = {"x_u": xu, "x_v": xv, "v": fv, "w": fw, "m": m}
    if key in _SECOND_PARTIALS:
        first, var = _SECOND_PARTIALS[key]
        return _partials(Dag(), kept[first], var)
    return kept[key]


def _bound(value):
    if isinstance(value, (int, float)):
        try:
            return float(value)  # DomainBox rejects a non-finite one
        except OverflowError:
            raise SurfaceFormatError("domain bound too large for a float") from None
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
    program = s._programs.get("invariants") or s._compile("invariants")
    return BasicInvariants._make(program(u, v))


#: The invariants validate_framed reads, in the order it evaluates them.
_VALIDATED = tuple(BasicInvariants._fields.index(k) for k in ("a1", "b1", "a2", "b2", "c2"))


def validate_framed(s: SurfaceDef, grid=(16, 16), tol: float = 1e-8) -> FramedValidationReport:
    """Check the framed-surface conditions over a sample grid.

    Verifies at each grid point that (v, w) is an admissible lightlike
    pair, that a2 and b2 vanish, and that X_u ^ X_v = -a1*c2 v + b1*c2 w.
    The report carries the worst residuals and, on failure, the first
    witness point, in row-major order.  A pair residual or its scale
    that overflows fails the lightlike-pair check at that point, with
    residual inf.

    v, w, a1, b1, a2, b2, c2, X_u and X_v are evaluated over the grid as
    one tensor-grid program (expr.compile_grid_program), and each
    residual is computed from their values with the float operations of
    pseudo_dot, wedge, LVec3.scaled and LVec3.max_abs.  An evaluation
    fault, or a residual vector with a non-finite component, raises the
    error that evaluating those roots and building those vectors point
    by point raises first.
    """
    if not (0 < tol < math.inf):
        raise LcframeError("validation tolerance must be positive and finite")
    nu, nv = grid
    us, vs = s.domain.grid(nu, nv)
    xu, xv, fv, fw, _ = s._tree_inputs
    trees = [*fv, *fw, *(s._invariants[k] for k in _VALIDATED), *xu, *xv]
    try:
        rows = compile_grid_program(trees)(us, vs)
    except EvalDomainError:
        # evaluated point by point as the residuals read them, so an
        # earlier point's vector fault is raised before this fault
        point = compile_program(trees)
        rows = ((point(u, v) for v in vs) for u in us)
    max_wedge = max_pair = max_a2 = max_b2 = max_alpha = max_beta = 0.0
    witness = None
    inf, isfinite = math.inf, math.isfinite

    for u, row in zip(us, rows):
        for v, values in zip(vs, row):
            (v1, v2, v3, w1, w2, w3, a1, b1, a2, b2, c2,
             xu1, xu2, xu3, xv1, xv2, xv3) = values
            vv = -v1 * v1 + v2 * v2 + v3 * v3
            ww = -w1 * w1 + w2 * w2 + w3 * w3
            vw = -v1 * w1 + v2 * w2 + v3 * w3
            try:
                scale = 1.0 + max(abs(v1), abs(v2), abs(v3), abs(w1), abs(w2), abs(w3)) ** 2
            except OverflowError:
                scale = inf
            if isfinite(vv) and isfinite(ww) and isfinite(vw):
                pair_res = max(abs(vv), abs(ww), abs(vw + 2.0))
                pair_failed = pair_res > tol * scale or scale == inf
            else:
                pair_res, pair_failed = inf, True
            max_pair = max(max_pair, pair_res)
            if pair_failed and witness is None:
                witness = (u, v, "lightlike-pair", pair_res)

            max_a2 = max(max_a2, abs(a2))
            max_b2 = max(max_b2, abs(b2))
            if abs(a2) > tol and witness is None:
                witness = (u, v, "a2", a2)
            if abs(b2) > tol and witness is None:
                witness = (u, v, "b2", b2)

            alpha = -a1 * c2
            beta = b1 * c2
            max_alpha = max(max_alpha, abs(alpha))
            max_beta = max(max_beta, abs(beta))
            # lhs = wedge(X_u, X_v), rhs = v.scaled(alpha) + w.scaled(beta)
            lhs1 = -(xu2 * xv3 - xu3 * xv2)
            lhs2 = xu3 * xv1 - xu1 * xv3
            lhs3 = xu1 * xv2 - xu2 * xv1
            d1 = lhs1 - (alpha * v1 + beta * w1)
            d2 = lhs2 - (alpha * v2 + beta * w2)
            d3 = lhs3 - (alpha * v3 + beta * w3)
            if not (isfinite(d1) and isfinite(d2) and isfinite(d3)):
                # one of the vectors gets a non-finite component: raise
                # the error its LVec3 raises
                _residual_vector(values)
            res = max(abs(d1), abs(d2), abs(d3))
            wedge_scale = 1.0 + max(abs(lhs1), abs(lhs2), abs(lhs3))
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


def _residual_vector(values):
    """X_u ^ X_v - (alpha v + beta w) at one point, from the values of
    validate_framed's roots there, built with LVec3 algebra: a vector
    with a non-finite component raises LVec3's error."""
    v1, v2, v3, w1, w2, w3, a1, b1, a2, b2, c2, *tangents = values
    lhs = wedge(LVec3(*tangents[:3]), LVec3(*tangents[3:]))
    alpha, beta = -a1 * c2, b1 * c2
    return lhs - (LVec3(v1, v2, v3).scaled(alpha) + LVec3(w1, w2, w3).scaled(beta))
