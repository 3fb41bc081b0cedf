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
products, so sign tests on them are noise-free.

The derivation belongs to a surface's shape: its component trees with
each generic constant a slot, which it shares with every surface that
differs from it only in its constants' values, such as its images
under X -> cX, a Lorentz transformation or a parameter shift.  A shape
is derived in one expr.Dag, so each distinct subexpression is
simplified and differentiated once; the context is dropped when the
derivation returns, and neither the shape nor the compiled programs
keep a reference to it.  The process's one table of shapes is keyed by
the token key of the nine component texts (expr._token_key): their
tokens, with each generic constant its slot index.  A known key gives
the shape, and the constants are read from the tokens, so texts are
parsed and derived only the first time their key is seen.  A miss, and
components that are trees or not ASCII text, parse and derive.
Domain bounds are keyed the same way (expr.constant_value).  A shape
keeps one table of trees by root name: the 23 BasicInvariants fields
(the twenty coefficients and partials, and n~ = X_u ^ m), lam~ = -4 a1
b1 folded over the a1 and b1 trees, and the vectors X_u, X_v, v, w and
m.  A build compiles nothing (loading a definition compiles each
domain bound that is not a single constant).
SurfaceDef.program(roots, schedule) is the one compile route: a
program of the roots a consumer reads, on the point, arrays, grid or
edges schedule, with the surface's constants bound, compiled on first
use and kept.  basic_invariants_at reads all 23 invariants,
validate_framed v, w, a1, b1, a2, b2, c2, X_u and X_v over its grid, a
trace its field alone and the ten roots its vertex classes read,
limits the 15 roots of its samples' classes and K/H records, and a
packet that takes the 0/0 limit of kappa_til_1 the u-partials of the
roots its fundamentals read (curvature._JetRoots).  lcframe imports
numpy only for the arrays schedule.

Surfaces handled here satisfy a2 = b2 = 0: the v-tangent is
proportional to m.  That condition is validated, not normalised.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import NamedTuple

from ._record import Record, _set
from .errors import LcframeError
from .expr import (
    Add, Const, Dag, EvalDomainError, Expr, ExprError, Mul, Neg, Slot, Sub, Var, _numbering,
    _token_key, _TokenKey, _too_deep, compile_edge_kernels, compile_grid_program,
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


class DomainBox(Record):
    """Closed parameter rectangle [u_min, u_max] x [v_min, v_max]."""

    __slots__ = ("u_min", "u_max", "v_min", "v_max")

    def __init__(self, u_min: float, u_max: float, v_min: float, v_max: float):
        bounds = (u_min, u_max, v_min, v_max)
        widths = (u_max - u_min, v_max - v_min)  # grid steps
        if not all(map(math.isfinite, bounds + widths)):
            raise SurfaceFormatError(
                f"domain bounds and their distances must be finite, got {bounds}")
        if not (u_min < u_max and v_min < v_max):
            raise SurfaceFormatError(f"degenerate domain box {bounds}")
        for name, value in zip(self._fields, bounds):
            _set(self, name, value)

    def contains(self, u: float, v: float, slack: float = _SLACK) -> bool:
        """Whether (u, v) lies in the box widened by slack; u and v may
        also be numpy arrays of points, giving an array of verdicts."""
        return ((self.u_min - slack <= u) & (u <= self.u_max + slack)
                & (self.v_min - slack <= v) & (v <= self.v_max + slack))

    def grid(self, nu: int, nv: int):
        """Closed sampling: both endpoints of each interval included, and
        every point inside the box as contains sees it."""
        _grid_size((nu, nv))
        if nu < 2 or nv < 2:
            raise LcframeError(f"grid resolution must be at least 2x2, got {nu}x{nv}")
        return _samples(self.u_min, self.u_max, nu), _samples(self.v_min, self.v_max, nv)


def _require_int(value, what):
    """Raise the LcframeError of a count that is not an integer, or is a
    bool, which range() or a comparison would take or reject with a
    TypeError only once it is used."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise LcframeError(f"{what} must be an integer, got {value!r}")


def _is_number(value):
    """Whether value is a number a tolerance or a distance may be: not a
    bool, and of a type with __float__, so that ints, floats and numpy
    scalars pass and a comparison raises no TypeError."""
    return not isinstance(value, bool) and hasattr(type(value), "__float__")


def _require_tol(value, what):
    """Raise the LcframeError of a tolerance that is not a positive finite
    number."""
    if not (_is_number(value) and 0 < value < math.inf):
        raise LcframeError(f"{what} must be positive and finite")


def _grid_size(resolution):
    """(nu, nv) of a grid resolution; the LcframeError of one that is not
    a pair of integers."""
    try:
        nu, nv = resolution
    except (TypeError, ValueError):
        raise LcframeError(
            f"grid resolution must be a pair of integers, got {resolution!r}") from None
    _require_int(nu, "grid resolution nu")
    _require_int(nv, "grid resolution nv")
    return nu, nv


def _samples(lo, hi, n):
    """n evenly spaced samples of [lo, hi], lo + (hi - lo) * i / (n - 1).
    Far from the origin rounding can carry a sample past a bound by more
    than contains allows; such a sample is set to that bound, and every
    other sample is kept as computed."""
    xs = (lo + (hi - lo) * i / (n - 1) for i in range(n))
    return [x if lo - _SLACK <= x <= hi + _SLACK else min(max(x, lo), hi) for x in xs]


class LightconeFrame(Record):
    """Frame triple at a point: lightlike pair (v, w) and the unit
    spacelike leg m = -(1/2) v^w, each an LVec3."""

    __slots__ = ("v", "w", "m")


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


class FramedValidationReport(Record):
    """Grid-sampled residuals of the framed-surface conditions.

    wedge residual: largest component of X_u^X_v - (alpha v + beta w)
    with alpha = -a1*c2 and beta = b1*c2; pair residual: worst failure
    of the lightlike-pair conditions <v,v> = <w,w> = 0, <v,w> = -2.
    A surface is admitted when every residual is below tolerance.
    """

    __slots__ = (
        "grid", "tol", "max_wedge_residual", "max_delta4_residual", "max_abs_a2",
        "max_abs_b2", "max_abs_alpha", "max_abs_beta", "admitted",
        "witness",  # (u, v, check_name, value) for the first failure, or None
    )


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
    """A surface: its name, its domain, its shape and its constants.

    The components of X, v and w are keyed by their tokens, each generic
    constant its slot index (expr._token_key), and the process's table
    of shapes (_by_tokens) gives the shape of a known key without a
    parse.  On a miss, or for components that are trees or not ASCII
    text, they are parsed with each generic constant a slot
    (expr.parse), and the shape, the derivation of those trees (_Shape),
    is derived.  So a surface and its images under X -> cX, a Lorentz
    transformation of (X, v, w) or a parameter shift, which differ only
    in their constants, parse, derive and number their trees once per
    process if written alike.  constants holds the slots' values.
    program(roots, schedule) binds them to the shape's numbering of
    roots and compiles the program of the roots a consumer reads on
    first use, keeping it under (roots, schedule); its code is shared
    with every program of the same numbering (expr.compile_program), and
    found without hashing the numbering again.

    A shape is immutable but for the second partials and numberings it
    fills in on first use, and a surface but for the programs it keeps
    and the literal shape it may take (program): threads racing there
    derive, number or compile equal values, and one is kept
    (dict.setdefault, an attribute write; the table keeps one shape per
    key).
    Every evaluation is pure, so surfaces may be built and shared freely
    across threads.  The command line relies on this: it shares each
    built surface across the calls of cli.main in one process.
    """

    def __init__(self, name, x_sources, v_sources, w_sources, domain):
        self.name = str(name)
        if not isinstance(domain, DomainBox):
            domain = DomainBox(*domain)
        self.domain = domain
        sources = (x_sources, v_sources, w_sources)
        slots = {}  # each generic constant -> its slot index
        key = _texts_key(sources, slots)
        if key is not None:
            self.shape = _by_tokens(key)
        else:
            slots = {}  # the repr of each generic constant -> its Slot
            self.shape = _parsed_shape(sources, slots)
        self.constants = tuple(map(float, slots))
        self._programs = {}  # (roots, schedule) -> program compiled on first use

    def program(self, roots: tuple, schedule: str = "point"):
        """The program of roots, a tuple of root names, compiled on its
        first use and kept; a vector name stands for its 3 components.

        schedule "point" gives compile_program's (u, v) -> tuple of
        values, "arrays" the same over numpy arrays (arrays.ARRAY),
        "grid" compile_grid_program's tensor-grid program, and "edges"
        compile_edge_kernels' bisection kernels of one root, which call
        its point program on a fault.  Every schedule is compiled from
        the shape's numbering of roots with this surface's constants
        bound.  Where a constant value of those trees is one that the
        derivation's rules fold further if its slots are constants (0.0
        or +-1.0: expr._Numbering.folds_further), the surface's shape
        becomes that of its components with every constant literal,
        derived once, which has no slots, so the values are those of the
        literal derivation in every case.  Threads racing here compile
        equal programs, and the first one kept is returned to all of
        them."""
        program = self._programs.get((roots, schedule))
        if program is not None:
            return program
        slotted, folds = self.shape.numbering(roots)
        numbering = slotted.bound(self.constants)
        # a numbering without slots binds to itself and has nothing to
        # fold further; the literal shape has none, so once taken it is
        # this surface's shape from then on
        if numbering != slotted and numbering.folds_further(folds):
            try:  # _literal recurses about two frames per tree level
                literal = tuple(tuple(_literal(c, self.constants) for c in trees)
                                for trees in self.shape.components)
            except RecursionError as exc:
                raise _too_deep("simplify", exc) from None
            self.shape = _Shape(literal)
            numbering = self.shape.numbering(roots)[0]
        if schedule == "point":
            program = compile_program(numbering)
        elif schedule == "arrays":
            from .arrays import ARRAY  # imports numpy

            program = compile_program(numbering, ARRAY)
        elif schedule == "grid":
            program = compile_grid_program(numbering)
        elif schedule == "edges":
            program = compile_edge_kernels(numbering, self.program(roots))
        else:
            raise ValueError(f"unknown program schedule {schedule!r}")
        return self._programs.setdefault((roots, schedule), program)

    # -- point evaluation ------------------------------------------------

    def invariant_arrays(self, u, v):
        """The invariant program over numpy arrays of points.

        Returns (BasicInvariants of arrays, fault mask); the mask is set
        where basic_invariants_at would raise inside the program (the
        domain is not checked).
        """
        values, bad = self.program(BasicInvariants._fields, "arrays")(u, v)
        return BasicInvariants._make(values), bad

    def _vec(self, name, u, v):
        return LVec3(*self.program((name,))(u, v))

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
        if not isinstance(data, dict):
            raise SurfaceFormatError(
                f"a surface must be a JSON object, got {type(data).__name__}")
        try:
            name = data["name"]
            x = data["X"]
            v = data["v"]
            w = data["w"]
            dom = data["domain"]
        except KeyError as exc:
            raise SurfaceFormatError(f"missing surface key: {exc.args[0]!r}") from None
        # the command line writes its outputs to files named after it
        if not isinstance(name, str) or not name or any(c in name for c in "/\\\0"):
            raise SurfaceFormatError(
                f"surface name must be a nonempty string without '/', '\\' or NUL, got {name!r}")
        for key, comp in (("X", x), ("v", v), ("w", w)):
            if not isinstance(comp, (list, tuple)) or len(comp) != 3:
                raise SurfaceFormatError(f"surface key {key!r} must list 3 expressions")
        # exactly two bounds each: a string's characters are no bounds
        pairs = [dom.get(key) for key in ("u", "v")] if isinstance(dom, dict) else [None]
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs):
            raise SurfaceFormatError("domain must be {'u': [lo, hi], 'v': [lo, hi]}")
        return cls(name, x, v, w, DomainBox(*(_bound(b) for pair in pairs for b in pair)))

    @classmethod
    def from_file(cls, path) -> "SurfaceDef":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise _file_error(path, exc) from None
        return cls.from_dict(data)


def _file_error(path, exc):
    """The SurfaceFormatError of a .surf file whose reading or decoding
    raised exc: an OSError, a UnicodeDecodeError, a json.JSONDecodeError,
    or the ValueError or RecursionError of JSON beyond the decoder's
    limits (an integer of more digits than int() converts, nesting
    deeper than the recursion limit)."""
    if isinstance(exc, OSError):
        return SurfaceFormatError(f"cannot read surface file {path}: {exc}")
    if isinstance(exc, (UnicodeDecodeError, json.JSONDecodeError)):
        what = "UTF-8" if isinstance(exc, UnicodeDecodeError) else "valid JSON"
        return SurfaceFormatError(f"surface file {path} is not {what}: {exc}")
    return SurfaceFormatError(f"surface file {path} exceeds a limit of the JSON decoder: {exc}")


def _invariant_trees(dag, xu, xv, fv, fw, m_simplified):
    """The trees of the BasicInvariants fields, by name, from
    X_u, X_v, the frame fields v, w and m = -(1/2) v^w, derived in the
    context dag.  The inputs may be another context's nodes: they are
    taken into dag first, so no subexpression of a result has two
    nodes."""
    xu, xv, fv, fw, m_simplified = (tuple(map(dag.simplify, vec))
                                    for vec in (xu, xv, fv, fw, m_simplified))
    # c1, c2, f and g pair against m unsimplified
    m = tuple(Neg(_half(c)) for c in _wedge_expr(dag, fv, fw))
    fv_u, fv_v = _partials(dag, fv, "u"), _partials(dag, fv, "v")
    fw_u, fw_v = _partials(dag, fw, "u"), _partials(dag, fw, "v")
    base = {
        "a1": Neg(_half(_pdot_expr(xu, fw))),
        "b1": Neg(_half(_pdot_expr(xu, fv))),
        "c2": _pdot_expr(xv, m),
        "c1": _pdot_expr(xu, m),
        "a2": Neg(_half(_pdot_expr(xv, fw))),
        "b2": Neg(_half(_pdot_expr(xv, fv))),
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
    return roots


class _Shape:
    """The derivation of a surface's component trees, whose generic
    constants are slots: every surface whose texts have the token key
    it was derived for shares it, whatever its constants' values.

    Construction derives, in one derivation context (expr.Dag) that is
    dropped when it returns, one table of trees by root name: the
    BasicInvariants fields, lambda_til, and x_u, x_v, v, w and m, three
    trees each.  trees(name) reads it; a name that is a root's name and
    then u or v, such as x_uu or a1uu, is that root's partial, derived
    in a context of its own when first read.  numbering(roots) is
    the value numbering of the trees of roots and its folds
    (expr._Numbering), numbered on first use.  components are the trees
    it was derived from.
    """

    __slots__ = ("components", "_trees", "_numberings")

    def __init__(self, components):
        self.components = components
        dag = Dag()  # every derivation of this shape; dropped on return
        x, fv, fw = (tuple(map(dag.simplify, trees)) for trees in components)
        xu, xv = _partials(dag, x, "u"), _partials(dag, x, "v")
        m = tuple(dag.simplify(Neg(_half(c))) for c in _wedge_expr(dag, fv, fw))
        # derived here, where the context already holds most of their
        # subexpressions.  lam~ is folded over the a1 and b1 trees, which
        # adds three nodes
        roots = _invariant_trees(dag, xu, xv, fv, fw, m)
        roots["lambda_til"] = dag.simplify(Mul(Const(-4.0), Mul(roots["a1"], roots["b1"])))
        # root name -> its trees: one for a scalar, three for a vector
        self._trees = {k: (tree,) for k, tree in roots.items()}
        self._trees.update(x_u=xu, x_v=xv, v=fv, w=fw, m=m)
        self._numberings = {}  # roots -> (their numbering, its folds)

    def trees(self, name):
        trees = self._trees.get(name)
        if trees is None:
            root, var = name[:-1], name[-1:]
            if var not in ("u", "v"):
                raise KeyError(name)
            trees = self._trees.setdefault(name, _partials(Dag(), self.trees(root), var))
        return trees

    def numbering(self, roots):
        hit = self._numberings.get(roots)
        if hit is None:
            numbering = _numbering([tree for name in roots for tree in self.trees(name)])
            hit = self._numberings.setdefault(roots, (numbering, numbering.folds()))
        return hit


#: How many shapes a process keeps, least recently used first out.
SHAPES = 64


def _texts_key(sources, slots):
    """The token key of the components of X, v and w (expr._token_key),
    their slots numbered together in slots and the texts carried
    (expr._TokenKey); or None unless they are nine ASCII texts, three
    each, with no bad number literal."""
    if any(type(texts) not in (list, tuple) or len(texts) != 3 for texts in sources):
        return None
    key = []
    for texts in sources:
        for text in texts:
            if type(text) is not str:
                return None
            tokens = _token_key(text, slots)
            if tokens is None:
                return None
            key.append(tokens)
    return _TokenKey(key, tuple(map(tuple, sources)))


@lru_cache(maxsize=SHAPES)
def _by_tokens(key):
    """The shape of the texts key carries (_texts_key), parsed on a miss
    of the process's table of the SHAPES token keys most recently used.
    Texts whose tokens differ from these only in their generic constants
    hit it, and parse and derive nothing; any other texts miss it, and
    parse and derive.  A build that raises is not kept."""
    return _parsed_shape(key.sources, {})


def _parsed_shape(sources, slots):
    """The shape of the components of X, v and w, parsed with slots
    (_component) and derived."""
    components = tuple(tuple(_component(c, slots) for c in texts) for texts in sources)
    if any(len(c) != 3 for c in components):
        raise SurfaceFormatError("X, v and w each need exactly 3 components")
    return _Shape(components)


def _component(source, slots):
    """The tree of one component, text parsed with slots."""
    if isinstance(source, str):
        return parse(source, slots)
    if not isinstance(source, Expr):
        raise ExprError(f"malformed expression node: {source!r}")
    return source


def _literal(e, constants):
    """The tree e with each Slot the Const of its value in constants."""
    cls = type(e)
    if cls is Slot:
        return Const(constants[e.index])
    if cls is Const or cls is Var:
        return e
    return cls(*(_literal(x, constants) if isinstance(x, Expr) else x
                 for x in (getattr(e, name) for name in e._fields)))


def _bound(value):
    if isinstance(value, bool):  # an int, but not a number of JSON
        raise SurfaceFormatError(
            f"domain bound must be a number or an expression, got {json.dumps(value)}")
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
    return BasicInvariants._make(s.program(BasicInvariants._fields)(u, v))


#: The roots validate_framed reads, in the order it evaluates them.
_FRAMED_ROOTS = ("v", "w", "a1", "b1", "a2", "b2", "c2", "x_u", "x_v")


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
    _require_tol(tol, "validation tolerance")
    nu, nv = _grid_size(grid)
    us, vs = s.domain.grid(nu, nv)
    try:
        rows = s.program(_FRAMED_ROOTS, "grid")(us, vs)
    except EvalDomainError:
        # evaluated point by point as the residuals read them, so an
        # earlier point's vector fault is raised before this fault
        point = s.program(_FRAMED_ROOTS)
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
