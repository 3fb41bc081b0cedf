"""Point classification, null directions, and zero-set tracing.

The taxonomy is driven entirely by sign tests on a1, b1, c2 and their
first partials:

* both a1 and b1 vanish        -> rank-two singular point (labelled only)
* c2 vanishes (a1, b1 not both) -> rank-one singular point; the kind is
  decided by c2v, degeneracy by dc2
* exactly one of a1, b1 vanishes with c2 != 0 -> lightlike point; the
  vanishing factor is the local defining function of the locus, so its
  differential decides degeneracy and its transversality test the kind
* otherwise the sign of lam~ = -4 a1 b1 separates spacelike (positive)
  from timelike (negative)

Each entry point evaluates the invariants once per point; the class,
the curvature packet and the singular curvature scalars at that point
are all derived from that one evaluation.

classify_grid evaluates a grid of ARRAY_MIN_POINTS (4096) points or
more as arrays, 1024 points per block (lcframe.arrays), with the same
values, rows and CSV bytes as the point loop and the same error at the
same first failing point.  Smaller grids, the demo's among them, stay
on the point loop: importing numpy costs 0.06-0.07 s and about 12 MB,
more than arrays save below that size.  Every float an artifact prints
goes through _FMT, '%.12g' (equal to format(x, '.12g')).

Loci are traced as zero sets of lam~ (lightlike locus) or c2 (rank-one
singular locus) by marching squares with bisection refinement.  The
field is sampled by its tensor-grid program (expr.compile_grid_program,
through CompiledField.grid): a value of u alone is computed once per
grid row, one of v alone once per column, so most operations of these
fields leave the per-point loop; the samples are bit-identical to the
point program's, and a fault raises the point loop's first error.  The
scan turns each row's signs into one int and visits only the cells
whose corner signs differ (1.6% of the cells of the seed-1
surface_survey benchmark's 64² traces), in row-major order, so
segments, vertices and CSV bytes are those of scanning every cell.
Bisection and the saddle centres call the field's point program
(CompiledField.program) directly.  Tracing never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .curvature import CurvaturePacket, _packet, _singular, is_zero
from .errors import LcframeError
from .minkowski import pseudo_dot
from .surface import BasicInvariants, SurfaceDef, basic_invariants_at
from .taxonomy import Category, Kind, LightlikeBranch, PointClass

__all__ = [
    "classify",
    "NullVector",
    "null_vector",
    "LocusPolyline",
    "trace_zero_set",
    "LineOfCurvatureReport",
    "line_of_curvature_test",
    "ClassificationRow",
    "ClassificationTable",
    "classify_grid",
    "WrongClassError",
    "CSV_HEADER",
]

CSV_HEADER = ("u", "v", "category", "sub", "kind", "degenerate",
              "lambda_til", "c2", "Ktil", "Htil", "K", "H", "kappa_til_1")

TRACEABLE_FIELDS = ("lambda_til", "c2")

#: Grids with at least this many points are evaluated as arrays
#: (lcframe.arrays); smaller ones point by point, as importing numpy
#: costs more than the arrays save there.
ARRAY_MIN_POINTS = 4096

#: The one float format of every artifact: format(x, ".12g"), also for
#: signed zeros and subnormals, as a bound method that maps quickly.
_FMT = "%.12g".__mod__

_BISECT_MAX_ITER = 30


class WrongClassError(LcframeError):
    """An operation was asked about a point of the wrong class."""


def _classify_from_invariants(inv: BasicInvariants, tol: float) -> PointClass:
    if math.hypot(inv.a1, inv.b1) <= tol:
        return PointClass(Category.SINGULAR_2)
    if abs(inv.c2) <= tol:
        degenerate = math.hypot(inv.c2u, inv.c2v) <= tol
        if degenerate:
            kind = Kind.INDETERMINATE
        else:
            kind = Kind.FIRST if abs(inv.c2v) > tol else Kind.SECOND
        return PointClass(Category.SINGULAR_1, degenerate=degenerate, kind=kind)
    a1_zero = abs(inv.a1) <= tol
    b1_zero = abs(inv.b1) <= tol
    if a1_zero != b1_zero:
        if a1_zero:
            branch = LightlikeBranch.L1
            differential = (inv.a1u, inv.a1v)
            transversal = inv.a1u * inv.c2 - inv.a1v * inv.c1
        else:
            branch = LightlikeBranch.L2
            differential = (inv.b1u, inv.b1v)
            transversal = inv.b1u * inv.c2 - inv.b1v * inv.c1
        degenerate = math.hypot(*differential) <= tol
        if degenerate:
            kind = Kind.INDETERMINATE
        else:
            kind = Kind.FIRST if abs(transversal) > tol else Kind.SECOND
        return PointClass(Category.LIGHTLIKE, lightlike_branch=branch,
                          degenerate=degenerate, kind=kind)
    lam = -4.0 * inv.a1 * inv.b1
    return PointClass(Category.SPACELIKE if lam > 0.0 else Category.TIMELIKE)


def _evaluate(s, u, v, tol=1e-9):
    """(invariants, class) of one parameter point."""
    if not (0 < tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    inv = basic_invariants_at(s, u, v)
    return inv, _classify_from_invariants(inv, tol)


def classify(s: SurfaceDef, u: float, v: float, tol: float = 1e-9) -> PointClass:
    """Classify one parameter point at the given tolerance."""
    return _evaluate(s, u, v, tol)[1]


@dataclass(frozen=True)
class NullVector:
    """Parameter-space direction eta whose image under dX is lightlike
    (or zero, at a singular point).  `residual` is <dX(eta), dX(eta)>."""

    eta: tuple
    residual: float


def null_vector(s: SurfaceDef, u: float, v: float, tol: float = 1e-9) -> NullVector:
    """Null direction at a lightlike or rank-one singular point.

    Lightlike points carry eta = c2 d_u - c1 d_v; at a rank-one singular
    point the v-direction itself is null because X_v vanishes.  Raises
    WrongClassError elsewhere.
    """
    inv, pc = _evaluate(s, u, v, tol)
    if pc.category is Category.LIGHTLIKE:
        eta = (inv.c2, -inv.c1)
    elif pc.category is Category.SINGULAR_1:
        eta = (0.0, 1.0)
    else:
        raise WrongClassError(
            f"null vector needs a lightlike or rank-one singular point, "
            f"got {pc.category.value} at ({u}, {v})")
    dx = s.x_u(u, v).scaled(eta[0]) + s.x_v(u, v).scaled(eta[1])
    return NullVector(eta=eta, residual=pseudo_dot(dx, dx))


# ---------------------------------------------------------------------------
# Zero-set tracing


@dataclass
class LocusPolyline:
    """A traced connected component of a field's zero set.

    vertices are (u, v) parameter points ordered along the curve;
    residuals are |field| at each vertex; degenerate flags whether the
    classification at the vertex reports a degenerate point (None when
    the vertex classifies off-locus at the refinement tolerance).
    """

    field: str
    vertices: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    closed: bool = False


def _bisect_edge(f, p0, p1, f0, f1, refine_tol):
    """Refine a sign-change along the segment p0-p1 to |f| <= refine_tol;
    f is the field's point program, (u, v) -> (value,)."""
    if f0 == 0.0:
        return p0, 0.0
    if f1 == 0.0:
        return p1, 0.0
    best_p, best_f = (p0, abs(f0)) if abs(f0) < abs(f1) else (p1, abs(f1))
    for _ in range(_BISECT_MAX_ITER):
        mid = ((p0[0] + p1[0]) / 2.0, (p0[1] + p1[1]) / 2.0)
        fm, = f(*mid)
        if abs(fm) < best_f:
            best_p, best_f = mid, abs(fm)
        if abs(fm) <= refine_tol:
            return mid, abs(fm)
        if (fm > 0.0) == (f0 > 0.0):
            p0, f0 = mid, fm
        else:
            p1, f1 = mid, fm
    return best_p, best_f


_SEGMENT_TABLE = {
    # corner sign pattern (bl, br, tr, tl), True = positive -> edge pairs
    # of a mixed cell; edges are 0 bottom, 1 right, 2 top, 3 left
    (True, False, False, False): ((3, 0),),
    (False, True, False, False): ((0, 1),),
    (False, False, True, False): ((1, 2),),
    (False, False, False, True): ((2, 3),),
    (True, True, False, False): ((3, 1),),
    (False, True, True, False): ((0, 2),),
    (False, False, True, True): ((1, 3),),
    (True, False, False, True): ((0, 2),),
    (True, True, True, False): ((2, 3),),
    (True, True, False, True): ((1, 2),),
    (True, False, True, True): ((0, 1),),
    (False, True, True, True): ((3, 0),),
    # saddles resolved by the centre sample at call time
    (True, False, True, False): None,
    (False, True, False, True): None,
}


def _mixed_cells(values):
    """(i, j) of each cell of the value grid whose corners values[i][j],
    values[i + 1][j], values[i + 1][j + 1] and values[i][j + 1] are not
    all positive or all not, in row-major order.

    Each row's signs are one int, bit j set where values[i][j] > 0.  A
    cell is mixed where a corner differs from the one in the next row
    (x = a ^ b, at column j or j + 1) or its two corners in row i do
    (a ^ a >> 1); if none of these do, the two in row i + 1 agree too."""
    columns = [1 << j for j in range(len(values[0]))]
    inner = columns[-1] - 1  # the cells j = 0 .. nv - 2
    bits = [sum(bit for bit, x in zip(columns, row) if x > 0.0) for row in values]
    for i, (a, b) in enumerate(zip(bits, bits[1:])):
        x = a ^ b
        mixed = (x | x >> 1 | a ^ a >> 1) & inner
        while mixed:
            low = mixed & -mixed
            yield i, low.bit_length() - 1
            mixed ^= low


def _segments(f, us, vs, values, refine_tol):
    """Marching squares over the mixed cells of values, the samples on
    the grid us x vs of the field whose point program, (u, v) ->
    (value,), is f: (segments, crossings).

    Each segment joins two edge keys, (i, j, "u") for the edge from
    grid point (i, j) to (i + 1, j) and (i, j, "v") for the one to
    (i, j + 1).  crossings maps every key to its crossing refined by
    bisection, so neighbouring cells share vertices exactly."""
    crossings = {}

    def edge_point(key, pa, pb, fa, fb):
        if key not in crossings:
            crossings[key] = _bisect_edge(f, pa, pb, fa, fb, refine_tol)
        return key

    segments = []
    for i, j in _mixed_cells(values):
        corners = (values[i][j], values[i + 1][j],
                   values[i + 1][j + 1], values[i][j + 1])
        pattern = tuple(c > 0.0 for c in corners)
        pairs = _SEGMENT_TABLE[pattern]
        pts = ((us[i], vs[j]), (us[i + 1], vs[j]),
               (us[i + 1], vs[j + 1]), (us[i], vs[j + 1]))
        edge_defs = (
            ((i, j, "u"), pts[0], pts[1], corners[0], corners[1]),   # bottom
            ((i + 1, j, "v"), pts[1], pts[2], corners[1], corners[2]),  # right
            ((i, j + 1, "u"), pts[3], pts[2], corners[3], corners[2]),  # top
            ((i, j, "v"), pts[0], pts[3], corners[0], corners[3]),   # left
        )
        if pairs is None:
            # ambiguous saddle: the centre sample picks the pairing
            centre, = f((us[i] + us[i + 1]) / 2.0, (vs[j] + vs[j + 1]) / 2.0)
            if (centre > 0.0) == pattern[0]:
                pairs = ((0, 1), (2, 3))
            else:
                pairs = ((3, 0), (1, 2))
        # every pair joins two distinct edges whose corner signs differ
        for pair in pairs:
            segments.append(tuple(edge_point(*edge_defs[e]) for e in pair))
    return segments, crossings


def trace_zero_set(
    s: SurfaceDef,
    field_name: str,
    resolution=(64, 64),
    refine_tol: float = 1e-9,
    classify_tol: float = 1e-9,
) -> list:
    """Trace the zero set of lam~ or c2 over the domain grid.

    The field is sampled over the grid by its grid program
    (CompiledField.grid); marching squares visits only the cells whose
    corner signs differ, every edge crossing is refined by bisection
    until |field| <= refine_tol (at most 30 halvings), and the
    resulting segments are linked into polylines.  Returns a list of
    LocusPolyline, possibly empty.
    """
    if field_name not in TRACEABLE_FIELDS:
        raise LcframeError(
            f"traceable fields are {TRACEABLE_FIELDS}, got {field_name!r}")
    nu, nv = resolution
    if nu < 8 or nv < 8:
        raise LcframeError(f"trace resolution must be at least 8x8, got {nu}x{nv}")
    if not (0 < refine_tol < math.inf):
        raise LcframeError("refinement tolerance must be positive and finite")
    if not (0 < classify_tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    fld = s.scalar_field(field_name)
    us, vs = s.domain.grid(nu, nv)
    segments, crossings = _segments(fld.program, us, vs, fld.grid(us, vs), refine_tol)
    return _link_segments(s, field_name, segments, crossings, classify_tol)


def _link_segments(s, field_name, segments, crossings, classify_tol):
    adjacency = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    used = set()
    polylines = []

    def walk(start):
        chain = [start]
        seen_edges = set()
        current = start
        while True:
            step = None
            for nxt in adjacency[current]:
                edge = frozenset((current, nxt))
                if edge not in seen_edges:
                    step = nxt
                    seen_edges.add(edge)
                    break
            if step is None:
                break
            chain.append(step)
            current = step
            if current == start:
                break
        return chain

    openings = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in openings:
        if start in used:
            continue
        chain = walk(start)
        if all(k not in used for k in chain):
            used.update(chain)
            polylines.append((chain, False))
    for start in sorted(adjacency):
        if start in used:
            continue
        chain = walk(start)
        closed = len(chain) > 1 and chain[0] == chain[-1]
        if closed:
            chain = chain[:-1]
        used.update(chain)
        polylines.append((chain, closed))

    expected = (Category.LIGHTLIKE if field_name == "lambda_til"
                else Category.SINGULAR_1)
    out = []
    for chain, closed in polylines:
        if len(chain) < 2:
            continue
        poly = LocusPolyline(field=field_name, closed=closed)
        for key in chain:
            (u, v), residual = crossings[key]
            poly.vertices.append((u, v))
            poly.residuals.append(residual)
            pc = classify(s, u, v, classify_tol)
            poly.degenerate.append(
                pc.degenerate if pc.category is expected else None)
        out.append(poly)
    out.sort(key=lambda p: p.vertices[0])
    return out


# ---------------------------------------------------------------------------
# Line-of-curvature criterion at rank-one singular points


@dataclass(frozen=True)
class LineOfCurvatureReport:
    """Whether the singular locus through the point is a line of
    curvature.

    The defining criterion is the vanishing of the derivative of c2
    along the bounded principal direction, (V1 . grad c2)(p) = 0.  For a
    first kind point this is equivalent to the torsion scalar
    kappa_t~ hitting 2(M~E~ - L~F~)/E~ (positive E~) or 2M~ (negative
    E~); for a second kind point it reduces to N~ = 0.  Both routes are
    reported along with their agreement."""

    applicable: bool
    reason: str | None
    kind: Kind | None = None
    is_line_of_curvature: bool | None = None
    directional_derivative: float | None = None
    kappa_t_til: float | None = None
    kappa_t_target: float | None = None
    routes_agree: bool | None = None


def line_of_curvature_test(
    s: SurfaceDef, u: float, v: float, tol: float = 1e-9
) -> LineOfCurvatureReport:
    """Run the line-of-curvature criterion at a rank-one singular point."""
    inv, pc = _evaluate(s, u, v, tol)
    if pc.category is not Category.SINGULAR_1 or pc.degenerate:
        return LineOfCurvatureReport(
            applicable=False,
            reason=f"needs a non-degenerate rank-one singular point, got "
                   f"{pc.category.value}{' (degenerate)' if pc.degenerate else ''}")
    p = _packet(s, u, v, inv)
    scale = (p.Etil, p.Ltil, p.Ntil)
    if is_zero(p.Etil, *scale):
        return LineOfCurvatureReport(applicable=False, reason="Etil~0", kind=pc.kind)

    if pc.kind is Kind.SECOND:
        # V1 = (Ntil, ...) and c2v = 0, so the criterion is Ntil = 0
        loc = is_zero(p.Ntil, *scale)
        dd = inv.c2u * p.Ntil
        return LineOfCurvatureReport(
            applicable=True, reason=None, kind=pc.kind,
            is_line_of_curvature=loc,
            directional_derivative=dd,
            routes_agree=loc == is_zero(dd, *scale),
        )

    sc = _singular(inv)
    if sc.kappa_t_til is None:
        return LineOfCurvatureReport(applicable=False, reason="c2v~0", kind=pc.kind)
    if p.Etil > 0:
        target = 2.0 * (p.Mtil * p.Etil - p.Ltil * p.Ftil) / p.Etil
    else:
        target = 2.0 * p.Mtil
    loc_torsion = abs(sc.kappa_t_til - target) <= 1e-8 * (1.0 + abs(target))
    kappa1 = p.Ltil / p.Etil  # bounded branch at a rank-one singular point
    v1 = (p.Ntil, -p.Mtil + kappa1 * p.Ftil)
    dd = inv.c2u * v1[0] + inv.c2v * v1[1]
    loc_direct = is_zero(dd, *scale)
    return LineOfCurvatureReport(
        applicable=True, reason=None, kind=pc.kind,
        is_line_of_curvature=loc_direct,
        directional_derivative=dd,
        kappa_t_til=sc.kappa_t_til,
        kappa_t_target=target,
        routes_agree=loc_torsion == loc_direct,
    )


# ---------------------------------------------------------------------------
# Grid classification


@dataclass(frozen=True)
class ClassificationRow:
    u: float
    v: float
    point_class: PointClass
    packet: CurvaturePacket
    c2: float


class ClassificationTable:
    """Row-major (u outer, v inner) classification of a sample grid.

    A grid of ARRAY_MIN_POINTS points or more keeps its arrays.Blocks:
    `rows` is built from them when first read, and write_csv formats
    them a block at a time without building rows.
    """

    def __init__(self, surface, resolution, tol, rows=None, grid=None, blocks=None):
        self.surface = surface
        self.resolution = tuple(resolution)
        self.tol = tol
        self._rows = rows
        self._grid = grid  # (us, vs) of the blocks
        self._blocks = blocks

    @property
    def rows(self) -> list:
        if self._rows is None:
            from .arrays import CLASSES

            self._rows = [
                ClassificationRow(u=p.u, v=p.v, point_class=CLASSES[code], packet=p, c2=c2)
                for block in self._blocks
                for p, code, c2 in zip(block.packets(), block.codes.tolist(),
                                       block.inv.c2.tolist())]
        return self._rows

    def write_csv(self, fh) -> None:
        fh.write(",".join(CSV_HEADER) + "\n")
        if self._blocks is None:
            for row in self._rows:
                p = row.packet
                fh.write(",".join((
                    _fmt(row.u), _fmt(row.v), _class_text(row.point_class),
                    _fmt(p.lambda_til), _fmt(row.c2), _fmt(p.Ktil), _fmt(p.Htil),
                    _fmt(p.K), _fmt(p.H), _fmt(p.kappa_til_1))) + "\n")
            return
        from .arrays import CLASSES, texts, write_grid_csv

        class_texts = [_class_text(pc) for pc in CLASSES]
        write_grid_csv(fh, *self._grid, self._blocks, lambda block: (
            [class_texts[code] for code in block.codes.tolist()],
            block.texts("lambda_til"), texts(block.inv.c2),
            *map(block.texts, ("Ktil", "Htil", "K", "H", "kappa_til_1"))))


def _class_text(pc):
    """The category, sub, kind and degenerate fields of a CSV row."""
    return ",".join((
        pc.category.value,
        pc.lightlike_branch.value if pc.lightlike_branch else "",
        pc.kind.value if pc.kind else "",
        "" if pc.degenerate is None else str(pc.degenerate).lower()))


def _fmt(x):
    return "" if x is None else _FMT(x)


def _point_rows(s, us, vs, tol):
    """The rows of the grid us x vs, one point at a time."""
    rows = []
    for u in us:
        for v in vs:
            inv = basic_invariants_at(s, u, v)
            rows.append(ClassificationRow(
                u=u, v=v, point_class=_classify_from_invariants(inv, tol),
                packet=_packet(s, u, v, inv), c2=inv.c2))
    return rows


def classify_grid(
    s: SurfaceDef, resolution=(32, 32), tol: float = 1e-9
) -> ClassificationTable:
    """Classify every point of a closed sample grid.

    Rows are emitted u-major then v, so identical configurations yield
    byte-identical CSV output.  A grid of ARRAY_MIN_POINTS points or
    more is evaluated as arrays, with the same values and the same
    error at the same first failing point."""
    if not (0 < tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    nu, nv = resolution
    us, vs = s.domain.grid(nu, nv)  # validates >= 2x2
    if nu * nv < ARRAY_MIN_POINTS:
        return ClassificationTable(s.name, (nu, nv), tol, rows=_point_rows(s, us, vs, tol))
    from .arrays import grid_blocks

    return ClassificationTable(s.name, (nu, nv), tol, grid=(us, vs),
                               blocks=list(grid_blocks(s, us, vs, tol)))
