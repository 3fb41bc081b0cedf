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
are all derived from that one evaluation.  The predicates are written
once, in _class_code, which returns an index into CLASSES; it runs on
the floats of a point as straight-line code traced from it
(straightline.float_code, compiled on first use) and on the arrays of a
block with arrays._ArrayOps.

grid_blocks alone picks a grid's evaluator: arrays from ARRAY_MIN_POINTS
(4096) points on, 4096 points per block (lcframe.arrays), else
_PointBlocks of CHUNK points, as importing numpy costs 0.06-0.07 s and
about 12 MB, more than arrays save below that size.  Both give the same
values and columns, and the same error at the same first failing point;
the rows and write_grid_csv, the writer of every classify and curvature
CSV, read only those.  Every float an artifact prints goes through
_FMT, '%.12g' (equal to format(x, '.12g')).

Loci are traced as zero sets of lam~ (lightlike locus) or c2 (rank-one
singular locus) by marching squares with bisection refinement, from
the field's programs in the surface's table (SurfaceDef.program).  Its
grid program (expr.compile_grid_program) samples the field computing a
value of u alone once per grid row and one of v alone once per column,
bit-identical to the point program, and a fault raises the point
loop's first error.  One scan turns each row's signs into one int,
visits only the cells whose corner signs differ (1.6% of the cells of
the seed-1 surface_survey benchmark's 64² traces), in row-major order,
and reads each one's 4-bit corner pattern from the same ints.  An edge
is an int that sorts as (row, column, u before v), so segments, vertices
and CSV bytes are those of scanning every cell.  An edge lies on at
most two cells, so the segments form paths and loops; each path is
walked from its least end, then each loop from its least edge.  Each
edge crossing is refined by one of the field's bisection kernels
(expr.compile_edge_kernels), which run every halving in one frame with
the point program's values, stop rule and errors bit for bit; the
saddle centres call the point program.  A vertex is classified from a
program of the ten roots _class_code reads (straightline.roots_read),
not the 23 invariants.
Tracing never imports numpy.
"""

from __future__ import annotations

import math
from itertools import chain

from ._record import Record
from .curvature import _packet, _packet_record, _point_fields, _singular, is_zero
from .errors import LcframeError
from .minkowski import pseudo_dot
from .straightline import float_code, roots_read
from .surface import BasicInvariants, SurfaceDef, _grid_size, basic_invariants_at
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

#: Points per CSV write: few enough that one chunk's column strings
#: stay small.
CHUNK = 1024

#: The one float format of every artifact: format(x, ".12g"), also for
#: signed zeros and subnormals, as a bound method that maps quickly.
_FMT = "%.12g".__mod__


class WrongClassError(LcframeError):
    """An operation was asked about a point of the wrong class."""


_KINDS = (Kind.INDETERMINATE, Kind.FIRST, Kind.SECOND)

#: Every PointClass the classifier returns, indexed by _class_code;
#: the kinds of each locus are in the order of _KINDS.
CLASSES = (
    PointClass(Category.SPACELIKE),
    PointClass(Category.TIMELIKE),
    PointClass(Category.SINGULAR_2),
    *(PointClass(Category.SINGULAR_1, degenerate=kind is Kind.INDETERMINATE, kind=kind)
      for kind in _KINDS),
    *(PointClass(Category.LIGHTLIKE, lightlike_branch=branch,
                 degenerate=kind is Kind.INDETERMINATE, kind=kind)
      for branch in (LightlikeBranch.L1, LightlikeBranch.L2) for kind in _KINDS),
)


def _class_code(inv: BasicInvariants, tol: float, ops):
    """The class of a point, or of arrays of points, as an index into
    CLASSES, from its invariants.  For a point it runs as
    float_code(_class_code, fields)(roots, tol)."""
    a1_zero = abs(inv.a1) <= tol
    b1_zero = abs(inv.b1) <= tol
    singular = abs(inv.c2) <= tol
    # the differential that decides degeneracy and the value that decides
    # the kind: dc2 and c2v on the singular locus, the vanishing factor's
    # differential and transversality on the lightlike one (L1 where a1 ~ 0)
    du = ops.where(singular, inv.c2u, ops.where(a1_zero, inv.a1u, inv.b1u))
    dv = ops.where(singular, inv.c2v, ops.where(a1_zero, inv.a1v, inv.b1v))
    decider = ops.where(singular, inv.c2v, du * inv.c2 - dv * inv.c1)
    kind = ops.where(ops.hypot(du, dv) <= tol, 0, ops.where(abs(decider) > tol, 1, 2))
    lam = -4.0 * inv.a1 * inv.b1
    return ops.where(ops.hypot(inv.a1, inv.b1) <= tol, 2, ops.where(
        singular, 3 + kind, ops.where(
            a1_zero != b1_zero, 6 + 3 * b1_zero + kind, ops.where(lam > 0.0, 0, 1))))


def _evaluate(s, u, v, tol=1e-9):
    """(invariants, class) of one parameter point."""
    if not (0 < tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    inv = basic_invariants_at(s, u, v)
    return inv, CLASSES[float_code(_class_code, BasicInvariants._fields)(inv, tol)]


def classify(s: SurfaceDef, u: float, v: float, tol: float = 1e-9) -> PointClass:
    """Classify one parameter point at the given tolerance."""
    return _evaluate(s, u, v, tol)[1]


class NullVector(Record):
    """Parameter-space direction eta whose image under dX is lightlike
    (or zero, at a singular point).  `residual` is <dX(eta), dX(eta)>."""

    __slots__ = ("eta", "residual")


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


class LocusPolyline(Record, mutable=True):
    """A traced connected component of a field's zero set.

    vertices are (u, v) parameter points ordered along the curve;
    residuals are |field| at each vertex; degenerate flags whether the
    classification at the vertex reports a degenerate point (None when
    the vertex classifies off-locus at the refinement tolerance).
    """

    __slots__ = ("field", "vertices", "residuals", "degenerate", "closed")
    _defaults = ([], [], [], False)


#: The segments of a cell by its corner pattern bl | br << 1 | tr << 2 |
#: tl << 3, a bit set where that corner's value is > 0: pairs of its
#: edges, 0 bottom, 1 right, 2 top and 3 left.  The saddles 5 and 10
#: are None: the centre sample picks their pairing.
_CELL_SEGMENTS = (
    (), ((3, 0),), ((0, 1),), ((3, 1),), ((1, 2),), None, ((0, 2),), ((2, 3),),
    ((2, 3),), ((0, 2),), None, ((1, 2),), ((1, 3),), ((0, 1),), ((3, 0),), (),
)


def _segments(point, edges, us, vs, values, refine_tol):
    """Marching squares over the mixed cells of values, a field's
    samples on the grid us x vs: (segments, crossings).  point is the
    field's point program and edges its bisection kernels.

    Each row's signs are one int, bit j set where values[i][j] > 0.  A
    cell is mixed where a corner differs from the one in the next row
    (x = a ^ b, at column j or j + 1) or its two corners in row i do
    (a ^ a >> 1); if none of these do, the two in row i + 1 agree too.
    The same bits give the cell's corner pattern, and the mixed cells
    are visited in row-major order.

    Each segment joins two edges, each an int: 2 * (i * nv + j) for the
    edge from grid point (i, j) to (i + 1, j) and one more for the one
    to (i, j + 1), so edges sort as (i, j, along u before along v).
    crossings maps every edge to its crossing refined by the kernel
    along that edge, so neighbouring cells share vertices exactly."""
    along_u, along_v = edges
    nv = len(vs)
    crossings = {}

    def crossing(edge):
        if edge not in crossings:
            i, j = divmod(edge >> 1, nv)
            if edge & 1:
                crossings[edge] = along_v(us[i], vs[j], vs[j + 1],
                                          values[i][j], values[i][j + 1], refine_tol)
            else:
                crossings[edge] = along_u(vs[j], us[i], us[i + 1],
                                          values[i][j], values[i + 1][j], refine_tol)
        return edge

    columns = [1 << j for j in range(nv)]
    inner = columns[-1] - 1  # the cells j = 0 .. nv - 2
    bits = [sum(bit for bit, x in zip(columns, row) if x > 0.0) for row in values]
    segments = []
    for i, (a, b) in enumerate(zip(bits, bits[1:])):
        x = a ^ b
        mixed = (x | x >> 1 | a ^ a >> 1) & inner
        while mixed:
            low = mixed & -mixed
            mixed ^= low
            j = low.bit_length() - 1
            left, right = a >> j, b >> j  # bits 0 and 1: corners j and j + 1
            pattern = left & 1 | (right & 3) << 1 | (left & 2) << 2
            pairs = _CELL_SEGMENTS[pattern]
            if pairs is None:
                # a saddle: the centre sample picks the pairing
                centre, = point((us[i] + us[i + 1]) / 2.0, (vs[j] + vs[j + 1]) / 2.0)
                pairs = ((0, 1), (2, 3)) if (centre > 0.0) == (pattern == 5) else ((3, 0), (1, 2))
            edge = 2 * (i * nv + j)
            cell = (edge, edge + 2 * nv + 1, edge + 2, edge + 1)  # bottom, right, top, left
            # every pair joins two distinct edges whose corner signs differ
            segments += [(crossing(cell[p]), crossing(cell[q])) for p, q in pairs]
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
    (SurfaceDef.program).  One scan of the rows' sign bits finds the
    cells whose corner signs differ and their corner patterns, whose
    segments join edges named by ints (_segments); every edge crossing
    is refined by the field's bisection kernel along that edge until
    |field| <= refine_tol (at most expr.HALVINGS halvings, else the
    point of least |field| seen).  Each path or loop of segments is a
    polyline (_chains).  Returns a list of LocusPolyline, possibly empty.
    """
    if field_name not in TRACEABLE_FIELDS:
        raise LcframeError(
            f"traceable fields are {TRACEABLE_FIELDS}, got {field_name!r}")
    nu, nv = _grid_size(resolution)
    if nu < 8 or nv < 8:
        raise LcframeError(f"trace resolution must be at least 8x8, got {nu}x{nv}")
    if not (0 < refine_tol < math.inf):
        raise LcframeError("refinement tolerance must be positive and finite")
    if not (0 < classify_tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    point, grid, edges = (s.program((field_name,), schedule)
                          for schedule in ("point", "grid", "edges"))
    us, vs = s.domain.grid(nu, nv)
    segments, crossings = _segments(point, edges, us, vs, grid(us, vs), refine_tol)
    return _link_segments(s, field_name, segments, crossings, classify_tol)


def _chains(segments):
    """The polylines of segments as (edges, closed).  An edge is in one
    or two segments (it lies on at most two cells), so they form paths
    and loops: each path is walked from its least end, then each loop
    from its least edge towards its first neighbour in segment order,
    each step to the neighbour that is not the previous edge."""
    neighbours = {}  # edge -> the edges it shares a segment with, in segment order
    for a, b in segments:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    used, chains = set(), []
    for start in sorted(neighbours, key=lambda edge: (len(neighbours[edge]), edge)):
        chain, previous, edge = [], None, start
        while edge is not None and edge not in used:
            used.add(edge)
            chain.append(edge)
            previous, edge = edge, next(
                (k for k in neighbours[edge] if k != previous), None)
        if chain:
            chains.append((chain, edge == start))
    return chains


def _link_segments(s, field_name, segments, crossings, classify_tol):
    """The LocusPolylines of segments, each vertex the crossing of its
    edge, ordered by their first vertices."""
    chains = _chains(segments)
    if not chains:
        return []  # compiles no vertex program
    expected = (Category.LIGHTLIKE if field_name == "lambda_til"
                else Category.SINGULAR_1)
    roots = roots_read(_class_code)
    program, class_code = s.program(roots), float_code(_class_code, roots)
    out = []
    for chain, closed in chains:
        poly = LocusPolyline(field=field_name, closed=closed)
        for edge in chain:
            (u, v), residual = crossings[edge]
            poly.vertices.append((u, v))
            poly.residuals.append(residual)
            pc = CLASSES[class_code(program(u, v), classify_tol)]
            poly.degenerate.append(
                pc.degenerate if pc.category is expected else None)
        out.append(poly)
    out.sort(key=lambda p: p.vertices[0])
    return out


# ---------------------------------------------------------------------------
# Line-of-curvature criterion at rank-one singular points


class LineOfCurvatureReport(Record):
    """Whether the singular locus through the point is a line of
    curvature.

    The defining criterion is the vanishing of the derivative of c2
    along the bounded principal direction, (V1 . grad c2)(p) = 0.  For a
    first kind point this is equivalent to the torsion scalar
    kappa_t~ hitting 2(M~E~ - L~F~)/E~ (positive E~) or 2M~ (negative
    E~); for a second kind point it reduces to N~ = 0.  Both routes are
    reported along with their agreement."""

    __slots__ = ("applicable", "reason", "kind", "is_line_of_curvature",
                 "directional_derivative", "kappa_t_til", "kappa_t_target", "routes_agree")
    _defaults = (None,) * 6


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


class ClassificationRow(Record):
    """One point of a ClassificationTable: its PointClass, its
    CurvaturePacket and c2."""

    __slots__ = ("u", "v", "point_class", "packet", "c2")


class ClassificationTable:
    """Row-major (u outer, v inner) classification of a sample grid.

    Holds the grid (us, vs) and its blocks, as grid_blocks gives them
    classified: `rows` is built from them when first read, and
    write_csv formats them CHUNK points at a time without building
    rows.
    """

    def __init__(self, surface, resolution, tol, grid, blocks):
        self.surface = surface
        self.resolution = tuple(resolution)
        self.tol = tol
        self._rows = None
        self._grid = grid  # (us, vs) of the blocks
        self._blocks = blocks

    @property
    def rows(self) -> list:
        if self._rows is None:
            self._rows = [
                ClassificationRow(u=p.u, v=p.v, point_class=CLASSES[code], packet=p, c2=c2)
                for block in self._blocks
                for p, code, c2 in zip(block.packets(), block.values("class"),
                                       block.values("c2"))]
        return self._rows

    def write_csv(self, fh) -> None:
        fh.write(",".join(CSV_HEADER) + "\n")
        class_texts = [_class_text(pc) for pc in CLASSES]
        write_grid_csv(fh, *self._grid, self._blocks, lambda block, part: (
            [class_texts[code] for code in block.values("class", part)],
            *(block.texts(name, part) for name in CSV_HEADER[6:])))


def _class_text(pc):
    """The category, sub, kind and degenerate fields of a CSV row."""
    return ",".join((
        pc.category.value,
        pc.lightlike_branch.value if pc.lightlike_branch else "",
        pc.kind.value if pc.kind else "",
        "" if pc.degenerate is None else str(pc.degenerate).lower()))


def _fmt(x):
    return "" if x is None else _FMT(x)


class _PointBlock:
    """Up to CHUNK consecutive points of a grid below ARRAY_MIN_POINTS,
    with arrays.Block's columns over lists, each point evaluated as
    curvature_packet and classify evaluate it but with no domain check,
    as a grid's points lie in the domain (DomainBox.grid).  Like a
    Block it keeps one list per column and per flag, a slot per point,
    None where the packet has None."""

    def __init__(self, s, start, u, v, tol=None):
        self.start, self.u, self.v = start, u, v
        program = s.program(BasicInvariants._fields)
        class_code = float_code(_class_code, BasicInvariants._fields)
        points = []  # (values, flags) of each point, until they become columns
        for u, v in zip(self.u, self.v):
            inv = BasicInvariants._make(program(u, v))
            values, flags = _point_fields(s, u, v, inv)
            if tol is not None:
                values["class"] = class_code(inv, tol)
            points.append((values, flags))
        values, flags = points[0]
        self.columns = {name: [p[0][name] for p in points] for name in values}
        self.flags = {name: [p[1][name] for p in points] for name in flags}

    def values(self, name, part=slice(None)):
        return self.columns[name][part]

    def texts(self, name, part=slice(None)):
        return list(map(_fmt, self.values(name, part)))

    def packets(self):
        return [_packet_record(u, v, {name: values[i] for name, values in self.columns.items()},
                               {name: where[i] for name, where in self.flags.items()})
                for i, (u, v) in enumerate(zip(self.u, self.v))]


def grid_blocks(s, us, vs, tol=None):
    """The blocks of the grid us x vs in row-major order (u outer),
    classified at tol when it is given: arrays.Blocks from
    ARRAY_MIN_POINTS points on, else _PointBlocks.  Each block is
    evaluated when it is reached."""
    if len(us) * len(vs) >= ARRAY_MIN_POINTS:
        from .arrays import grid_blocks as array_blocks

        yield from array_blocks(s, us, vs, tol)
        return
    u_all, v_all = [u for u in us for _ in vs], list(vs) * len(us)
    for start in range(0, len(u_all), CHUNK):
        stop = start + CHUNK
        yield _PointBlock(s, start, u_all[start:stop], v_all[start:stop], tol)


def write_grid_csv(fh, us, vs, blocks, columns):
    """Write one CSV line per point of `blocks`, CHUNK points at a time:
    u and v, each formatted once per grid line, then the text columns
    that columns(block, part) gives for the block's points `part`."""
    nv = len(vs)
    u_texts, v_texts = list(map(_FMT, us)), list(map(_FMT, vs))
    for block in blocks:
        for lo in range(0, len(block.u), CHUNK):
            part = slice(lo, min(lo + CHUNK, len(block.u)))
            # the whole grid lines the chunk's points lie on, cut to them
            first, offset = divmod(block.start + lo, nv)
            cut = slice(offset, offset + part.stop - lo)
            lines = -(-cut.stop // nv)
            u_col = list(chain.from_iterable(
                [t] * nv for t in u_texts[first:first + lines]))[cut]
            v_col = (v_texts * lines)[cut]
            fh.write("\n".join(map(",".join, zip(u_col, v_col, *columns(block, part))))
                     + "\n")
        del block  # freed before the next block is built


def classify_grid(
    s: SurfaceDef, resolution=(32, 32), tol: float = 1e-9
) -> ClassificationTable:
    """Classify every point of a closed sample grid.

    Rows are emitted u-major then v, so identical configurations yield
    byte-identical CSV output.  The grid is evaluated by grid_blocks."""
    if not (0 < tol < math.inf):
        raise LcframeError("classification tolerance must be positive and finite")
    nu, nv = _grid_size(resolution)
    us, vs = s.domain.grid(nu, nv)  # validates >= 2x2
    return ClassificationTable(s.name, (nu, nv), tol, (us, vs),
                               list(grid_blocks(s, us, vs, tol)))
