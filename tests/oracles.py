"""Reference implementations that the tests compare lcframe against,
and first_difference, which says where two large outputs part."""

import math
import operator
from collections import namedtuple
from types import SimpleNamespace
from typing import NamedTuple

from lcframe import limits
from lcframe.classify import CLASSES, _class_code
from lcframe.curvature import _gauss_mean
from lcframe.errors import LcframeError, _require_tol
from lcframe.expr import HALVINGS, Dag, EvalDomainError, ExprSyntaxError, compile_program, parse
from lcframe.limits import (
    ABS_ZERO, ORDER_SNAP, SLOPE_UNBOUNDED, SLOPE_ZERO, ApproachPath, DirectionOutcome,
    LimitVerdict, QuantityUndefinedError, SampleOutsideDomainError, Verdict,
)
from lcframe.numerics import loglog_slope, richardson
from lcframe.surface import (
    _FRAMED_ROOTS, FramedValidationReport, _coefficient_bound, _grid_size, _residual_vector,
)
from lcframe.taxonomy import Category

#: The operations of the shared decisions (curvature._gauss_mean,
#: curvature._packet_fields, classify._class_code) on floats, run as
#: written: the interpreted form that their compiled float code
#: (straightline.float_code) must match bit for bit.  where and not_
#: decide; pow and div compute only where their mask holds (NaN
#: elsewhere), so an untaken branch never faults, and a fault raises as
#: plain float code does.  lcframe.arrays spells the same operations
#: over numpy arrays.
FLOAT_OPS = SimpleNamespace(
    where=lambda cond, a, b: a if cond else b,
    not_=operator.not_,
    max=max,
    hypot=math.hypot,
    sqrt=math.sqrt,
    pow=lambda x, p, where: x ** p if where else math.nan,
    div=lambda a, b, where: a / b if where else math.nan,
)


def first_difference(got, want):
    """(index, got line, wanted line) of the first line where two texts
    differ, None if they are equal; cheaper to report than a diff of
    two large CSVs."""
    if got == want:
        return None
    got, want = got.split("\n"), want.split("\n")
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return i, got[i:i + 1], want[i:i + 1]


def bisect_edge(f, p0, p1, f0, f1, refine_tol):
    """Refine a sign change along the segment p0-p1 to |f| <= refine_tol,
    halving at most HALVINGS times, as each step was first written; f is
    the field's point program, (u, v) -> (value,), and f0, f1 its values
    at p0, p1.  Returns (point, |value|): an end where the value is 0.0,
    the first midpoint within refine_tol, or else the point of least
    |value| seen."""
    if f0 == 0.0:
        return p0, 0.0
    if f1 == 0.0:
        return p1, 0.0
    best_p, best_f = (p0, abs(f0)) if abs(f0) < abs(f1) else (p1, abs(f1))
    for _ in range(HALVINGS):
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


def partial_programs(source, order):
    """The point programs of the partial derivatives of source (text or
    a tree) up to order: {(du, dv): program}, program the one-tree
    compile_program of d^(du+dv) source / du^du dv^dv.  One Dag derives
    them all: the u partials from the simplified tree, and each v
    partial from the one before it."""
    dag = Dag()
    trees = {(0, 0): dag.simplify(parse(source) if isinstance(source, str) else source)}
    for i in range(1, order + 1):
        trees[(i, 0)] = dag.differentiate(trees[(i - 1, 0)], "u")
    for i in range(order + 1):
        for j in range(1, order + 1 - i):
            trees[(i, j)] = dag.differentiate(trees[(i, j - 1)], "v")
    return {key: compile_program([tree]) for key, tree in trees.items()}


def tokenize(source):
    """The tokens of source text, (kind, text or value, offset), read one
    character at a time with str.isspace, isdigit, isalpha and isalnum,
    as lcframe.expr first read them; ending in ("end", "", len(source)).
    Raises the ExprSyntaxError of the first bad character or number
    literal."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", source, i) from None
            tokens.append(("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", source, i,
                              expected=("number", "identifier", "operator"))
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Limits reports, one sample at a time

#: The roots a limits sample reads, named: what the decisions read of a
#: program's values.
SampleRoots = namedtuple("SampleRoots", limits._sample_roots())


class Sample(NamedTuple):
    """The record of one sample, as limits._Sample."""

    u: float
    v: float
    c2: float
    lambda_til: float
    Ktil: float
    Htil: float
    K: float | None
    H: float | None


def sample_ray(s, path):
    """(u, v, roots, class) of every sample of path on s, in schedule
    order, each sample one call of the samples' program, classified by
    the decision as written: the loop a limits ray ran before its ray
    kernel.  The first sample that leaves the domain or does not
    classify regular raises."""
    program = s.program(limits._sample_roots())
    samples = []
    for (u, v) in path.points():
        if not s.domain.contains(u, v):
            raise SampleOutsideDomainError(
                f"sample ({u!r}, {v!r}) outside domain of {s.name!r}")
        inv = SampleRoots(*program(u, v))
        pc = CLASSES[_class_code(inv, 1e-9, FLOAT_OPS)]
        if not pc.is_regular:
            raise QuantityUndefinedError(
                f"sample ({u!r}, {v!r}) hit a {pc.category.value} locus")
        samples.append((u, v, inv, pc))
    return samples


def records(samples):
    """The Sample record of each sample of sample_ray, built once every
    sample has classified, by the decision as written."""
    out = []
    for u, v, inv, _ in samples:
        f, _, has_kh, K, H = _gauss_mean(inv, FLOAT_OPS)
        if not has_kh:
            K = H = None
        out.append(Sample(u, v, inv.c2, f[6], f[7], f[8], K, H))
    return out


def quantity_values(quantity, recs):
    if quantity == "K":
        values = [rec.K for rec in recs]
    elif quantity == "H":
        values = [rec.H for rec in recs]
    else:
        values = [None if rec.K is None else rec.c2 * rec.K for rec in recs]
    if None in values:
        rec = recs[values.index(None)]
        raise QuantityUndefinedError(
            f"{quantity} undefined at sample ({rec.u!r}, {rec.v!r})")
    return values


def field_values(name, quantity, recs):
    if name != "Gamma":
        return [getattr(rec, name) for rec in recs]
    if quantity == "H":
        return [rec.c2 * abs(rec.lambda_til) ** 1.5 for rec in recs]
    if quantity == "c2K":
        return [abs(rec.lambda_til) ** 2 for rec in recs]
    return [rec.c2 * abs(rec.lambda_til) ** 2 for rec in recs]


def fit_order(distances, values, residual=False):
    """(order, slope_residual) of values sampled at distances, the slope
    fitted by loglog_slope's loop."""
    mags = list(map(abs, values))
    if all(m <= ABS_ZERO for m in mags):
        return math.inf, 0.0
    slope, _, resid = loglog_slope(distances, mags, residual)
    if slope is None:
        return None, None
    snapped = round(slope)
    if abs(slope - snapped) <= ORDER_SNAP:
        return float(snapped), resid
    return slope, resid


def verdict(path, distances, quantity, recs, numerator_orders):
    """The LimitVerdict of quantity from the records of path's samples,
    at distances (a tuple), each sequence fitted by loglog_slope."""
    values = quantity_values(quantity, recs)
    num_field = "Htil" if quantity == "H" else "Ktil"
    if num_field not in numerator_orders:
        numerator_orders[num_field] = fit_order(
            distances, field_values(num_field, quantity, recs))[0]
    l_order = numerator_orders[num_field]
    m_order = fit_order(distances, field_values("Gamma", quantity, recs))[0]
    mags = list(map(abs, values))
    if all(m <= ABS_ZERO for m in mags):
        note = "identically zero on the schedule"
    elif l_order is math.inf:
        note = f"numerator {num_field} vanishes on the schedule"
    else:
        note = None
    if note is not None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.ZERO_LIMIT, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=distances, values=tuple(values), note=note)
    slope, _, resid = loglog_slope(distances, mags)
    if slope is None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.INCONCLUSIVE, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=distances, values=tuple(values),
            note="could not fit a slope (zeros in the sample sequence)")
    if slope >= SLOPE_ZERO:
        outcome, value, note = Verdict.ZERO_LIMIT, None, None
    elif slope <= SLOPE_UNBOUNDED:
        outcome, value, note = Verdict.UNBOUNDED, None, None
    else:
        extrapolated = richardson(values[-4:], path.ratio, levels=2)
        converged = abs(values[-1] - values[-2]) <= 5e-2 * (1.0 + abs(extrapolated))
        if converged and abs(extrapolated) > 1e-9:
            outcome, value, note = Verdict.NONZERO_LIMIT, extrapolated, None
        else:
            outcome, value = Verdict.INCONCLUSIVE, None
            note = "flat slope without convergence" if not converged \
                else "flat slope but extrapolated value is zero at tolerance"
    return LimitVerdict(
        quantity=quantity, verdict=outcome, value=value,
        numerator_order=l_order, denominator_order=m_order,
        slope=slope, slope_residual=resid,
        distances=distances, values=tuple(values), note=note)


def limit_along(s, path, quantity):
    """limits.limit_along, each sample evaluated and fitted as above."""
    if quantity not in limits.QUANTITIES:
        raise LcframeError(f"quantity must be one of {limits.QUANTITIES}, got {quantity!r}")
    _, tc = limits._target(s, *path.target)
    if tc.category not in (Category.LIGHTLIKE, Category.SINGULAR_1):
        raise LcframeError(
            f"limit target must be lightlike or rank-one singular, "
            f"got {tc.category.value} at {path.target}")
    return verdict(path, tuple(path.distances()), quantity,
                   records(sample_ray(s, path)), {})


def boundedness_report(s, u, v, directions=8, r0=1e-1, count=12):
    """limits.boundedness_report, each ray sampled and fitted as above;
    the fan and the summary are the library's."""
    pc, rays = limits._fan(s, u, v, directions, count)
    report = limits.BoundednessReport(target=(u, v), category=pc.category, kind=pc.kind)
    for label, direction in rays:
        path = ApproachPath(target=(u, v), direction=direction, r0=r0, count=count)
        try:
            samples = sample_ray(s, path)
        except LcframeError as exc:
            report.outcomes.append(DirectionOutcome(
                label=label, direction=direction, side=None,
                verdicts={}, error=str(exc)))
            continue
        sides = {sample_class.category for *_, sample_class in samples}
        side = sides.pop().value if len(sides) == 1 else None
        verdicts, error = {}, None
        try:
            recs, numerator_orders = records(samples), {}
            for q in limits._report_quantities(pc.category):
                verdicts[q] = verdict(path, tuple(path.distances()), q, recs,
                                      numerator_orders)
        except LcframeError as exc:
            error = str(exc)
        report.outcomes.append(DirectionOutcome(
            label=label, direction=direction, side=side,
            verdicts=verdicts, error=error))
    limits._summarise(report, pc)
    return report


# ---------------------------------------------------------------------------
# Framed-surface validation, with a max() call per residual


def validate_framed(s, grid=(16, 16), tol=1e-8):
    """surface.validate_framed with the residual loop it first ran: the
    same values and float operations, each largest value taken with the
    builtin max().  The a2 and b2 tests read the bound of the grid's
    largest tangent and frame components (surface._coefficient_bound),
    so the loop runs twice: the first pass finds those components, and
    raises what the loop raises; the second tests against the bound."""
    _require_tol(tol, "validation tolerance")
    nu, nv = _grid_size(grid)
    us, vs = s.domain.grid(nu, nv)
    *_, tangent, frame = _residual_loop(s, us, vs, tol, math.inf)
    *fields, witness, _, _ = _residual_loop(s, us, vs, tol,
                                            _coefficient_bound(tol, tangent, frame))
    return FramedValidationReport(
        grid=(nu, nv), tol=tol, max_wedge_residual=fields[0], max_delta4_residual=fields[1],
        max_abs_a2=fields[2], max_abs_b2=fields[3], max_abs_alpha=fields[4],
        max_abs_beta=fields[5], admitted=witness is None, witness=witness)


def _residual_loop(s, us, vs, tol, bound):
    """(the largest wedge, pair, |a2|, |b2|, |alpha| and |beta|, the
    first witness, the largest |X_u|, |X_v| component, the largest |v|,
    |w| component) over the grid us x vs, a2 and b2 tested against
    bound."""
    try:
        rows = s.program(_FRAMED_ROOTS, "grid")(us, vs)
    except EvalDomainError:
        # evaluated point by point as the residuals read them, so an
        # earlier point's vector fault is raised before this fault
        point = s.program(_FRAMED_ROOTS)
        rows = ((point(u, v) for v in vs) for u in us)
    max_wedge = max_pair = max_a2 = max_b2 = max_alpha = max_beta = 0.0
    max_tangent = max_frame = 0.0
    witness = None
    inf, isfinite = math.inf, math.isfinite

    for u, row in zip(us, rows):
        for v, values in zip(vs, row):
            (v1, v2, v3, w1, w2, w3, a1, b1, a2, b2, c2,
             xu1, xu2, xu3, xv1, xv2, xv3) = values
            vv = -v1 * v1 + v2 * v2 + v3 * v3
            ww = -w1 * w1 + w2 * w2 + w3 * w3
            vw = -v1 * w1 + v2 * w2 + v3 * w3
            frame = max(abs(v1), abs(v2), abs(v3), abs(w1), abs(w2), abs(w3))
            max_frame = max(max_frame, frame)
            max_tangent = max(max_tangent, abs(xu1), abs(xu2), abs(xu3),
                              abs(xv1), abs(xv2), abs(xv3))
            try:
                scale = 1.0 + frame ** 2
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
            if abs(a2) > bound and witness is None:
                witness = (u, v, "a2", a2)
            if abs(b2) > bound and witness is None:
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

    return (max_wedge, max_pair, max_a2, max_b2, max_alpha, max_beta, witness,
            max_tangent, max_frame)
