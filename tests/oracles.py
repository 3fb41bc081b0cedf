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
from lcframe.errors import LcframeError
from lcframe.expr import HALVINGS, Dag, ExprSyntaxError, compile_program, parse
from lcframe.limits import (
    ABS_ZERO, ORDER_SNAP, SLOPE_UNBOUNDED, SLOPE_ZERO, ApproachPath, DirectionOutcome,
    LimitVerdict, QuantityUndefinedError, SampleOutsideDomainError, Verdict,
)
from lcframe.numerics import loglog_slope, richardson
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
