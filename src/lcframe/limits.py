"""Limit and vanishing-order estimation near lightlike and singular loci.

The classical curvatures factor as K = K~ / Gamma_K and H = H~ / Gamma_H
with Gamma_K = c2 |lam~|^2 and Gamma_H = c2 |lam~|^(3/2).  Approaching a
point of the locus along a path, both numerator and denominator vanish
to some integer order (the setting is real-analytic), so the behaviour
of the quotient is decided by the order gap: a positive gap gives limit
zero, a zero gap a finite nonzero limit, a negative gap blow-up.  This
module estimates those orders and limits from geometric sample
schedules and reports the matching verdict.

The verdict of a quantity along a path, in the order it is decided:
- every sample of the quantity is at most ABS_ZERO: limit zero;
- the numerator order l is infinite (every K~ or H~ sample is at most
  ABS_ZERO, the numerator vanishes on the schedule): limit zero,
  whatever the slope of the samples, which are then rounding noise
  divided by a vanishing Gamma;
- otherwise the log-log slope of the samples decides: decay at order
  >= 1/2 reads as limit zero, growth at order <= -1/2 as unbounded, and
  a flat sequence as a finite nonzero limit (Richardson-extrapolated)
  when it converges, inconclusive when it does not or no slope fits.
The orders l of the numerator and m of Gamma are reported with every
verdict.  A fit computes its rms residual only where a result keeps it:
the quantity's own slope and vanishing_order, not the order fits of a
verdict.

Each ray is walked by one ray kernel (_ray_kernel), generated once per
process from the traces of `classify._class_code` and
`curvature._gauss_mean` over the 15 roots they read (_sample_roots).
For each sample in turn it tests the domain, calls the samples' program
once, decides the class inline, and builds the sample's record of c2,
lam~, K~, H~, K and H inline; the first sample that leaves the domain
or does not classify regular raises.  Every quantity, field and verdict
along the path is read from the ray's records, taken as columns.  The
target of a report, of limit_along and of vanishing_order is evaluated
by the same program, so limits compiles no invariant program of all 23
roots, and a fault in a root it does not read (a2, b2, e2, c1u, c1v,
n~) fails no sample.  A report builds no curvature packet, so it
computes no principal curvature and no kappa_til_1, whose 0/0 limit
would evaluate further points on the u-line of a sample.  Every ray of
a report shares one distance schedule, so its logarithms are taken once
per report (`numerics.LogAxis`), and every fit on it runs as the
straight-line fit of its count of samples.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .classify import _FMT, CLASSES, _class_code, _fmt
from .curvature import _gauss_mean
from .errors import LcframeError
from .numerics import LogAxis, richardson
from .straightline import compile_function, float_code, roots_read, straight_code
from .surface import _SLACK, SurfaceDef
from .taxonomy import Category, Kind

__all__ = [
    "ApproachPath",
    "Verdict",
    "LimitVerdict",
    "OrderEstimate",
    "DirectionOutcome",
    "BoundednessReport",
    "limit_along",
    "vanishing_order",
    "boundedness_report",
    "SampleOutsideDomainError",
    "QuantityUndefinedError",
    "FieldNonvanishingError",
]

QUANTITIES = ("K", "H", "c2K")
ORDER_FIELDS = ("Ktil", "Htil", "lambda_til", "c2", "Gamma")

#: slope thresholds separating the three verdicts; the true orders are
#: integers, so +-1/2 is the maximal-margin separator around zero
SLOPE_ZERO = 0.5
SLOPE_UNBOUNDED = -0.5

#: below this absolute size a sampled value counts as exactly zero
ABS_ZERO = 1e-13

#: orders fitted this close to an integer are snapped to it
ORDER_SNAP = 0.15


class SampleOutsideDomainError(LcframeError):
    """A schedule sample fell outside the surface domain."""


class QuantityUndefinedError(LcframeError):
    """A schedule sample landed on (or within tolerance of) a locus
    where the requested quantity is undefined."""


class FieldNonvanishingError(LcframeError):
    """vanishing_order was asked about a field that does not vanish at
    the target."""


class Verdict(Enum):
    ZERO_LIMIT = "zero"
    NONZERO_LIMIT = "nonzero"
    UNBOUNDED = "unbounded"
    INCONCLUSIVE = "inconclusive"


def _require_int(value, what):
    """Raise the LcframeError of a count that is not an integer, which
    range() would reject with a TypeError only once it is used."""
    try:
        operator.index(value)
    except TypeError:
        raise LcframeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ApproachPath:
    """Geometric sample schedule approaching a target point.

    Points are taken at distances r0 * ratio^k, k = 0..count-1, either
    along a straight direction in the parameter plane or along a
    user-supplied curve s -> (u(s), v(s)) with curve(0) = target.
    """

    target: tuple
    direction: tuple | None = None
    curve: object | None = None  # callable s -> (u, v)
    r0: float = 1e-1
    ratio: float = 0.5
    count: int = 12

    def __post_init__(self):
        if (self.direction is None) == (self.curve is None):
            raise LcframeError("provide exactly one of direction or curve")
        if not 0.0 < self.ratio < 1.0:
            raise LcframeError("schedule ratio must lie in (0, 1)")
        _require_int(self.count, "sample count")
        if not 0.0 < self.r0 < math.inf or self.count < 4:
            raise LcframeError("schedule needs a finite r0 > 0 and at least 4 samples")
        if self.direction is not None:
            du, dv = self.direction
            length = math.hypot(du, dv)
            if not length < math.inf:  # a component is not finite, or the length overflows
                raise LcframeError("direction must be finite")
            if length == 0.0:
                raise LcframeError("direction must be nonzero")
            object.__setattr__(self, "direction", (du / length, dv / length))

    def distances(self):
        return [self.r0 * self.ratio ** k for k in range(self.count)]

    def points(self):
        if self.direction is None:
            return [tuple(self.curve(r)) for r in self.distances()]
        (u0, v0), (du, dv) = self.target, self.direction
        return [(u0 + r * du, v0 + r * dv) for r in self.distances()]


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of a limit estimate along one approach path.

    value is the Richardson-extrapolated limit (NonzeroLimit only);
    numerator_order / denominator_order are the fitted vanishing orders
    of the desingularised numerator and of the scale factor Gamma
    (math.inf when the numerator is identically zero on the schedule);
    slope is the fitted log-log slope of the quantity itself and
    slope_residual its rms fit residual.
    """

    quantity: str
    verdict: Verdict
    value: float | None
    numerator_order: float | None
    denominator_order: float | None
    slope: float | None
    slope_residual: float | None
    distances: tuple
    values: tuple
    note: str | None = None


@dataclass(frozen=True)
class OrderEstimate:
    """Fitted vanishing order of a single field along a path."""

    field: str
    order: float
    is_integer: bool
    leading_coefficient: float | None
    slope_residual: float | None


@functools.cache
def _sample_roots():
    """The roots a sample reads, those of its class and of its record,
    in BasicInvariants order: a1 b1 c1 c2 e1 f1 g1 f2 g2 a1u a1v b1u b1v
    c2u c2v.  Traced on first use."""
    return roots_read(_class_code, _gauss_mean)


def _target(s, u, v):
    """(roots, class) of a target, by the samples' program."""
    s.require_in_domain(u, v)
    roots = _sample_roots()
    inv = s.program(roots)(u, v)
    return inv, CLASSES[float_code(_class_code, roots)(inv, 1e-9)]


class _Sample(NamedTuple):
    """What limits reads of one evaluated point; K and H are None where
    the classical curvatures are undefined, as in a curvature packet.
    The same fields, each a tuple over the samples of a ray, are that
    ray's columns (_columns)."""

    u: float
    v: float
    c2: float
    lambda_til: float
    Ktil: float
    Htil: float
    K: float | None
    H: float | None


#: whether a sample may have each class code, an index into CLASSES
_REGULAR = tuple(pc.is_regular for pc in CLASSES)


@functools.cache
def _ray_kernel(roots):
    """The ray kernel of a program of the root names `roots`, generated
    on first use: a function (points, program, box, name, tol) ->
    (records, classes, fault).

    For each point (u, v), in order, it tests the domain box (u_lo,
    u_hi, v_lo, v_hi), calls program(u, v) once and runs
    classify._class_code on its values at tol, inline.  The first point
    outside the box raises SampleOutsideDomainError, naming the surface
    `name`, and the first whose class is not regular raises
    QuantityUndefinedError.  Otherwise it runs curvature._gauss_mean
    inline and keeps the point's _Sample record and its class code.
    Both decisions are the straight-line code of their traces
    (straightline.straight_code).  An arithmetic error of a record (a
    power of |lam~| that overflows) is returned as `fault`, with the
    records before it, and the points after it are only classified: a
    sample's class error comes before any record's error."""
    code = straight_code((_class_code, _gauss_mean), roots)
    (class_lines, class_code), (record_lines, (f, _, has_kh, K, H)) = code.parts
    return compile_function("\n".join([
        f"def ray_kernel(_points, _program, _box, _name, {', '.join(code.params)}):",
        "    _u_lo, _u_hi, _v_lo, _v_hi = _box",
        "    _records, _classes, _fault = [], [], None",
        "    for _u, _v in _points:",
        "        if not (_u_lo <= _u <= _u_hi and _v_lo <= _v <= _v_hi):",
        "            raise SampleOutsideDomainError(",
        "                f'sample ({_u!r}, {_v!r}) outside domain of {_name!r}')",
        f"        {code.unpack}= _program(_u, _v)",
        *(f"        {line}" for line in class_lines),
        f"        _class = {class_code}",
        "        if not _REGULAR[_class]:",
        "            raise QuantityUndefinedError(",
        "                f'sample ({_u!r}, {_v!r}) hit a {_CLASSES[_class].category.value} locus')",
        "        _classes.append(_class)",
        "        if _fault is None:",
        "            try:",
        *(f"                {line}" for line in record_lines),
        f"                _records.append(_record((_u, _v, c2, {f[6]}, {f[7]}, {f[8]}, "
        f"{K} if {has_kh} else None, {H} if {has_kh} else None)))",
        "            except ArithmeticError as _error:",
        "                _fault = _error",
        "    return _records, _classes, _fault",
    ]), {"ArithmeticError": ArithmeticError,
         "SampleOutsideDomainError": SampleOutsideDomainError,
         "QuantityUndefinedError": QuantityUndefinedError,
         "_REGULAR": _REGULAR, "_CLASSES": CLASSES,
         "_record": functools.partial(tuple.__new__, _Sample)})


def _ray(s, path):
    """(records, classes, fault) of the samples of path on s, by the ray
    kernel of the samples' program (_ray_kernel).  Its box is the one
    DomainBox.contains tests."""
    roots, d = _sample_roots(), s.domain
    box = (d.u_min - _SLACK, d.u_max + _SLACK, d.v_min - _SLACK, d.v_max + _SLACK)
    return _ray_kernel(roots)(path.points(), s.program(roots), box, s.name, 1e-9)


def _columns(records):
    """The columns of records: a _Sample of tuples."""
    return _Sample._make(zip(*records))


def _target_record(s, u, v):
    """The _Sample record of a target, which lies on a locus, where a
    sample may not: by the samples' program, with no class test."""
    roots = _sample_roots()
    inv, _ = _target(s, u, v)
    f, _, has_kh, K, H = float_code(_gauss_mean, roots)(inv)
    if not has_kh:
        K = H = None
    return _Sample(u, v, inv[roots.index("c2")], f[6], f[7], f[8], K, H)


def _quantity_values(quantity, cols):
    """The quantity at each sample of a ray's columns; the first sample
    where it is undefined raises."""
    if quantity == "K":
        values = cols.K
    elif quantity == "H":
        values = cols.H
    else:
        values = [None if K is None else c2 * K for c2, K in zip(cols.c2, cols.K)]
    if None in values:
        k = values.index(None)
        raise QuantityUndefinedError(
            f"{quantity} undefined at sample ({cols.u[k]!r}, {cols.v[k]!r})")
    return values


def _field_values(name, quantity, cols):
    """The order field name at each sample of a ray's columns; quantity
    selects Gamma."""
    if name != "Gamma":
        return getattr(cols, name)
    if quantity == "H":
        return [c2 * abs(lam) ** 1.5 for c2, lam in zip(cols.c2, cols.lambda_til)]
    if quantity == "c2K":
        return [abs(lam) ** 2 for lam in cols.lambda_til]
    return [c2 * abs(lam) ** 2 for c2, lam in zip(cols.c2, cols.lambda_til)]


def _vanishes(mags):
    """Whether every magnitude is at most ABS_ZERO; not max(mags), since
    a NaN magnitude must fail the test wherever it is."""
    return all(map(ABS_ZERO.__ge__, mags))


def _fit_order(axis, values, residual=False):
    """(order, slope_residual) of values sampled on axis: the log-log
    slope snapped to a near integer, math.inf for an identically
    vanishing field.  The residual is None unless `residual` is true
    (0.0 for a vanishing field)."""
    mags = list(map(abs, values))
    if _vanishes(mags):
        return math.inf, 0.0
    slope, _, resid = axis.slope(mags, residual)
    if slope is None:
        return None, None
    snapped = round(slope)
    if abs(slope - snapped) <= ORDER_SNAP:
        return float(snapped), resid
    return slope, resid


def limit_along(s: SurfaceDef, path: ApproachPath, quantity: str) -> LimitVerdict:
    """Estimate the limit of K, H or c2*K along an approach path.

    The target must classify lightlike or rank-one singular; sample
    points must be regular.  The verdict follows the rule of the module
    docstring.
    """
    if quantity not in QUANTITIES:
        raise LcframeError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    _, tc = _target(s, *path.target)
    if tc.category not in (Category.LIGHTLIKE, Category.SINGULAR_1):
        raise LcframeError(
            f"limit target must be lightlike or rank-one singular, "
            f"got {tc.category.value} at {path.target}")
    records, _, fault = _ray(s, path)
    if fault is not None:
        raise fault
    return _verdict(path, LogAxis(path.distances()), quantity, _columns(records), {})


def _verdict(path, axis, quantity, cols, numerator_orders) -> LimitVerdict:
    """limit_along's verdict from the columns of the path's samples.

    axis is the path's LogAxis.  numerator_orders caches the fitted
    order of K~ and H~ by field name across the quantities of one path:
    K and c2*K share the numerator K~."""
    distances = axis.distances
    values = _quantity_values(quantity, cols)

    num_field = "Htil" if quantity == "H" else "Ktil"
    if num_field not in numerator_orders:
        numerator_orders[num_field] = _fit_order(axis, getattr(cols, num_field))[0]
    l_order = numerator_orders[num_field]
    m_order = _fit_order(axis, _field_values("Gamma", quantity, cols))[0]

    mags = list(map(abs, values))
    if _vanishes(mags):
        note = "identically zero on the schedule"
    elif l_order is math.inf:
        # the samples are the numerator's rounding noise over a vanishing
        # Gamma: their slope says nothing about the limit
        note = f"numerator {num_field} vanishes on the schedule"
    else:
        note = None
    if note is not None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.ZERO_LIMIT, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=distances, values=tuple(values), note=note)

    slope, _, resid = axis.slope(mags)
    if slope is None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.INCONCLUSIVE, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=distances, values=tuple(values),
            note="could not fit a slope (zeros in the sample sequence)")

    if slope >= SLOPE_ZERO:
        verdict, value, note = Verdict.ZERO_LIMIT, None, None
    elif slope <= SLOPE_UNBOUNDED:
        verdict, value, note = Verdict.UNBOUNDED, None, None
    else:
        # flat slope: extrapolate and demand actual convergence
        tail = values[-4:]
        extrapolated = richardson(tail, path.ratio, levels=2)
        spread = abs(values[-1] - values[-2])
        converged = spread <= 5e-2 * (1.0 + abs(extrapolated))
        if converged and abs(extrapolated) > 1e-9:
            verdict, value, note = Verdict.NONZERO_LIMIT, extrapolated, None
        else:
            verdict, value = Verdict.INCONCLUSIVE, None
            note = "flat slope without convergence" if not converged \
                else "flat slope but extrapolated value is zero at tolerance"
    return LimitVerdict(
        quantity=quantity, verdict=verdict, value=value,
        numerator_order=l_order, denominator_order=m_order,
        slope=slope, slope_residual=resid,
        distances=distances, values=tuple(values),
        note=note)


def vanishing_order(
    s: SurfaceDef, path: ApproachPath, field_name: str,
    quantity: str = "K", tol: float = 1e-9,
) -> OrderEstimate:
    """Least-squares vanishing order of a field along a path.

    The field must vanish at the target (within tol, at the scale of the
    nearest sample).  The fitted log-log slope is snapped to the nearest
    integer when within 0.15; otherwise the fractional value is kept and
    flagged.  The leading coefficient extrapolates field / distance^order.
    `quantity` selects which Gamma is meant when field_name == "Gamma".
    """
    if field_name not in ORDER_FIELDS:
        raise LcframeError(f"order fields are {ORDER_FIELDS}, got {field_name!r}")
    if quantity not in QUANTITIES:
        raise LcframeError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    records, _, fault = _ray(s, path)
    distances = path.distances()
    target_value, = _order_values(field_name, quantity, [_target_record(s, *path.target)])
    # the target test needs only the first sample's record; a fault of
    # a later one is raised once it passes
    if fault is not None and not records:
        raise fault
    sample_scale = abs(_order_values(field_name, quantity, records[:1])[0]) + 1.0
    # a value beyond the float range does not vanish: inf > tol * inf is false
    if not math.isfinite(target_value) or abs(target_value) > tol * sample_scale:
        raise FieldNonvanishingError(
            f"{field_name} = {target_value!r} does not vanish at {path.target}")
    if fault is not None:
        raise fault
    values = _order_values(field_name, quantity, records)
    order = resid = None
    if all(map(math.isfinite, values)):
        order, resid = _fit_order(LogAxis(distances), values, residual=True)
    if order is None:
        raise LcframeError(f"cannot fit an order for {field_name} along the path")
    coeff = None
    if order is not math.inf:
        scaled = [val / r ** order for val, r in zip(values, distances)]
        coeff = richardson(scaled[-4:], path.ratio, levels=2)
    return OrderEstimate(
        field=field_name,
        order=order,
        is_integer=(order is math.inf) or float(order).is_integer(),
        leading_coefficient=coeff,
        slope_residual=resid,
    )


def _order_values(name, quantity, records):
    """The order field name at each record, as _field_values gives it,
    or inf at every record where a power of |lam~| in Gamma overflows."""
    try:
        return _field_values(name, quantity, _columns(records))
    except OverflowError:
        return [math.inf] * len(records)


# ---------------------------------------------------------------------------
# Direction-fan boundedness report


@dataclass(frozen=True)
class DirectionOutcome:
    label: str
    direction: tuple
    side: str | None  # spacelike / timelike / None when mixed or unknown
    verdicts: dict  # quantity -> LimitVerdict
    error: str | None


@dataclass
class BoundednessReport:
    """Fan-of-directions summary of curvature behaviour at a point.

    For each usable direction the K and H limits are estimated (plus
    c2*K at lightlike targets).  Quantities count as bounded on the
    gathered evidence when no completed direction is Unbounded or
    Inconclusive.  The dichotomy fields record whether the predicted
    alternative (zero limit, or nonzero limit of the matching rescaled
    quantity) is exhibited by some direction.
    """

    target: tuple
    category: Category
    kind: Kind | None
    outcomes: list = field(default_factory=list)
    k_bounded_evidence: bool | None = None
    h_bounded_evidence: bool | None = None
    k_dichotomy: str | None = None
    h_dichotomy: str | None = None
    bounded_mean_implies_bounded_gauss: str | None = None

    def to_text(self) -> str:
        lines = [
            f"target: {_fmt(self.target[0])}, {_fmt(self.target[1])}",
            f"category: {self.category.value}",
            f"kind: {self.kind.value if self.kind else ''}",
        ]
        for oc in self.outcomes:
            head = f"direction {oc.label} ({_fmt(oc.direction[0])}, {_fmt(oc.direction[1])})"
            if oc.side:
                head += f" side={oc.side}"
            if oc.error is not None:
                lines.append(f"{head}: error: {oc.error}")
                continue
            for q in sorted(oc.verdicts):
                ver = oc.verdicts[q]
                entry = f"{head}: {q}: {ver.verdict.value}"
                if ver.value is not None:
                    entry += f" value={_fmt(ver.value)}"
                if ver.slope is not None:
                    entry += f" slope={_fmt(ver.slope)}"
                entry += (f" l={_fmt_order(ver.numerator_order)}"
                          f" m={_fmt_order(ver.denominator_order)}")
                lines.append(entry)
        lines.append(f"K bounded (evidence): {_fmt_flag(self.k_bounded_evidence)}")
        lines.append(f"H bounded (evidence): {_fmt_flag(self.h_bounded_evidence)}")
        lines.append(f"K dichotomy: {_fmt_finding(self.k_dichotomy)}")
        lines.append(f"H dichotomy: {_fmt_finding(self.h_dichotomy)}")
        lines.append("bounded H implies bounded K: "
                     f"{_fmt_finding(self.bounded_mean_implies_bounded_gauss)}")
        return "\n".join(lines) + "\n"

    def write_samples_csv(self, fh) -> None:
        """One CSV row (direction, quantity, k, distance, value) per
        sample of every verdict of the completed directions, written as
        csv.writer would with lineterminator "\\n".

        The formatted numbers need no quoting.  The verdicts of one
        report share one distances tuple, formatted once per report
        into a template of the rows' "k,distance,value" tails; one '%'
        formats a verdict's values into it, and each line then gets
        the verdict's head."""
        lines = ["direction,quantity,k,distance,value\n"]
        distances = template = None
        for oc in self.outcomes:
            if oc.error is not None:
                continue
            for q in sorted(oc.verdicts):
                ver = oc.verdicts[q]
                if ver.distances is not distances:
                    distances = ver.distances
                    template = "\n".join(f"{k},{_fmt(r)},{_FMT.__self__}"
                                         for k, r in enumerate(distances))
                head = _csv_fields(oc.label, q) + ","
                # a formatted float holds no newline
                lines.append(head + (template % ver.values).replace("\n", "\n" + head) + "\n")
        fh.write("".join(lines))


@functools.lru_cache(maxsize=256)
def _csv_fields(*fields):
    """fields as one csv.writer row, quoted as it quotes them, without
    the line terminator; every report repeats the same direction labels
    and quantities, so each row is quoted once."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _fmt_order(x):
    if x is None:
        return "?"
    if x is math.inf:
        return "inf"
    return format(float(x), ".6g")


def _fmt_flag(x):
    return "unknown" if x is None else str(x).lower()


def _fmt_finding(x):
    """A summary wording; None, with no completed direction, reads as
    the evidence flags do."""
    return "unknown" if x is None else x


def _report_quantities(category):
    """The quantities a report estimates at a target of this category:
    K and H, plus c2*K at a lightlike target."""
    return ("K", "H", "c2K") if category is Category.LIGHTLIKE else ("K", "H")


def _transversal_direction(inv, category):
    """The unit gradient of the locus's defining function, c2 or lam~,
    at a target whose roots are inv (root name -> value); None where it
    vanishes."""
    if category is Category.SINGULAR_1:
        g = (inv["c2u"], inv["c2v"])
    else:
        g = (-4.0 * (inv["a1u"] * inv["b1"] + inv["a1"] * inv["b1u"]),
             -4.0 * (inv["a1v"] * inv["b1"] + inv["a1"] * inv["b1v"]))
    length = math.hypot(*g)
    if length == 0.0:
        return None
    return (g[0] / length, g[1] / length)


def boundedness_report(
    s: SurfaceDef, u: float, v: float,
    directions: int = 8, r0: float = 1e-1, count: int = 12,
) -> BoundednessReport:
    """Probe the behaviour of K and H around a lightlike or rank-one
    singular point along a fan of directions.

    The fan is `directions` equally spaced rays plus the two rays along
    +-(transversal direction of the locus).  Rays whose samples leave
    the domain or hit another locus are recorded with the error and
    skipped; the summary uses completed rays only.
    """
    pc, rays = _fan(s, u, v, directions, count)
    quantities = _report_quantities(pc.category)
    report = BoundednessReport(target=(u, v), category=pc.category, kind=pc.kind)
    axis = None  # every ray shares one schedule
    for label, direction in rays:
        path = ApproachPath(target=(u, v), direction=direction,
                            r0=r0, count=count)
        if axis is None:
            axis = LogAxis(path.distances())
        try:
            records, classes, fault = _ray(s, path)
        except LcframeError as exc:
            report.outcomes.append(DirectionOutcome(
                label=label, direction=direction, side=None,
                verdicts={}, error=str(exc)))
            continue
        if fault is not None:
            raise fault
        sides = {CLASSES[c].category.value for c in set(classes)}
        side = sides.pop() if len(sides) == 1 else None
        verdicts = {}
        error = None
        try:
            cols = _columns(records)
            numerator_orders = {}
            for q in quantities:
                verdicts[q] = _verdict(path, axis, q, cols, numerator_orders)
        except LcframeError as exc:
            error = str(exc)
        report.outcomes.append(DirectionOutcome(
            label=label, direction=direction, side=side,
            verdicts=verdicts, error=error))
    _summarise(report, pc)
    return report


def _fan(s, u, v, directions, count):
    """(class, rays) of a report's target: its PointClass, and the
    (label, direction) of each ray of its fan.  Raises where the
    arguments or the target's class admit no report."""
    _require_int(directions, "ray count")
    _require_int(count, "sample count")
    if directions < 0:
        raise LcframeError(f"ray count must be nonnegative, got {directions}")
    inv, pc = _target(s, u, v)
    if pc.category not in (Category.LIGHTLIKE, Category.SINGULAR_1):
        raise LcframeError(
            f"boundedness target must be lightlike or rank-one singular, "
            f"got {pc.category.value} at ({u}, {v})")
    rays = [(f"fan{i}", (math.cos(2.0 * math.pi * i / directions),
                         math.sin(2.0 * math.pi * i / directions)))
            for i in range(directions)]
    trans = _transversal_direction(dict(zip(_sample_roots(), inv)), pc.category)
    if trans is not None:
        rays.append(("transversal+", trans))
        rays.append(("transversal-", (-trans[0], -trans[1])))
    return pc, rays


def _summarise(report, pc):
    """Fill in the summary fields of a report from its outcomes; pc is
    the target's PointClass."""
    completed = [oc for oc in report.outcomes if oc.error is None and oc.verdicts]
    if completed:
        def bounded(q):
            return all(oc.verdicts[q].verdict in
                       (Verdict.ZERO_LIMIT, Verdict.NONZERO_LIMIT)
                       for oc in completed if q in oc.verdicts)

        report.k_bounded_evidence = bounded("K")
        report.h_bounded_evidence = bounded("H")
        report.k_dichotomy = _dichotomy(completed, "K", "c2K",
                                        report.k_bounded_evidence,
                                        pc.category is Category.LIGHTLIKE)
        report.h_dichotomy = _dichotomy(completed, "H", None,
                                        report.h_bounded_evidence, False)
        if (pc.category is Category.SINGULAR_1 and pc.kind is Kind.FIRST
                and not pc.degenerate):
            if not report.h_bounded_evidence:
                report.bounded_mean_implies_bounded_gauss = \
                    "not-applicable (H not bounded on the evidence)"
            elif report.k_bounded_evidence:
                report.bounded_mean_implies_bounded_gauss = "exhibited"
            else:
                report.bounded_mean_implies_bounded_gauss = "violated-on-evidence"
        else:
            report.bounded_mean_implies_bounded_gauss = \
                "not-applicable (needs a non-degenerate first kind rank-one point)"


def _dichotomy(completed, quantity, rescaled, bounded_evidence, use_rescaled):
    """Dichotomy wording: with the quantity bounded, some direction
    should show limit zero or a nonzero limit (of the rescaled partner
    where one exists)."""
    if not bounded_evidence:
        return "not-applicable (quantity unbounded on the evidence)"
    zero_seen = any(oc.verdicts[quantity].verdict is Verdict.ZERO_LIMIT
                    for oc in completed if quantity in oc.verdicts)
    nonzero_seen = any(oc.verdicts[quantity].verdict is Verdict.NONZERO_LIMIT
                       for oc in completed if quantity in oc.verdicts)
    partner_seen = False
    if use_rescaled and rescaled is not None:
        partner_seen = any(oc.verdicts[rescaled].verdict is Verdict.NONZERO_LIMIT
                           for oc in completed if rescaled in oc.verdicts)
    if zero_seen or (use_rescaled and partner_seen) or (not use_rescaled and nonzero_seen):
        return "exhibited"
    return "not-exhibited"
