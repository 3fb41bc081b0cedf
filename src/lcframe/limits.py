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

A report walks its fan in three steps.
- One schedule.  The schedule is validated once: from 4 to 64 samples,
  none at a distance that underflows to 0.0.  Its distances and their
  logarithms (`numerics.LogAxis`) are taken once.  The
  samples' program, its domain box and the ray kernel are looked up
  once (_walker).  Each ray's points are built from its unit
  direction, normalised as ApproachPath normalises a direction.
- Each distinct ray once.  A ray is keyed by the exact bits of its
  sample points, 0.0 and -0.0 apart.  A ray whose points are an
  earlier ray's (a transversal ray along a fan ray, or a direction
  whose tiny component rounds away at every point) reuses that ray's
  side, error and verdicts; its outcome keeps its own label and
  direction.
- One ray kernel and one fit kernel per ray.  The ray kernel
  (_ray_kernel) is generated once per process from the traces of
  `classify._class_code` and `curvature._gauss_mean` over the 15
  roots they read (_sample_roots).  For each sample in turn it tests
  the domain, calls the samples' program once, decides the class
  inline, and builds the sample's record of c2, lam~, K~, H~, K and H
  inline; the first sample that leaves the domain or does not
  classify regular raises.  The fit kernel (_fit_kernel), generated
  once per count of samples and set of quantities, takes the ray's
  records and fits every sequence a verdict reads: the orders of K~
  and H~, the orders of each Gamma, and each quantity's slope with
  its residual; it returns each quantity's values too, and whether
  they vanish.  Its fits are `numerics.fit_lines`' straight-line
  code, the arithmetic of `numerics.loglog_slope` operand for
  operand; a sequence holding a magnitude that is not > 0 is fitted
  by loglog_slope itself.  _verdict then applies the rule above to
  the fits.
Each sequence is written once, as an entry of _SEQUENCES: its signed
value as an expression of a sample's record.  The fit kernel and
vanishing_order's _sequence are generated from it.
limit_along and vanishing_order walk their path by the same ray kernel
and fit it by the same fit kernel, so every ray fit has one path.  The
target of a report, of limit_along and of vanishing_order is evaluated
by the samples' program, so limits compiles no invariant program of
all 23 roots, and a fault in a root it does not read (a2, b2, e2, c1u,
c1v, n~) fails no sample.  A report builds no curvature packet, so it
computes no principal curvature and no kappa_til_1, whose 0/0 limit
would evaluate a further program at a sample: the u-partials of the
roots its fundamentals read.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import struct
from enum import Enum
from itertools import chain
from typing import NamedTuple

from ._record import Record, _set
from .classify import _FMT, CLASSES, _class_code, _fmt
from .curvature import _gauss_mean
from .errors import LcframeError
from .numerics import FIT_NAMES, LogAxis, fit_lines, richardson
from .straightline import compile_function, float_code, roots_read, straight_code
from .surface import _SLACK, SurfaceDef, _is_number, _require_int, _require_tol
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


#: the most samples a schedule may have: its fit kernel is straight-line
#: code of a few statements per sample and sequence, whose source and
#: compile time grow with the count
_MAX_SAMPLES = 64


def _schedule(r0, ratio, count):
    """The distances r0 * ratio^k, k = 0..count-1, of a sample schedule;
    raises the LcframeError of a schedule that admits no fit: fewer than
    4 or more than _MAX_SAMPLES samples, or a distance that underflows
    to 0.0, which has no log."""
    if not (_is_number(ratio) and 0.0 < ratio < 1.0):
        raise LcframeError("schedule ratio must lie in (0, 1)")
    _require_int(count, "sample count")
    if not (_is_number(r0) and 0.0 < r0 < math.inf) or not 4 <= count <= _MAX_SAMPLES:
        raise LcframeError(
            f"schedule needs a finite r0 > 0 and from 4 to {_MAX_SAMPLES} samples")
    distances = [r0 * ratio ** k for k in range(count)]
    if distances[-1] == 0.0:
        raise LcframeError(f"schedule distance r0 * ratio^{count - 1} underflows to 0.0")
    return distances


def _unit(direction):
    """direction scaled to unit length; raises the LcframeError of a
    direction that has none."""
    du, dv = direction
    length = math.hypot(du, dv)
    if not length < math.inf:  # a component is not finite, or the length overflows
        raise LcframeError("direction must be finite")
    if length == 0.0:
        raise LcframeError("direction must be nonzero")
    return (du / length, dv / length)


def _points(target, unit, distances):
    """The points at distances from target along the unit direction."""
    (u0, v0), (du, dv) = target, unit
    return [(u0 + r * du, v0 + r * dv) for r in distances]


#: the step shrink factor of a report's schedule and of a default path
_RATIO = 0.5


class ApproachPath(Record):
    """Geometric sample schedule approaching a target point.

    Points are taken at distances r0 * ratio^k, k = 0..count-1, either
    along a straight direction in the parameter plane or along a
    user-supplied curve s -> (u(s), v(s)) with curve(0) = target.  The
    count is from 4 to 64, and the last distance must not underflow to
    0.0.
    """

    __slots__ = ("target", "direction", "curve", "r0", "ratio", "count")

    def __init__(self, target: tuple, direction: tuple | None = None,
                 curve=None,  # callable s -> (u, v)
                 r0: float = 1e-1, ratio: float = _RATIO, count: int = 12):
        if (direction is None) == (curve is None):
            raise LcframeError("provide exactly one of direction or curve")
        _schedule(r0, ratio, count)
        if direction is not None:
            direction = _unit(direction)
        for name, value in zip(self._fields, (target, direction, curve, r0, ratio, count)):
            _set(self, name, value)

    def distances(self):
        return _schedule(self.r0, self.ratio, self.count)

    def points(self):
        if self.direction is None:
            return [tuple(self.curve(r)) for r in self.distances()]
        return _points(self.target, self.direction, self.distances())


class LimitVerdict(Record):
    """Outcome of a limit estimate along one approach path.

    value is the Richardson-extrapolated limit (NonzeroLimit only);
    numerator_order / denominator_order are the fitted vanishing orders
    of the desingularised numerator and of the scale factor Gamma
    (math.inf when the numerator is identically zero on the schedule);
    slope is the fitted log-log slope of the quantity itself and
    slope_residual its rms fit residual.
    """

    __slots__ = ("quantity", "verdict", "value", "numerator_order", "denominator_order",
                 "slope", "slope_residual", "distances", "values", "note")

    def __init__(self, quantity: str, verdict: Verdict, value, numerator_order,
                 denominator_order, slope, slope_residual, distances: tuple, values: tuple,
                 note: str | None = None):
        _set(self, "quantity", quantity)
        _set(self, "verdict", verdict)
        _set(self, "value", value)
        _set(self, "numerator_order", numerator_order)
        _set(self, "denominator_order", denominator_order)
        _set(self, "slope", slope)
        _set(self, "slope_residual", slope_residual)
        _set(self, "distances", distances)
        _set(self, "values", values)
        _set(self, "note", note)


class OrderEstimate(Record):
    """Fitted vanishing order of a single field along a path."""

    __slots__ = ("field", "order", "is_integer", "leading_coefficient", "slope_residual")


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
    the classical curvatures are undefined, as in a curvature packet."""

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


def _walker(s):
    """The ray kernel of the samples' program of s, with its domain box
    and name bound: a function points -> (records, classes, fault).  Its
    box is the one DomainBox.contains tests."""
    roots, d = _sample_roots(), s.domain
    box = (d.u_min - _SLACK, d.u_max + _SLACK, d.v_min - _SLACK, d.v_max + _SLACK)
    kernel, program, name = _ray_kernel(roots), s.program(roots), s.name
    return lambda points: kernel(points, program, box, name, 1e-9)


def _ray(s, path):
    """(records, classes, fault) of the samples of path on s, by the ray
    kernel (_walker)."""
    return _walker(s)(path.points())


def _target_record(s, u, v):
    """The _Sample record of a target, which lies on a locus, where a
    sample may not: by the samples' program, with no class test."""
    roots = _sample_roots()
    inv, _ = _target(s, u, v)
    f, _, has_kh, K, H = float_code(_gauss_mean, roots)(inv)
    if not has_kh:
        K = H = None
    return _Sample(u, v, inv[roots.index("c2")], f[6], f[7], f[8], K, H)


#: The signed value of each sequence that a ray fits, as an expression of
#: the fields of one _Sample record: the order fields, Gamma of each
#: quantity, and the quantities.  A fit reads the magnitudes, abs() of
#: the values.  The fit kernel and vanishing_order's _sequence are
#: generated from these entries, the only spelling of each sequence.
_SEQUENCES = {
    "c2": "{c2}", "lambda_til": "{lambda_til}", "Ktil": "{Ktil}", "Htil": "{Htil}",
    "Gamma K": "{c2} * abs({lambda_til}) ** 2",
    "Gamma H": "{c2} * abs({lambda_til}) ** 1.5",
    "Gamma c2K": "abs({lambda_til}) ** 2",
    "K": "{K}", "H": "{H}", "c2K": "{c2} * {K}",
}


@functools.lru_cache(maxsize=32)
def _fit_kernel(count, quantities, order=None):
    """The fit kernel of a ray of `count` samples, generated on first
    use: a function (records, distances, xs, sx, sxx) -> fits, given the
    records of the ray's samples and the distances, xs, sx and sxx of
    its LogAxis.

    fits holds, for each quantity in turn, (values, vanishing, l, m,
    slope, residual): the quantity's values, a tuple; whether each of
    their magnitudes is at most ABS_ZERO; the fitted orders of its
    numerator (K~, or H~ for H) and of its Gamma; and the slope of its
    magnitudes with its rms residual, which are None where _verdict
    reads no slope (vanishing, or l infinite).  Where `order` names a
    sequence of _SEQUENCES, fits ends in its (order, residual), as
    vanishing_order reads it.  An order is math.inf where every
    magnitude is at most ABS_ZERO (residual 0.0), else the fitted slope,
    snapped to an integer within ORDER_SNAP, or None where no slope
    fits; the residual of an order is kept for `order` alone.

    Each sequence is its entry of _SEQUENCES at every sample, and its
    magnitudes are fitted by the straight-line code of
    numerics.fit_lines.  The fits run in the order the verdicts read
    them, K~ once for K and c2K, so the first error a sequence raises is
    the one that fitting them one at a time in that order raises: a
    power of |lam~| that overflows, or round() of the NaN slope of an
    infinite magnitude.  The kernels of the last few keys are kept."""
    fields, points = _Sample._fields, range(count)
    mags = [f"_m{i}" for i in points]
    vanishing = " and ".join(f"{m} <= ABS_ZERO" for m in mags)
    body = [", ".join("(" + ", ".join(f"{f}_{i}" for f in fields) + ")" for i in points)
            + ", = _records",
            "".join(f"_x{i}, " for i in points) + "= _xs"]

    def values(key):
        return [_SEQUENCES[key].format(**{f: f"{f}_{i}" for f in fields}) for i in points]

    def fitted_order(key, residual, name):
        return [*(f"{m} = abs({value})" for m, value in zip(mags, values(key))),
                f"if {vanishing}:",
                f"    {name}, resid = inf, 0.0",
                "else:",
                *(f"    {line}" for line in fit_lines(mags, residual)),
                "    if slope is None:",
                f"        {name} = None",
                "    else:",
                "        snapped = round(slope)",
                f"        {name} = float(snapped) if abs(slope - snapped) <= ORDER_SNAP else slope"]

    results, numerators = [], set()
    for q in quantities:
        num = "Htil" if q == "H" else "Ktil"
        if num not in numerators:
            numerators.add(num)
            body += fitted_order(num, False, f"l_{num}")
        body += [*fitted_order(f"Gamma {q}", False, f"m_{q}"),
                 *(f"_v{i} = {value}" for i, value in enumerate(values(q))),
                 f"values_{q} = ({''.join(f'_v{i}, ' for i in points)})",
                 *(f"_m{i} = abs(_v{i})" for i in points),
                 f"vanishing_{q} = {vanishing}",
                 f"if l_{num} is inf or vanishing_{q}:",
                 f"    slope_{q} = resid_{q} = None",
                 "else:",
                 *(f"    {line}" for line in fit_lines(mags, True)),
                 f"    slope_{q}, resid_{q} = slope, resid"]
        results.append(f"(values_{q}, vanishing_{q}, l_{num}, m_{q}, slope_{q}, resid_{q}), ")
    if order is not None:
        body += fitted_order(order, True, "order")
        results.append("(order, resid), ")
    body.append(f"return ({''.join(results)})")
    return compile_function("\n".join([
        "def fit_kernel(_records, _distances, _xs, sx, sxx):",
        *(f"    {line}" for line in body),
    ]), {**FIT_NAMES, "ABS_ZERO": ABS_ZERO, "ORDER_SNAP": ORDER_SNAP,
         "round": round, "float": float})


def _fits(axis, quantities, records, order=None):
    """The fits of _fit_kernel on records, the ray's samples on axis."""
    return _fit_kernel(len(axis.distances), quantities, order)(
        records, axis.distances, axis.xs, axis.sx, axis.sxx)


@functools.cache
def _sequence(key):
    """A function records -> the value of the sequence key of _SEQUENCES
    at each record, a list, generated on first use; inf at every record
    where a power of |lam~| overflows."""
    fields = _Sample._fields
    return compile_function("\n".join([
        "def sequence(_records):",
        "    try:",
        f"        return [{_SEQUENCES[key].format(**{f: f for f in fields})}"
        f" for {', '.join(fields)} in _records]",
        "    except OverflowError:",
        "        return [inf] * len(_records)",
    ]), {"OverflowError": OverflowError, "len": len})


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
    return _verdicts(path.ratio, LogAxis(path.distances()), (quantity,), records)[quantity]


def _verdicts(ratio, axis, quantities, records):
    """The LimitVerdict of each quantity, a dict, from the records of one
    ray's samples on axis, whose schedule shrinks by ratio.  One call of
    the ray's fit kernel fits every sequence.  The ray kernel sets K and
    H to None together, so every quantity is undefined at the same
    samples: the first such sample raises, named for the first
    quantity."""
    undefined = next((rec for rec in records if rec.K is None), None)
    if undefined is not None:
        raise QuantityUndefinedError(
            f"{quantities[0]} undefined at sample ({undefined.u!r}, {undefined.v!r})")
    return {q: _verdict(ratio, axis.distances, q, *fit)
            for q, fit in zip(quantities, _fits(axis, quantities, records))}


def _verdict(ratio, distances, quantity, values, vanishing, l_order, m_order, slope, resid):
    """The LimitVerdict of quantity from its fits (_fit_kernel): its
    values at the samples at distances, of a schedule that shrinks by
    ratio, whether they vanish, the orders l of its numerator and m of
    its Gamma, and its own slope and residual."""
    num_field = "Htil" if quantity == "H" else "Ktil"
    if vanishing:
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
            distances=distances, values=values, note=note)

    if slope is None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.INCONCLUSIVE, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=distances, values=values,
            note="could not fit a slope (zeros in the sample sequence)")

    if slope >= SLOPE_ZERO:
        verdict, value, note = Verdict.ZERO_LIMIT, None, None
    elif slope <= SLOPE_UNBOUNDED:
        verdict, value, note = Verdict.UNBOUNDED, None, None
    else:
        # flat slope: extrapolate and demand actual convergence
        tail = values[-4:]
        extrapolated = richardson(tail, ratio, levels=2)
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
        distances=distances, values=values, note=note)


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
    tol must be positive and finite.
    """
    if field_name not in ORDER_FIELDS:
        raise LcframeError(f"order fields are {ORDER_FIELDS}, got {field_name!r}")
    if quantity not in QUANTITIES:
        raise LcframeError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    _require_tol(tol, "vanishing tolerance")
    key = f"Gamma {quantity}" if field_name == "Gamma" else field_name
    sequence = _sequence(key)
    records, _, fault = _ray(s, path)
    distances = path.distances()
    target_value, = sequence([_target_record(s, *path.target)])
    # the target test needs only the first sample's record; a fault of
    # a later one is raised once it passes
    if fault is not None and not records:
        raise fault
    sample_scale = abs(sequence(records[:1])[0]) + 1.0
    # a value beyond the float range does not vanish: inf > tol * inf is false
    if not math.isfinite(target_value) or abs(target_value) > tol * sample_scale:
        raise FieldNonvanishingError(
            f"{field_name} = {target_value!r} does not vanish at {path.target}")
    if fault is not None:
        raise fault
    values = sequence(records)
    order = resid = None
    if all(map(math.isfinite, values)):
        (order, resid), = _fits(LogAxis(distances), (), records, key)
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


# ---------------------------------------------------------------------------
# Direction-fan boundedness report


class DirectionOutcome(Record):
    """One ray of a report: side is spacelike, timelike or None when
    mixed or unknown, verdicts maps each quantity to its LimitVerdict,
    and error is the text of the error that stopped the ray, or None."""

    __slots__ = ("label", "direction", "side", "verdicts", "error")

    def __init__(self, label: str, direction: tuple, side: str | None, verdicts: dict,
                 error: str | None):
        _set(self, "label", label)
        _set(self, "direction", direction)
        _set(self, "side", side)
        _set(self, "verdicts", verdicts)
        _set(self, "error", error)


class BoundednessReport(Record, mutable=True):
    """Fan-of-directions summary of curvature behaviour at a point.

    For each usable direction the K and H limits are estimated (plus
    c2*K at lightlike targets).  Quantities count as bounded on the
    gathered evidence when no completed direction is Unbounded or
    Inconclusive.  The dichotomy fields record whether the predicted
    alternative (zero limit, or nonzero limit of the matching rescaled
    quantity) is exhibited by some direction.
    """

    __slots__ = ("target", "category", "kind", "outcomes", "k_bounded_evidence",
                 "h_bounded_evidence", "k_dichotomy", "h_dichotomy",
                 "bounded_mean_implies_bounded_gauss")
    _defaults = ([], None, None, None, None, None)

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
    +-(transversal direction of the locus).  Each ray is sampled at
    r0 * 0.5^k, k = 0..count-1: count is from 4 to 64, and the last
    distance must not underflow to 0.0.  Rays whose samples leave the
    domain or hit another locus (or its class band, within 1e-9) are
    recorded with the error and skipped; the summary uses completed
    rays only.
    """
    pc, rays = _fan(s, u, v, directions, count)
    quantities = _report_quantities(pc.category)
    report = BoundednessReport(target=(u, v), category=pc.category, kind=pc.kind)
    axis = LogAxis(_schedule(r0, _RATIO, count))
    walk = _walker(s)
    bits = struct.Struct(f"{2 * count}d").pack  # a ray's points: 0.0 and -0.0 apart
    walked = {}  # the bits of a ray's points -> (side, verdicts, error)
    for label, direction in rays:
        points = _points((u, v), _unit(direction), axis.distances)
        key = bits(*chain.from_iterable(points))
        if key not in walked:
            walked[key] = _walk_ray(walk, points, axis, quantities)
        side, verdicts, error = walked[key]
        report.outcomes.append(DirectionOutcome(
            label=label, direction=direction, side=side,
            verdicts=dict(verdicts), error=error))
    _summarise(report, pc)
    return report


def _walk_ray(walk, points, axis, quantities):
    """(side, verdicts, error) of the ray of a report through points:
    walked by walk (_walker), its verdicts those of quantities on axis.
    A ray whose samples leave the domain, hit a locus or cannot be
    evaluated keeps the error and no side."""
    try:
        records, classes, fault = walk(points)
    except LcframeError as exc:
        return None, {}, str(exc)
    if fault is not None:
        raise fault
    sides = {CLASSES[c].category.value for c in set(classes)}
    side = sides.pop() if len(sides) == 1 else None
    try:
        return side, _verdicts(_RATIO, axis, quantities, records), None
    except LcframeError as exc:
        return side, {}, str(exc)


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
