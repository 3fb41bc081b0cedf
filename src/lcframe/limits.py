"""Limit and vanishing-order estimation near lightlike and singular loci.

The classical curvatures factor as K = K~ / Gamma_K and H = H~ / Gamma_H
with Gamma_K = c2 |lam~|^2 and Gamma_H = c2 |lam~|^(3/2).  Approaching a
point of the locus along a path, both numerator and denominator vanish
to some integer order (the setting is real-analytic), so the behaviour
of the quotient is decided by the order gap: a positive gap gives limit
zero, a zero gap a finite nonzero limit, a negative gap blow-up.  This
module estimates those orders and limits from geometric sample
schedules and reports the matching verdict.

Each sample of a schedule is evaluated once: its invariants give its
class, then its curvature packet, and every quantity, field and verdict
along the path is read from those values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

from .classify import _evaluate, _fmt, classify
from .curvature import _packet
from .errors import LcframeError
from .numerics import loglog_slope, richardson
from .surface import SurfaceDef, basic_invariants_at
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
        u0, v0 = self.target
        pts = []
        for r in self.distances():
            if self.direction is not None:
                pts.append((u0 + r * self.direction[0], v0 + r * self.direction[1]))
            else:
                pts.append(tuple(self.curve(r)))
        return pts


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


def _sample_ray(s, path):
    """(u, v, invariants, class) of every sample, in schedule order.

    Each sample must lie in the domain and classify regular; the first
    that does not raises."""
    samples = []
    for (u, v) in path.points():
        if not s.domain.contains(u, v):
            raise SampleOutsideDomainError(
                f"sample ({u!r}, {v!r}) outside domain of {s.name!r}")
        inv, pc = _evaluate(s, u, v)
        if not pc.is_regular:
            raise QuantityUndefinedError(
                f"sample ({u!r}, {v!r}) hit a {pc.category.value} locus")
        samples.append((u, v, inv, pc))
    return samples


def _with_packets(s, samples):
    """(invariants, curvature packet) of each sample, from its invariants."""
    return [(inv, _packet(s, u, v, inv)) for u, v, inv, _ in samples]


def _quantity_value(quantity, inv, p):
    if quantity == "K":
        return p.K
    if quantity == "H":
        return p.H
    return None if p.K is None else inv.c2 * p.K


def _field_value(name, quantity, inv, p):
    if name == "c2":
        return inv.c2
    if name != "Gamma":
        return getattr(p, name)
    al = abs(p.lambda_til)
    if quantity == "H":
        return inv.c2 * al ** 1.5
    if quantity == "c2K":
        return al ** 2
    return inv.c2 * al ** 2


def _fit_order(distances, values):
    """(order, slope_residual): log-log slope snapped to a near integer,
    math.inf for an identically vanishing field."""
    mags = [abs(x) for x in values]
    if all(m <= ABS_ZERO for m in mags):
        return math.inf, 0.0
    slope, _, resid = loglog_slope(distances, mags)
    if slope is None:
        return None, None
    snapped = round(slope)
    if abs(slope - snapped) <= ORDER_SNAP:
        return float(snapped), resid
    return slope, resid


def limit_along(s: SurfaceDef, path: ApproachPath, quantity: str) -> LimitVerdict:
    """Estimate the limit of K, H or c2*K along an approach path.

    The target must classify lightlike or rank-one singular; sample
    points must be regular.  The verdict comes from the log-log slope of
    the sampled values: decay at order >= 1/2 reads as limit zero,
    growth at order <= -1/2 as unbounded, a flat converging sequence as
    a finite nonzero limit (Richardson-extrapolated).
    """
    if quantity not in QUANTITIES:
        raise LcframeError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    tc = classify(s, *path.target)
    if tc.category not in (Category.LIGHTLIKE, Category.SINGULAR_1):
        raise LcframeError(
            f"limit target must be lightlike or rank-one singular, "
            f"got {tc.category.value} at {path.target}")
    return _verdict(path, quantity, _with_packets(s, _sample_ray(s, path)))


def _verdict(path, quantity, evaluated) -> LimitVerdict:
    """limit_along's verdict from the evaluated samples of the path."""
    distances = path.distances()
    values = []
    for inv, p in evaluated:
        val = _quantity_value(quantity, inv, p)
        if val is None:
            raise QuantityUndefinedError(
                f"{quantity} undefined at sample ({p.u!r}, {p.v!r})")
        values.append(val)

    num_field = "Htil" if quantity == "H" else "Ktil"
    l_order, _ = _fit_order(distances, [_field_value(num_field, quantity, inv, p)
                                        for inv, p in evaluated])
    m_order, _ = _fit_order(distances, [_field_value("Gamma", quantity, inv, p)
                                        for inv, p in evaluated])

    mags = [abs(x) for x in values]
    if all(m <= ABS_ZERO for m in mags):
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.ZERO_LIMIT, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=tuple(distances), values=tuple(values),
            note="identically zero on the schedule")

    slope, _, resid = loglog_slope(distances, mags)
    if slope is None:
        return LimitVerdict(
            quantity=quantity, verdict=Verdict.INCONCLUSIVE, value=None,
            numerator_order=l_order, denominator_order=m_order,
            slope=None, slope_residual=None,
            distances=tuple(distances), values=tuple(values),
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
        distances=tuple(distances), values=tuple(values),
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
    samples = _sample_ray(s, path)
    distances = path.distances()
    target_inv = basic_invariants_at(s, *path.target)
    target_value = _field_value(field_name, quantity, target_inv,
                                _packet(s, *path.target, target_inv))
    # the target test needs only the first sample's packet; the others
    # are built once it passes
    evaluated = _with_packets(s, samples[:1])
    sample_scale = abs(_field_value(field_name, quantity, *evaluated[0])) + 1.0
    if abs(target_value) > tol * sample_scale:
        raise FieldNonvanishingError(
            f"{field_name} = {target_value!r} does not vanish at {path.target}")
    evaluated += _with_packets(s, samples[1:])
    values = [_field_value(field_name, quantity, inv, p) for inv, p in evaluated]
    order, resid = _fit_order(distances, values)
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
        lines.append(f"K dichotomy: {self.k_dichotomy}")
        lines.append(f"H dichotomy: {self.h_dichotomy}")
        lines.append("bounded H implies bounded K: "
                     f"{self.bounded_mean_implies_bounded_gauss}")
        return "\n".join(lines) + "\n"

    def write_samples_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("direction", "quantity", "k", "distance", "value"))
        for oc in self.outcomes:
            if oc.error is not None:
                continue
            for q in sorted(oc.verdicts):
                ver = oc.verdicts[q]
                for k, (r, val) in enumerate(zip(ver.distances, ver.values)):
                    writer.writerow((oc.label, q, k, _fmt(r), _fmt(val)))


def _fmt_order(x):
    if x is None:
        return "?"
    if x is math.inf:
        return "inf"
    return format(float(x), ".6g")


def _fmt_flag(x):
    return "unknown" if x is None else str(x).lower()


def _transversal_direction(inv, category):
    if category is Category.SINGULAR_1:
        g = (inv.c2u, inv.c2v)
    else:
        g = (-4.0 * (inv.a1u * inv.b1 + inv.a1 * inv.b1u),
             -4.0 * (inv.a1v * inv.b1 + inv.a1 * inv.b1v))
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
    if directions < 0:
        raise LcframeError(f"ray count must be nonnegative, got {directions}")
    inv, pc = _evaluate(s, u, v)
    if pc.category not in (Category.LIGHTLIKE, Category.SINGULAR_1):
        raise LcframeError(
            f"boundedness target must be lightlike or rank-one singular, "
            f"got {pc.category.value} at ({u}, {v})")
    quantities = ["K", "H"]
    if pc.category is Category.LIGHTLIKE:
        quantities.append("c2K")

    rays = [(f"fan{i}", (math.cos(2.0 * math.pi * i / directions),
                         math.sin(2.0 * math.pi * i / directions)))
            for i in range(directions)]
    trans = _transversal_direction(inv, pc.category)
    if trans is not None:
        rays.append(("transversal+", trans))
        rays.append(("transversal-", (-trans[0], -trans[1])))

    report = BoundednessReport(target=(u, v), category=pc.category, kind=pc.kind)
    for label, direction in rays:
        path = ApproachPath(target=(u, v), direction=direction,
                            r0=r0, count=count)
        try:
            samples = _sample_ray(s, path)
        except LcframeError as exc:
            report.outcomes.append(DirectionOutcome(
                label=label, direction=direction, side=None,
                verdicts={}, error=str(exc)))
            continue
        sides = {sample_class.category for *_, sample_class in samples}
        side = sides.pop().value if len(sides) == 1 else None
        verdicts = {}
        error = None
        try:
            evaluated = _with_packets(s, samples)
            for q in quantities:
                verdicts[q] = _verdict(path, q, evaluated)
        except LcframeError as exc:
            error = str(exc)
        report.outcomes.append(DirectionOutcome(
            label=label, direction=direction, side=side,
            verdicts=verdicts, error=error))

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
    return report


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
