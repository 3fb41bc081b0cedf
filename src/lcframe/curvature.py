"""Curvature of lightcone framed surfaces via the modified frame.

The classical unit normal degenerates where the surface is lightlike or
singular, so all curvature data is computed in the frame {X_u, m, n~}
with n~ = X_u ^ m = -a1 v + b1 w, which stays well defined there.  The
fundamental coefficients in that frame are

    E~ = <X_u, X_u> = c1^2 - 4 a1 b1      L~ = <X_uu, n~>
    F~ = <X_u, m>   = c1                  M~ = <m_u, n~> = 2(a1 g1 - b1 f1)
    G~ = <m, m>     = 1                   N~ = <m_v, n~> = 2(a1 g2 - b1 f2)

with discriminant lam~ = E~ G~ - F~^2 = -4 a1 b1.  The desingularised
Gauss and mean curvatures are

    K~ = L~ N~ - c2 M~^2
    H~ = (c2 L~ G~ - 2 c2 M~ F~ + N~ E~) / 2

and the classical ones, where defined, recover as K = K~ / (c2 |lam~|^2)
and H = H~ / (c2 |lam~|^(3/2)).  A packet takes n~ from the invariant
program; modified_normal and classical_curvatures wedge X_u and m.

The zero band, the K/H decision and the packet's branches are written
once (_gauss_mean, _packet_fields) against a few operations: on floats
they run as straight-line code traced from them (straightline.float_code),
and lcframe.arrays runs the same functions on the arrays of a block with
the operations' numpy twins.

Where K~ and H~ both vanish, kappa_til_1 is the 0/0 limit of K~ / (2 H~)
along the u-line, a ratio of Taylor coefficients of these analytic
functions: _fundamentals runs on the u-jets (_Jet) of the roots it reads,
from the point's values of their u-partials (_JetRoots, _jet_limit).
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import SimpleNamespace

from ._record import Record, _set
from .errors import LcframeError
from .minkowski import LVec3, pseudo_dot, wedge
from .numerics import _total
from .straightline import float_code
from .surface import BasicInvariants, SurfaceDef, basic_invariants_at
from .taxonomy import Kind

__all__ = [
    "CurvaturePacket",
    "SingularCurvatures",
    "ClassicalCurvatures",
    "ZeroEquivalenceReport",
    "BoundedPrincipalReport",
    "modified_normal",
    "curvature_packet",
    "classical_curvatures",
    "principal_curvatures",
    "singular_curvatures",
    "singular_zero_equivalences",
    "bounded_principal_check",
]

ZERO_TOL = 1e-9

#: The order of the u-jets that resolve the 0/0 limit of kappa_til_1;
#: 2 decides every catalog point that takes it.
LIMIT_ORDER = 2

#: The roots _fundamentals reads.  The values of the jet program are
#: these and their u-partials up to LIMIT_ORDER, a1uu naming a1's second
#: (surface._Shape.trees).
_LIMIT_ROOTS = ("a1", "b1", "c1", "c2", "e1", "f1", "g1", "f2", "g2", "a1u", "b1u")
_JetRoots = namedtuple("_JetRoots", dict.fromkeys(
    root + "u" * k for root in _LIMIT_ROOTS for k in range(LIMIT_ORDER + 1)))


def _zero_scale(*values) -> float:
    return 1.0 + max((abs(x) for x in values), default=0.0)


def is_zero(value: float, *scale_values) -> bool:
    """Scale-aware zero test: |value| <= ZERO_TOL * (1 + local scale)."""
    return abs(value) <= ZERO_TOL * _zero_scale(*scale_values)


class CurvaturePacket(Record):
    """Everything curvature-like at one parameter point.

    K and H are None where the classical curvatures are undefined
    (vanishing c2 or discriminant).  kappa_til_1 is the bounded branch
    of the modified principal curvatures; at points where both modified
    curvatures vanish its value is the limit of K~ / (2 H~) along the
    u-line, read from their u-Taylor coefficients (kappa1_from_limit is
    then set), and None where no order up to LIMIT_ORDER decides it.
    kappa_til_2 is None with kappa_til_2_unbounded set when its branch
    denominator vanishes.
    """

    __slots__ = (
        "u", "v", "Etil", "Ftil", "Gtil", "Ltil", "Mtil", "Ntil", "lambda_til", "Ktil",
        "Htil", "K", "H", "kappa_til_1", "kappa_til_2", "kappa_til_2_unbounded",
        "kappa1_from_limit", "principal_complex", "V1", "V2", "n_til",
    )

    def __init__(self, u, v, Etil, Ftil, Gtil, Ltil, Mtil, Ntil, lambda_til, Ktil, Htil, K, H,
                 kappa_til_1, kappa_til_2, kappa_til_2_unbounded, kappa1_from_limit,
                 principal_complex, V1, V2, n_til):
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "Etil", Etil)
        _set(self, "Ftil", Ftil)
        _set(self, "Gtil", Gtil)
        _set(self, "Ltil", Ltil)
        _set(self, "Mtil", Mtil)
        _set(self, "Ntil", Ntil)
        _set(self, "lambda_til", lambda_til)
        _set(self, "Ktil", Ktil)
        _set(self, "Htil", Htil)
        _set(self, "K", K)
        _set(self, "H", H)
        _set(self, "kappa_til_1", kappa_til_1)
        _set(self, "kappa_til_2", kappa_til_2)
        _set(self, "kappa_til_2_unbounded", kappa_til_2_unbounded)
        _set(self, "kappa1_from_limit", kappa1_from_limit)
        _set(self, "principal_complex", principal_complex)
        _set(self, "V1", V1)
        _set(self, "V2", V2)
        _set(self, "n_til", n_til)


class SingularCurvatures(Record):
    """Curvature scalars attached to rank-one singular points.

    The first kind block (kappa_v/c/Pi/t) needs E~ != 0, and all but
    kappa_v additionally need c2v != 0; the second kind block (mu_c,
    mu_Pi) needs E~ != 0.  Raw (untilded) counterparts divide out the
    appropriate power of |lam~| and exist where lam~ != 0.  Fields are
    None when their preconditions fail; `failures` names the failed
    preconditions.
    """

    __slots__ = (
        "kappa_v_til", "kappa_c_til", "kappa_Pi_til", "kappa_t_til", "mu_c_til",
        "mu_Pi_til", "kappa_v", "kappa_c", "kappa_Pi", "kappa_t", "mu_c", "mu_Pi",
        "failures",
    )


class ClassicalCurvatures(Record):
    """First and second fundamental coefficients with respect to the
    normalised normal n~/|n~|, plus the curvatures they induce.

    This is the straight textbook route (direct inner products of the
    second derivatives); it shares no algebra with curvature_packet and
    exists as an independent cross-check."""

    __slots__ = ("E", "F", "G", "L", "M", "N", "K", "H")


class ZeroEquivalenceReport(Record):
    """Agreement of the vanishing of K~ and H~ with the matching
    singular curvature scalar at a rank-one singular point.

    For a first kind point the partners are kappa_Pi~ and kappa_c~; for
    a second kind point they are mu_Pi~ and mu_c~.  `gauss_agrees` is
    True when K~ and its partner are both zero or both nonzero at
    tolerance, and likewise `mean_agrees`."""

    __slots__ = (
        "applicable", "reason", "kind", "Ktil", "partner_K", "gauss_both_zero",
        "gauss_agrees", "Htil", "partner_H", "mean_both_zero", "mean_agrees",
    )
    _defaults = (None,) * 8


class BoundedPrincipalReport(Record):
    """Check that the bounded modified principal curvature equals
    L~ / E~ at a rank-one singular point where the cuspidal scalar is
    nonzero, and that the other branch is unbounded."""

    __slots__ = (
        "applicable", "reason", "kappa_til_1", "Ltil_over_Etil", "matches", "sign_Etil",
        "kappa_v_til", "kappa_til_2_unbounded",
    )
    _defaults = (None,) * 6


def modified_normal(s: SurfaceDef, u: float, v: float) -> LVec3:
    """The degenerate-safe normal n~ = X_u ^ m.

    Unlike the unit normal this is defined at every point, including
    lightlike and rank-one singular ones, and equals -a1 v + b1 w.
    """
    s.require_in_domain(u, v)
    return wedge(s.x_u(u, v), s.frame_vec_m(u, v))


def _fundamentals(inv: BasicInvariants):
    Etil = inv.c1 * inv.c1 - 4.0 * inv.a1 * inv.b1
    Ftil = inv.c1
    Gtil = 1.0
    Ltil = (2.0 * inv.a1 * (inv.b1u - inv.b1 * inv.e1 + inv.c1 * inv.g1)
            - 2.0 * inv.b1 * (inv.a1u + inv.a1 * inv.e1 + inv.c1 * inv.f1))
    Mtil = 2.0 * (inv.a1 * inv.g1 - inv.b1 * inv.f1)
    Ntil = 2.0 * (inv.a1 * inv.g2 - inv.b1 * inv.f2)
    lam = -4.0 * inv.a1 * inv.b1
    Ktil = Ltil * Ntil - inv.c2 * Mtil * Mtil
    Htil = 0.5 * (inv.c2 * Ltil * Gtil - 2.0 * inv.c2 * Mtil * Ftil + Ntil * Etil)
    return Etil, Ftil, Gtil, Ltil, Mtil, Ntil, lam, Ktil, Htil


def _band(Etil, Ltil, Ntil, ops):
    """The zero band of E~, L~ and N~: ZERO_TOL * (1 + max |E~|, |L~|,
    |N~|), the value of is_zero's bound at E~, L~, N~."""
    return ZERO_TOL * (1.0 + ops.max(abs(Etil), abs(Ltil), abs(Ntil)))


class _Jet(tuple):
    """A Taylor series in u truncated after order LIMIT_ORDER, its k-th
    coefficient a float, a traced value or an array.  A coefficient of a
    product is its Cauchy sum added left to right from 0.0, as
    numerics._total adds, so floats and arrays give the same bits on
    every Python version."""

    def __add__(self, other):
        return _Jet(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return _Jet(a - b for a, b in zip(self, other))

    def __mul__(self, other):
        if type(other) is not _Jet:
            return _Jet(a * other for a in self)
        return _Jet(_total(self[i] * other[k - i] for i in range(k + 1)) for k in range(len(self)))

    __rmul__ = __mul__


def _jet_limit(inv, ops):
    """(value, defined) of the u-line limit of K~ / (2 H~) where both
    vanish, at a point or at arrays of points, from the values of the
    jet program there (_JetRoots).  For a point it runs as
    float_code(_jet_limit, _JetRoots._fields)(roots).

    The limit is K~_k / (2 H~_k) at the first order k where H~_k clears
    the zero band of that order's E~, L~ and N~ (_band) and no lower
    order's K~_j clears it; it is undefined where no order up to
    LIMIT_ORDER decides, as where K~ and H~ vanish identically.  A limit
    of -0.0 is 0.0.
    """
    # a root's k-th Taylor coefficient is its k-th u-partial / k!
    jets = SimpleNamespace(**{name: _Jet(getattr(inv, name + "u" * k) / math.factorial(k)
                                         for k in range(LIMIT_ORDER + 1)) for name in _LIMIT_ROOTS})
    Etil, _, _, Ltil, _, Ntil, _, Ktil, Htil = _fundamentals(jets)
    orders = []
    for k in range(1, LIMIT_ORDER + 1):
        band = _band(Etil[k], Ltil[k], Ntil[k], ops)
        h_clears = ops.not_(abs(Htil[k]) <= band)
        orders.append((h_clears, ops.not_(abs(Ktil[k]) <= band),
                       ops.div(Ktil[k], 2.0 * Htil[k], h_clears)))
    value, defined = orders[-1][2], orders[-1][0]
    for h_clears, k_clears, ratio in reversed(orders[:-1]):
        value = ops.where(h_clears, ratio, value)
        defined = h_clears | (ops.not_(k_clears) & defined)
    return 0.0 + value, defined


def curvature_packet(s: SurfaceDef, u: float, v: float) -> CurvaturePacket:
    """Evaluate the full curvature bundle at a parameter point."""
    return _packet(s, u, v, basic_invariants_at(s, u, v))


def _gauss_mean(inv, ops):
    """(fundamentals, zero band, has K and H, K, H) at a point, or at
    arrays of points, from its invariants.  For a point it runs as
    float_code(_gauss_mean, fields)(roots).

    The band (_band) decides every zero test of the packet; K = K~ /
    (c2 |lam~|^2) and H = H~ / (c2 |lam~|^(3/2)) are defined only where
    c2 and lam~ both clear it.  This is all a limits report evaluates
    per sample, besides the class: no principal curvature, principal
    vector or n~, and so no kappa_til_1 and no u-jets of its 0/0 limit.
    """
    f = _fundamentals(inv)
    band = _band(f[0], f[3], f[5], ops)
    c2, lam = inv.c2, f[6]
    has_kh = ops.not_(abs(c2) <= band) & ops.not_(abs(lam) <= band)
    al = abs(lam)
    K = ops.div(f[7], c2 * ops.pow(al, 2, has_kh), has_kh)
    H = ops.div(f[8], c2 * ops.pow(al, 1.5, has_kh), has_kh)
    return f, band, has_kh, K, H


def _packet_fields(inv, ops, limit):
    """The packet of a point, or of arrays of points, from its
    invariants: (values, defined, flags).

    values holds the curvature CSV's columns and c2; defined maps each
    value a packet may leave None to where it is set; flags holds
    kappa_til_2_unbounded, kappa1_from_limit and principal_complex.
    limit(where) gives (value, defined) of the u-line limit of
    kappa_til_1 (_jet_limit) and is asked only where `where` holds:
    where K~ and H~ both vanish.  For a point it runs as
    float_code(_packet_fields, fields)(roots, limit).
    """
    f, band, has_kh, K, H = _gauss_mean(inv, ops)
    Etil, Ftil, Gtil, Ltil, Mtil, Ntil, lam, Ktil, Htil = f
    c2 = inv.c2

    def zero(x):  # is_zero at this point's scale
        return abs(x) <= band

    radicand = Htil * Htil - c2 * lam * Ktil
    rad_scale = ZERO_TOL * (1.0 + Htil * Htil + abs(c2 * lam * Ktil))
    negative = radicand < 0.0
    # a negative radicand within rad_scale of zero is clipped to zero
    principal_complex = negative & ops.not_(radicand >= -rad_scale)
    real = ops.not_(principal_complex)
    root = ops.sqrt(ops.where(negative, 0.0, radicand))
    s_h = ops.where(Htil >= 0.0, 1.0, -1.0)
    # denominator of largest magnitude gives the bounded branch
    d1 = Htil + s_h * root
    d2 = Htil - s_h * root
    at_limit = real & zero(Ktil) & zero(Htil)
    branch = real & ops.not_(at_limit)
    has_k1 = branch & ops.not_(zero(d1))
    has_k2 = branch & ops.not_(zero(d2))
    from_limit, has_limit = limit(at_limit)
    kappa1 = ops.where(at_limit, from_limit, ops.div(Ktil, d1, has_k1))
    has_k1 = has_k1 | has_limit
    has_v2 = real & ops.not_(zero(lam))
    kappa_bar = ops.div(d1, lam, has_v2)  # equals c2 * kappa_til_2

    values = {
        "Etil": Etil, "Ftil": Ftil, "Gtil": Gtil,
        "Ltil": Ltil, "Mtil": Mtil, "Ntil": Ntil, "lambda_til": lam,
        "Ktil": Ktil, "Htil": Htil, "K": K, "H": H,
        "kappa_til_1": kappa1, "kappa_til_2": ops.div(Ktil, d2, has_k2),
        "V1_u": Ntil - c2 * kappa1 * Gtil, "V1_v": -Mtil + kappa1 * Ftil,
        "V2_u": c2 * (Ntil - kappa_bar * Gtil), "V2_v": -c2 * Mtil + kappa_bar * Ftil,
        "ntil_1": inv.ntil_1, "ntil_2": inv.ntil_2, "ntil_3": inv.ntil_3,
        "c2": c2,
    }
    defined = {"K": has_kh, "H": has_kh, "kappa_til_1": has_k1,
               "kappa_til_2": has_k2, "V1_u": has_k1, "V1_v": has_k1,
               "V2_u": has_v2, "V2_v": has_v2}
    flags = {"kappa_til_2_unbounded": at_limit | (branch & zero(d2)),
             "kappa1_from_limit": at_limit & has_limit,
             "principal_complex": principal_complex}
    return values, defined, flags


def _packet_record(u, v, c, flags) -> CurvaturePacket:
    """The CurvaturePacket of one point's _packet_fields: its values c,
    None where not defined, and its flags."""
    return CurvaturePacket(
        u=u, v=v,
        Etil=c["Etil"], Ftil=c["Ftil"], Gtil=c["Gtil"],
        Ltil=c["Ltil"], Mtil=c["Mtil"], Ntil=c["Ntil"],
        lambda_til=c["lambda_til"], Ktil=c["Ktil"], Htil=c["Htil"],
        K=c["K"], H=c["H"],
        kappa_til_1=c["kappa_til_1"], kappa_til_2=c["kappa_til_2"],
        V1=None if c["V1_u"] is None else (c["V1_u"], c["V1_v"]),
        V2=None if c["V2_u"] is None else (c["V2_u"], c["V2_v"]),
        n_til=LVec3(c["ntil_1"], c["ntil_2"], c["ntil_3"]),
        **flags,
    )


def _point_fields(s, u, v, inv):
    """(values, flags) of _packet_fields at (u, v) from the point's
    invariants, each value None where it is not defined."""

    def limit(where):
        if not where:
            return math.nan, False
        return float_code(_jet_limit, _JetRoots._fields)(s.program(_JetRoots._fields)(u, v))

    values, defined, flags = float_code(_packet_fields, BasicInvariants._fields)(inv, limit)
    for name, where in defined.items():
        if not where:
            values[name] = None
    return values, flags


def _packet(s, u, v, inv) -> CurvaturePacket:
    """The curvature bundle at (u, v) built from the point's invariants."""
    return _packet_record(u, v, *_point_fields(s, u, v, inv))


def classical_curvatures(s: SurfaceDef, u: float, v: float) -> ClassicalCurvatures:
    """Textbook fundamental forms and curvatures at a regular point.

    E, F, G are direct inner products of the tangents; L, M, N pair the
    second derivatives against the unit normal n~/|n~| (None where n~ is
    null).  K and H use the |EG - F^2| normalisation and are None where
    that denominator vanishes."""
    s.require_in_domain(u, v)
    xu, xv = s.x_u(u, v), s.x_v(u, v)
    E = pseudo_dot(xu, xu)
    F = pseudo_dot(xu, xv)
    G = pseudo_dot(xv, xv)
    ntil = wedge(xu, s.frame_vec_m(u, v))
    nn = pseudo_dot(ntil, ntil)
    L = M = N = K = H = None
    if not is_zero(nn, E, G):
        n = ntil.scaled(1.0 / math.sqrt(abs(nn)))
        L = pseudo_dot(s.x_uu(u, v), n)
        M = pseudo_dot(s.x_uv(u, v), n)
        N = pseudo_dot(s.x_vv(u, v), n)
        disc = E * G - F * F
        if not is_zero(disc, E, G):
            K = (L * N - M * M) / abs(disc)
            H = (L * G - 2.0 * M * F + N * E) / (2.0 * abs(disc))
    return ClassicalCurvatures(E=E, F=F, G=G, L=L, M=M, N=N, K=K, H=H)


def principal_curvatures(s: SurfaceDef, u: float, v: float):
    """Classical principal curvatures (kappa_plus, kappa_minus).

    Roots of the shape-operator characteristic polynomial expressed in
    modified-frame data; valid at regular points off the lightlike and
    singular loci.  Returns None when undefined or complex.
    """
    inv = basic_invariants_at(s, u, v)
    p = _packet(s, u, v, inv)
    if p.principal_complex or p.K is None:  # K is None where c2 or lam~ is ~0
        return None
    c2 = inv.c2
    radicand = max(p.Htil * p.Htil - c2 * p.lambda_til * p.Ktil, 0.0)
    root = math.sqrt(radicand)
    denom = c2 * p.lambda_til * math.sqrt(abs(p.lambda_til))
    return (p.Htil + root) / denom, (p.Htil - root) / denom


def singular_curvatures(s: SurfaceDef, u: float, v: float) -> SingularCurvatures:
    """Evaluate the singular-point curvature scalars at a point.

    Intended for rank-one singular points; preconditions are tolerance
    tests on E~, c2v and lam~, and blocks whose preconditions fail come
    back None with the failure named.
    """
    return _singular(basic_invariants_at(s, u, v))


def _singular(inv) -> SingularCurvatures:
    """The singular-point curvature scalars built from a point's invariants."""
    Etil, Ftil, _, Ltil, Mtil, Ntil, lam, _, _ = _fundamentals(inv)
    failures = []

    kv = kc = kpi = kt = mc = mpi = None
    if is_zero(Etil, Ltil, Ntil):
        failures.append("Etil~0")
    else:
        kv = Ltil / abs(Etil)
        mc = Ntil * Etil
        mpi = (1.0 if Etil > 0 else -1.0) * Ltil * Ntil
        if is_zero(inv.c2v, Etil, Ltil, Ntil):
            failures.append("c2v~0")
        else:
            kc = 2.0 * abs(Etil) ** 0.75 * Ntil / abs(inv.c2v) ** 0.5
            kpi = 2.0 * Ltil * Ntil / (abs(Etil) ** 0.25 * abs(inv.c2v) ** 0.5)
            kt = (abs(Etil) * (inv.c2u * Ntil + inv.c2v * Mtil)
                  - inv.c2v * Ftil * Ltil) / (inv.c2v * abs(Etil))

    raw = dict.fromkeys(("kappa_v", "kappa_c", "kappa_Pi", "kappa_t", "mu_c", "mu_Pi"))
    if is_zero(lam, Etil, Ltil, Ntil):
        failures.append("lambda_til~0")
    else:
        al = abs(lam)
        pairs = (("kappa_v", kv, 0.5), ("kappa_c", kc, 1.25),
                 ("kappa_Pi", kpi, 1.75), ("kappa_t", kt, 1.0),
                 ("mu_c", mc, 1.5), ("mu_Pi", mpi, 2.0))
        for name, value, power in pairs:
            if value is not None:
                raw[name] = value / al ** power

    return SingularCurvatures(
        kappa_v_til=kv, kappa_c_til=kc, kappa_Pi_til=kpi, kappa_t_til=kt,
        mu_c_til=mc, mu_Pi_til=mpi,
        kappa_v=raw["kappa_v"], kappa_c=raw["kappa_c"],
        kappa_Pi=raw["kappa_Pi"], kappa_t=raw["kappa_t"],
        mu_c=raw["mu_c"], mu_Pi=raw["mu_Pi"],
        failures=tuple(failures),
    )


def singular_zero_equivalences(
    s: SurfaceDef, u: float, v: float, kind: Kind
) -> ZeroEquivalenceReport:
    """Evaluate both sides of the zero/nonzero equivalences at a
    non-degenerate rank-one singular point of the given kind.

    First kind:  K~ = 0 iff kappa_Pi~ = 0, and H~ = 0 iff kappa_c~ = 0.
    Second kind: K~ = 0 iff mu_Pi~ = 0, and H~ = 0 iff mu_c~ = 0.
    The caller supplies the kind (normally from classify); points where
    E~ ~ 0, or first kind points where c2v ~ 0, are reported
    not-applicable.
    """
    if kind not in (Kind.FIRST, Kind.SECOND):
        return ZeroEquivalenceReport(
            applicable=False, reason=f"kind must be first or second, got {kind}",
            kind=kind)
    inv = basic_invariants_at(s, u, v)
    p, sc = _packet(s, u, v, inv), _singular(inv)
    scale = (p.Etil, p.Ltil, p.Ntil)
    if "Etil~0" in sc.failures:
        return ZeroEquivalenceReport(applicable=False, reason="Etil~0", kind=kind)
    if kind is Kind.FIRST:
        if "c2v~0" in sc.failures:
            return ZeroEquivalenceReport(applicable=False, reason="c2v~0", kind=kind)
        partner_K, partner_H = sc.kappa_Pi_til, sc.kappa_c_til
    else:
        partner_K, partner_H = sc.mu_Pi_til, sc.mu_c_til

    k_zero, pk_zero = is_zero(p.Ktil, *scale), is_zero(partner_K, *scale)
    h_zero, ph_zero = is_zero(p.Htil, *scale), is_zero(partner_H, *scale)
    return ZeroEquivalenceReport(
        applicable=True, reason=None, kind=kind,
        Ktil=p.Ktil, partner_K=partner_K,
        gauss_both_zero=k_zero and pk_zero,
        gauss_agrees=k_zero == pk_zero,
        Htil=p.Htil, partner_H=partner_H,
        mean_both_zero=h_zero and ph_zero,
        mean_agrees=h_zero == ph_zero,
    )


def bounded_principal_check(
    s: SurfaceDef, u: float, v: float, kind: Kind
) -> BoundedPrincipalReport:
    """At a non-degenerate rank-one singular point with nonzero
    cuspidal scalar, verify kappa_til_1 = L~/E~ (the signed limiting
    normal curvature) and that the other branch is flagged unbounded.

    The cuspidal hypothesis (kappa_c~ != 0 for the first kind, mu_c~ !=
    0 for the second) amounts to N~ != 0; without it the check is
    reported not-applicable, as is a kind other than first or second.
    """
    if kind not in (Kind.FIRST, Kind.SECOND):
        return BoundedPrincipalReport(
            applicable=False, reason=f"kind must be first or second, got {kind}")
    inv = basic_invariants_at(s, u, v)
    p, sc = _packet(s, u, v, inv), _singular(inv)
    scale = (p.Etil, p.Ltil, p.Ntil)
    if "Etil~0" in sc.failures:
        return BoundedPrincipalReport(applicable=False, reason="Etil~0")
    if kind is Kind.FIRST and "c2v~0" in sc.failures:
        return BoundedPrincipalReport(applicable=False, reason="c2v~0")
    if is_zero(p.Ntil, *scale):
        return BoundedPrincipalReport(applicable=False, reason="Ntil~0")
    if p.kappa_til_1 is None:
        return BoundedPrincipalReport(applicable=False, reason="kappa_til_1 undefined")
    target = p.Ltil / p.Etil
    err = abs(p.kappa_til_1 - target)
    return BoundedPrincipalReport(
        applicable=True, reason=None,
        kappa_til_1=p.kappa_til_1,
        Ltil_over_Etil=target,
        matches=err <= 1e-8 * (1.0 + abs(target)),
        sign_Etil=1 if p.Etil > 0 else -1,
        kappa_v_til=sc.kappa_v_til,
        kappa_til_2_unbounded=p.kappa_til_2_unbounded,
    )
