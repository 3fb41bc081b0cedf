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
and H = H~ / (c2 |lam~|^(3/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LcframeError
from .minkowski import LVec3, pseudo_dot, wedge
from .numerics import richardson
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

#: offsets used to resolve the 0/0 value of the bounded modified
#: principal curvature by a directional limit along the u-line
LIMIT_OFFSETS = (1e-2, 1e-3, 1e-4)


def _zero_scale(*values) -> float:
    return 1.0 + max((abs(x) for x in values), default=0.0)


def is_zero(value: float, *scale_values) -> bool:
    """Scale-aware zero test: |value| <= ZERO_TOL * (1 + local scale)."""
    return abs(value) <= ZERO_TOL * _zero_scale(*scale_values)


@dataclass(frozen=True)
class CurvaturePacket:
    """Everything curvature-like at one parameter point.

    K and H are None where the classical curvatures are undefined
    (vanishing c2 or discriminant).  kappa_til_1 is the bounded branch
    of the modified principal curvatures; at points where both modified
    curvatures vanish its value is the directional limit along the
    u-line (kappa1_from_limit is then set).  kappa_til_2 is None with
    kappa_til_2_unbounded set when its branch denominator vanishes.
    """

    u: float
    v: float
    Etil: float
    Ftil: float
    Gtil: float
    Ltil: float
    Mtil: float
    Ntil: float
    lambda_til: float
    Ktil: float
    Htil: float
    K: float | None
    H: float | None
    kappa_til_1: float | None
    kappa_til_2: float | None
    kappa_til_2_unbounded: bool
    kappa1_from_limit: bool
    principal_complex: bool
    V1: tuple | None
    V2: tuple | None
    n_til: LVec3


@dataclass(frozen=True)
class SingularCurvatures:
    """Curvature scalars attached to rank-one singular points.

    The first kind block (kappa_v/c/Pi/t) needs E~ != 0, and all but
    kappa_v additionally need c2v != 0; the second kind block (mu_c,
    mu_Pi) needs E~ != 0.  Raw (untilded) counterparts divide out the
    appropriate power of |lam~| and exist where lam~ != 0.  Fields are
    None when their preconditions fail; `failures` names the failed
    preconditions.
    """

    kappa_v_til: float | None
    kappa_c_til: float | None
    kappa_Pi_til: float | None
    kappa_t_til: float | None
    mu_c_til: float | None
    mu_Pi_til: float | None
    kappa_v: float | None
    kappa_c: float | None
    kappa_Pi: float | None
    kappa_t: float | None
    mu_c: float | None
    mu_Pi: float | None
    failures: tuple


@dataclass(frozen=True)
class ClassicalCurvatures:
    """First and second fundamental coefficients with respect to the
    normalised normal n~/|n~|, plus the curvatures they induce.

    This is the straight textbook route (direct inner products of the
    second derivatives); it shares no algebra with curvature_packet and
    exists as an independent cross-check."""

    E: float
    F: float
    G: float
    L: float | None
    M: float | None
    N: float | None
    K: float | None
    H: float | None


@dataclass(frozen=True)
class ZeroEquivalenceReport:
    """Agreement of the vanishing of K~ and H~ with the matching
    singular curvature scalar at a rank-one singular point.

    For a first kind point the partners are kappa_Pi~ and kappa_c~; for
    a second kind point they are mu_Pi~ and mu_c~.  `gauss_agrees` is
    True when K~ and its partner are both zero or both nonzero at
    tolerance, and likewise `mean_agrees`."""

    applicable: bool
    reason: str | None
    kind: Kind | None
    Ktil: float | None = None
    partner_K: float | None = None
    gauss_both_zero: bool | None = None
    gauss_agrees: bool | None = None
    Htil: float | None = None
    partner_H: float | None = None
    mean_both_zero: bool | None = None
    mean_agrees: bool | None = None


@dataclass(frozen=True)
class BoundedPrincipalReport:
    """Check that the bounded modified principal curvature equals
    L~ / E~ at a rank-one singular point where the cuspidal scalar is
    nonzero, and that the other branch is unbounded."""

    applicable: bool
    reason: str | None
    kappa_til_1: float | None = None
    Ltil_over_Etil: float | None = None
    matches: bool | None = None
    sign_Etil: int | None = None
    kappa_v_til: float | None = None
    kappa_til_2_unbounded: bool | None = None


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


def _ratio_limit_kappa1(s, u, v):
    """Directional limit of K~ / (2 H~) along the u-parameter line.

    Used to resolve the 0/0 form of the bounded modified principal
    curvature where both K~ and H~ vanish.  Samples at geometric
    offsets on whichever sides of the point stay inside the domain and
    extrapolates to offset zero; returns None when no usable samples
    exist (e.g. the ratio is 0/0 on the whole line).
    """
    estimates = []
    for direction in (-1.0, 1.0):
        values = []
        for delta in LIMIT_OFFSETS:
            uu = u + direction * delta
            if not s.domain.contains(uu, v):
                values = []
                break
            inv = basic_invariants_at(s, uu, v)
            f = _fundamentals(inv)
            Ktil, Htil = f[7], f[8]
            if is_zero(Htil, f[0], f[3], f[5]):
                values = []
                break
            values.append(Ktil / (2.0 * Htil))
        if len(values) == len(LIMIT_OFFSETS):
            # offsets shrink by 0.1, coarsest first
            estimates.append(richardson(values, 0.1, levels=2))
    if not estimates:
        return None
    return sum(estimates) / len(estimates)


def curvature_packet(s: SurfaceDef, u: float, v: float) -> CurvaturePacket:
    """Evaluate the full curvature bundle at a parameter point."""
    s.require_in_domain(u, v)
    return _packet(s, u, v, basic_invariants_at(s, u, v))


def _packet(s, u, v, inv) -> CurvaturePacket:
    """The curvature bundle at (u, v) built from the point's invariants."""
    Etil, Ftil, Gtil, Ltil, Mtil, Ntil, lam, Ktil, Htil = _fundamentals(inv)
    c2 = inv.c2
    scale = (Etil, Ltil, Ntil)

    K = H = None
    if not is_zero(c2, *scale) and not is_zero(lam, *scale):
        K = Ktil / (c2 * abs(lam) ** 2)
        H = Htil / (c2 * abs(lam) ** 1.5)

    radicand = Htil * Htil - c2 * lam * Ktil
    rad_scale = ZERO_TOL * (1.0 + Htil * Htil + abs(c2 * lam * Ktil))
    principal_complex = False
    if radicand < 0.0:
        if radicand >= -rad_scale:
            radicand = 0.0
        else:
            principal_complex = True

    kappa1 = kappa2 = None
    kappa1_from_limit = False
    kappa2_unbounded = False
    if not principal_complex:
        root = math.sqrt(radicand)
        s_h = 1.0 if Htil >= 0.0 else -1.0
        # denominator of largest magnitude gives the bounded branch
        d1 = Htil + s_h * root
        d2 = Htil - s_h * root
        if is_zero(Ktil, *scale) and is_zero(Htil, *scale):
            kappa1 = _ratio_limit_kappa1(s, u, v)
            kappa1_from_limit = kappa1 is not None
            kappa2_unbounded = True
        else:
            if not is_zero(d1, *scale):
                kappa1 = Ktil / d1
            if is_zero(d2, *scale):
                kappa2_unbounded = True
            else:
                kappa2 = Ktil / d2

    V1 = None
    if kappa1 is not None:
        V1 = (Ntil - c2 * kappa1 * Gtil, -Mtil + kappa1 * Ftil)
    V2 = None
    if not principal_complex and not is_zero(lam, *scale):
        root = math.sqrt(radicand)
        s_h = 1.0 if Htil >= 0.0 else -1.0
        kappa_bar = (Htil + s_h * root) / lam  # equals c2 * kappa_til_2
        V2 = (c2 * (Ntil - kappa_bar * Gtil), -c2 * Mtil + kappa_bar * Ftil)

    return CurvaturePacket(
        u=u, v=v,
        Etil=Etil, Ftil=Ftil, Gtil=Gtil,
        Ltil=Ltil, Mtil=Mtil, Ntil=Ntil,
        lambda_til=lam, Ktil=Ktil, Htil=Htil,
        K=K, H=H,
        kappa_til_1=kappa1,
        kappa_til_2=kappa2,
        kappa_til_2_unbounded=kappa2_unbounded,
        kappa1_from_limit=kappa1_from_limit,
        principal_complex=principal_complex,
        V1=V1, V2=V2,
        n_til=wedge(s.x_u(u, v), s.frame_vec_m(u, v)),
    )


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
    s.require_in_domain(u, v)
    inv = basic_invariants_at(s, u, v)
    p = _packet(s, u, v, inv)
    scale = (p.Etil, p.Ltil, p.Ntil)
    c2 = inv.c2
    if p.principal_complex or is_zero(p.lambda_til, *scale) or is_zero(c2, *scale):
        return None
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
    s.require_in_domain(u, v)
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
    s.require_in_domain(u, v)
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
    reported not-applicable.
    """
    s.require_in_domain(u, v)
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
