import json
import math
import random
from collections import Counter

import pytest

from lcframe import catalog
from lcframe.classify import classify_grid, grid_blocks
from lcframe.curvature import (
    bounded_principal_check, classical_curvatures, curvature_packet,
    modified_normal, principal_curvatures, singular_curvatures,
    singular_zero_equivalences,
)
from lcframe.minkowski import LVec3, pseudo_dot, wedge
from lcframe.surface import BasicInvariants, SurfaceDef, basic_invariants_at, frame_at
from lcframe.taxonomy import Kind
from oracles import partial_programs


def det3(z, x, y):
    return (z.x1 * (x.x2 * y.x3 - x.x3 * y.x2)
            - z.x2 * (x.x1 * y.x3 - x.x3 * y.x1)
            + z.x3 * (x.x1 * y.x2 - x.x2 * y.x1))


def pnorm(a):
    return math.sqrt(abs(pseudo_dot(a, a)))


def rel_close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def component_fields(s, key, order):
    """The partial programs up to order of each component of X, v or w
    of a catalog surface (oracles.partial_programs)."""
    components = json.loads(catalog.surface_text(s.name))[key]
    return [partial_programs(c, order) for c in components]


def derivative(fields, du, dv, u, v):
    return LVec3(*(f[(du, dv)](u, v)[0] for f in fields))


def regular_points(s, rng, n, spacelike=None, margin=0.05):
    """Sample n random points where c2 and lam~ are safely nonzero."""
    pts = []
    while len(pts) < n:
        u = rng.uniform(s.domain.u_min, s.domain.u_max)
        v = rng.uniform(s.domain.v_min, s.domain.v_max)
        lam = s.program(("lambda_til",))(u, v)[0]
        c2 = basic_invariants_at(s, u, v).c2
        if abs(lam) < margin or abs(c2) < margin:
            continue
        if spacelike is True and lam <= 0:
            continue
        if spacelike is False and lam >= 0:
            continue
        pts.append((u, v))
    return pts


class TestSphereCurvatures:
    def test_fields_match_closed_forms(self, sphere):
        rng = random.Random(11)
        for _ in range(120):
            u = rng.uniform(-math.pi / 2, math.pi / 2)
            v = rng.uniform(0, 2 * math.pi)
            p = curvature_packet(sphere, u, v)
            assert abs(p.lambda_til + math.cos(2 * u)) < 1e-12
            assert abs(p.Etil + math.cos(2 * u)) < 1e-12
            assert abs(p.Ftil) < 1e-12
            assert p.Gtil == 1.0
            assert abs(p.Ltil - 1.0) < 1e-12
            assert abs(p.Mtil) < 1e-12
            assert abs(p.Ntil + math.cos(u)) < 1e-12
            assert abs(p.Ktil + math.cos(u)) < 1e-9
            assert abs(p.Htil + math.sin(u) ** 2 * math.cos(u)) < 1e-9

    def test_classical_closed_forms(self, sphere):
        rng = random.Random(12)
        count = 0
        while count < 200:
            u = rng.uniform(-math.pi / 2, math.pi / 2)
            v = rng.uniform(0, 2 * math.pi)
            if abs(math.cos(2 * u)) < 0.05 or abs(math.cos(u)) < 0.05:
                continue
            p = curvature_packet(sphere, u, v)
            K_expected = 1.0 / math.cos(2 * u) ** 2
            H_expected = math.sin(u) ** 2 * abs(1.0 / math.cos(2 * u)) ** 1.5
            assert rel_close(p.K, K_expected, 1e-8)
            assert rel_close(p.H, H_expected, 1e-8)
            count += 1

    def test_timelike_center_point(self, sphere):
        p = curvature_packet(sphere, 0.0, 0.0)
        assert abs(p.Etil + 1.0) < 1e-15
        assert abs(p.Ltil - 1.0) < 1e-15
        assert abs(p.Mtil) < 1e-15
        assert abs(p.Ntil + 1.0) < 1e-15
        assert abs(p.lambda_til + 1.0) < 1e-15
        assert abs(p.K - 1.0) < 1e-12
        assert abs(p.H) < 1e-12

    def test_undefined_at_singular_and_lightlike(self, sphere):
        assert curvature_packet(sphere, math.pi / 2, 1.0).K is None
        assert curvature_packet(sphere, math.pi / 4, 1.0).K is None

    def test_pole_values(self, sphere):
        for u in (math.pi / 2, -math.pi / 2):
            for v in (0.4, 3.0, 5.5):
                p = curvature_packet(sphere, u, v)
                assert abs(p.Ktil) < 1e-10
                assert abs(p.Htil) < 1e-10
                assert p.kappa1_from_limit
                assert abs(p.kappa_til_1 - 0.5) < 1e-3
                assert p.kappa_til_2_unbounded

    def test_lightlike_bounded_branch(self, sphere):
        # on the lightlike circle the bounded branch is K~/(2 H~) = 1
        p = curvature_packet(sphere, math.pi / 4, 2.0)
        assert abs(p.kappa_til_1 - 1.0) < 1e-9
        assert p.kappa_til_2_unbounded


class TestModifiedNormal:
    def test_sphere_closed_form(self, sphere):
        for (u, v) in ((0.3, 1.0), (-1.2, 4.0), (math.pi / 2, 0.7)):
            n = modified_normal(sphere, u, v)
            assert abs(n.x1 - math.sin(u)) < 1e-12
            assert abs(n.x2 + math.cos(u) * math.sin(v)) < 1e-12
            assert abs(n.x3 + math.cos(u) * math.cos(v)) < 1e-12

    @pytest.mark.parametrize("name", ["sphere", "twisted_band", "mixed_bowl"])
    def test_two_formulas_agree(self, name):
        # wedge route against the frame expansion -a1 v + b1 w
        s = catalog.load(name)
        rng = random.Random(4)
        for _ in range(200):
            u = rng.uniform(s.domain.u_min, s.domain.u_max)
            v = rng.uniform(s.domain.v_min, s.domain.v_max)
            n = modified_normal(s, u, v)
            inv = basic_invariants_at(s, u, v)
            fr = frame_at(s, u, v)
            alt = fr.v.scaled(-inv.a1) + fr.w.scaled(inv.b1)
            assert (n - alt).max_abs() <= 1e-9 * (1 + n.max_abs())

    @pytest.mark.parametrize("name", catalog.names())
    def test_packet_normal_is_the_wedge_bit_for_bit(self, name):
        # the program's n~ roots against minkowski.wedge of X_u and m
        s = catalog.load(name)
        us, vs = s.domain.grid(9, 9)
        for u in us:
            for v in vs:
                packet = curvature_packet(s, u, v).n_til
                direct = modified_normal(s, u, v)
                assert [x.hex() for x in packet] == [x.hex() for x in direct], (u, v)

    def test_proportional_to_unit_normal_at_spacelike_points(self, sphere):
        u, v = 1.1, 0.5  # spacelike band of the sphere
        n = modified_normal(sphere, u, v)
        cross = wedge(sphere.x_u(u, v), sphere.x_v(u, v))
        unit_a = n.scaled(1.0 / pnorm(n))
        unit_b = cross.scaled(1.0 / pnorm(cross))
        same = (unit_a - unit_b).max_abs()
        flipped = (unit_a + unit_b).max_abs()
        assert min(same, flipped) < 1e-12


class TestCoefficientExpansions:
    """The desingularised curvatures expand into the frame coefficients;
    re-derive that expansion directly as a cross-check."""

    @pytest.mark.parametrize("name", ["sphere", "twisted_band", "flared_trough",
                                      "parabolic_cone"])
    def test_gauss_and_mean_expansions(self, name):
        s = catalog.load(name)
        rng = random.Random(8)
        for _ in range(100):
            u = rng.uniform(s.domain.u_min, s.domain.u_max)
            v = rng.uniform(s.domain.v_min, s.domain.v_max)
            i = basic_invariants_at(s, u, v)
            p = curvature_packet(s, u, v)
            pu = i.b1u - i.b1 * i.e1 + i.c1 * i.g1
            qu = i.a1u + i.a1 * i.e1 + i.c1 * i.f1
            K_exp = (4 * i.a1 ** 2 * (i.g2 * pu - i.c2 * i.g1 ** 2)
                     + 4 * i.b1 ** 2 * (i.f2 * qu - i.c2 * i.f1 ** 2)
                     - 4 * i.a1 * i.b1 * (i.g2 * qu + i.f2 * pu
                                          - 2 * i.c2 * i.f1 * i.g1))
            lam = i.c1 ** 2 - 4 * i.a1 * i.b1
            H_exp = (i.a1 * (i.c2 * (i.b1u - i.b1 * i.e1 - i.c1 * i.g1) + i.g2 * lam)
                     - i.b1 * (i.c2 * (i.a1u + i.a1 * i.e1 - i.c1 * i.f1) + i.f2 * lam))
            assert rel_close(p.Ktil, K_exp, 1e-11)
            assert rel_close(p.Htil, H_exp, 1e-11)

    @pytest.mark.parametrize("name", ["sphere", "twisted_band", "mixed_bowl"])
    def test_second_fundamental_against_second_derivatives(self, name):
        s = catalog.load(name)
        fv, fw = component_fields(s, "v", 1), component_fields(s, "w", 1)
        rng = random.Random(21)
        for _ in range(150):
            u = rng.uniform(s.domain.u_min, s.domain.u_max)
            v = rng.uniform(s.domain.v_min, s.domain.v_max)
            p = curvature_packet(s, u, v)
            ntil = p.n_til
            assert rel_close(p.Ltil, pseudo_dot(s.x_uu(u, v), ntil), 1e-8)
            # m = -(1/2) v^w, so m_u = -(1/2)(v_u^w + v^w_u), likewise m_v
            fr = frame_at(s, u, v)
            m_u = (wedge(derivative(fv, 1, 0, u, v), fr.w)
                   + wedge(fr.v, derivative(fw, 1, 0, u, v))).scaled(-0.5)
            m_v = (wedge(derivative(fv, 0, 1, u, v), fr.w)
                   + wedge(fr.v, derivative(fw, 0, 1, u, v))).scaled(-0.5)
            assert rel_close(p.Mtil, pseudo_dot(m_u, ntil), 1e-9)
            assert rel_close(p.Ntil, pseudo_dot(m_v, ntil), 1e-9)

    @pytest.mark.parametrize("name", ["sphere", "twisted_band", "mixed_bowl"])
    def test_discriminant_two_ways(self, name):
        # E~ G~ - F~^2 from direct inner products against -4 a1 b1
        s = catalog.load(name)
        rng = random.Random(31)
        for _ in range(150):
            u = rng.uniform(s.domain.u_min, s.domain.u_max)
            v = rng.uniform(s.domain.v_min, s.domain.v_max)
            xu = s.x_u(u, v)
            c1 = basic_invariants_at(s, u, v).c1
            direct = pseudo_dot(xu, xu) * 1.0 - c1 * c1
            lam = s.program(("lambda_til",))(u, v)[0]
            assert abs(direct - lam) <= 1e-10 * (1 + abs(direct))


class TestDualRouteCurvatures:
    @pytest.mark.parametrize("name", ["sphere", "mixed_bowl", "twisted_band"])
    def test_packet_matches_classical_route(self, name):
        s = catalog.load(name)
        rng = random.Random(17)
        for (u, v) in regular_points(s, rng, 150):
            p = curvature_packet(s, u, v)
            c = classical_curvatures(s, u, v)
            c2 = basic_invariants_at(s, u, v).c2
            al = abs(p.lambda_til)
            assert rel_close(c.K * c2 * al ** 2, p.Ktil, 1e-8)
            assert rel_close(c.H * c2 * al ** 1.5, p.Htil, 1e-8)


class TestPrincipalCurvatures:
    def test_exact_values_on_mixed_bowl(self, mixed_bowl):
        # hand-computed point: all quantities are exact rationals
        p = curvature_packet(mixed_bowl, 1.5, 0.77)
        assert abs(p.Etil - 1.25) < 1e-12
        assert abs(p.Ltil - 1.0) < 1e-12
        assert abs(p.Mtil) < 1e-12
        assert abs(p.Ntil + 1.0) < 1e-12
        assert abs(p.Ktil + 1.0) < 1e-12
        assert abs(p.Htil - 0.4375) < 1e-12
        assert abs(p.kappa_til_1 + 8.0 / 17.0) < 1e-12
        assert abs(p.kappa_til_2 - 0.8) < 1e-12

    @pytest.mark.parametrize("name", ["sphere", "mixed_bowl", "twisted_band"])
    def test_product_and_sum_on_spacelike_points(self, name):
        s = catalog.load(name)
        rng = random.Random(23)
        for (u, v) in regular_points(s, rng, 100, spacelike=True):
            p = curvature_packet(s, u, v)
            ks = principal_curvatures(s, u, v)
            assert ks is not None
            k1, k2 = ks
            assert rel_close(k1 * k2, p.K, 1e-8)
            assert rel_close(k1 + k2, 2.0 * p.H, 1e-8)

    @pytest.mark.parametrize("name", ["sphere", "mixed_bowl"])
    def test_signed_product_and_sum_on_timelike_points(self, name):
        # with the |EG-F^2| normalisation the identities acquire the
        # sign of the discriminant on timelike patches
        s = catalog.load(name)
        rng = random.Random(29)
        for (u, v) in regular_points(s, rng, 100, spacelike=False):
            p = curvature_packet(s, u, v)
            ks = principal_curvatures(s, u, v)
            if ks is None:
                continue  # complex pair: no real identity to test
            k1, k2 = ks
            sign = math.copysign(1.0, p.lambda_til)
            assert rel_close(k1 * k2, sign * p.K, 1e-8)
            assert rel_close(k1 + k2, 2.0 * sign * p.H, 1e-8)

    @pytest.mark.parametrize("name", ["sphere", "mixed_bowl", "twisted_band"])
    def test_eigenvector_consistency(self, name):
        # (II - kappa I) V = 0 for V = (N - kappa G, -M + kappa F)
        s = catalog.load(name)
        rng = random.Random(37)
        for (u, v) in regular_points(s, rng, 80, spacelike=True):
            c = classical_curvatures(s, u, v)
            for kappa in principal_curvatures(s, u, v):
                V = (c.N - kappa * c.G, -c.M + kappa * c.F)
                r1 = (c.L - kappa * c.E) * V[0] + (c.M - kappa * c.F) * V[1]
                r2 = (c.M - kappa * c.F) * V[0] + (c.N - kappa * c.G) * V[1]
                scale = 1 + abs(c.L) + abs(kappa) * (abs(c.E) + abs(c.G)) + abs(c.N)
                assert abs(r1) <= 1e-7 * scale * (1 + abs(V[0]) + abs(V[1]))
                assert abs(r2) <= 1e-12 * scale * (1 + abs(V[0]) + abs(V[1]))

    @pytest.mark.parametrize("name", ["sphere", "mixed_bowl", "twisted_band"])
    def test_modified_versus_classical_branches(self, name):
        # each modified branch is sqrt|lam~| times the opposite
        # classical branch, and the branch product is K~ / (c2 lam~)
        s = catalog.load(name)
        rng = random.Random(41)
        for (u, v) in regular_points(s, rng, 100):
            p = curvature_packet(s, u, v)
            ks = principal_curvatures(s, u, v)
            if ks is None or p.kappa_til_1 is None or p.kappa_til_2 is None:
                continue
            k_plus, k_minus = ks
            root = math.sqrt(abs(p.lambda_til))
            c2 = basic_invariants_at(s, u, v).c2
            modified = sorted((p.kappa_til_1, p.kappa_til_2))
            classical_scaled = sorted((k_plus * root, k_minus * root))
            for a, b in zip(modified, classical_scaled):
                assert rel_close(a, b, 1e-8)
            assert rel_close(p.kappa_til_1 * p.kappa_til_2,
                             p.Ktil / (c2 * p.lambda_til), 1e-8)

    def test_modified_eigensystem_residual(self, mixed_bowl):
        rng = random.Random(43)
        for (u, v) in regular_points(mixed_bowl, rng, 60):
            p = curvature_packet(mixed_bowl, u, v)
            if p.kappa_til_1 is None:
                continue
            c2 = basic_invariants_at(mixed_bowl, u, v).c2
            k = p.kappa_til_1
            r = (p.Ltil - k * p.Etil) * p.V1[0] + c2 * (p.Mtil - k * p.Ftil) * p.V1[1]
            assert abs(r) <= 1e-8 * (1 + abs(p.Ltil) + abs(k) * abs(p.Etil))

    def test_complex_pair_is_flagged(self, twisted_band):
        # at tan(u)^2 = 2 the modified mean curvature vanishes while the
        # timelike discriminant keeps the radicand negative
        u = math.atan(math.sqrt(2.0))
        p = curvature_packet(twisted_band, u, 0.0)
        assert p.principal_complex
        assert p.kappa_til_1 is None and p.kappa_til_2 is None
        assert principal_curvatures(twisted_band, u, 0.0) is None

    def test_flat_plane_has_indeterminate_bounded_branch(self, flat_plane):
        p = curvature_packet(flat_plane, 0.3, 1.0)
        assert abs(p.Ktil) < 1e-15 and abs(p.Htil) < 1e-15
        assert p.kappa_til_1 is None
        assert not p.kappa1_from_limit


class TestSingularCurvatureScalars:
    def test_sphere_pole_block(self, sphere):
        for u in (math.pi / 2, -math.pi / 2):
            sc = singular_curvatures(sphere, u, 1.3)
            assert abs(sc.kappa_v_til - 1.0) < 1e-8
            assert abs(sc.mu_c_til) < 1e-10
            assert abs(sc.mu_Pi_til) < 1e-10
            # first kind block needs c2v != 0, absent at the poles
            assert sc.kappa_c_til is None
            assert sc.kappa_Pi_til is None
            assert sc.kappa_t_til is None
            assert "c2v~0" in sc.failures

    def test_flared_trough_first_kind_values(self, flared_trough):
        # frozen hand-derived values at (1, pi/2)
        sc = singular_curvatures(flared_trough, 1.0, math.pi / 2)
        E = math.pi ** 2 / 4
        assert abs(sc.kappa_v_til - 2.0 / math.pi) < 1e-10
        expected_kc = 2.0 * E ** 0.75 * (-1.0) / math.sqrt(2.0)
        assert abs(sc.kappa_c_til - expected_kc) < 1e-10
        expected_kpi = 2.0 * (math.pi / 2) * (-1.0) / (E ** 0.25 * math.sqrt(2.0))
        assert abs(sc.kappa_Pi_til - expected_kpi) < 1e-10
        assert abs(sc.kappa_t_til + 2.0 / math.pi) < 1e-10
        assert abs(sc.mu_c_til + E) < 1e-10          # N~ E~ = -E
        assert abs(sc.mu_Pi_til + math.pi / 2) < 1e-10  # sign(E~) L~ N~

    def test_timelike_trough_values(self, timelike_trough):
        sc = singular_curvatures(timelike_trough, 0.2, math.pi / 2)
        assert abs(sc.kappa_v_til) < 1e-12            # L~ = 0
        assert abs(sc.kappa_c_til + 2.0) < 1e-12
        assert abs(sc.kappa_Pi_til) < 1e-12
        assert abs(sc.kappa_t_til) < 1e-12
        assert abs(sc.mu_c_til - 1.0) < 1e-12         # N~ E~ = (-1)(-1)
        assert abs(sc.mu_Pi_til) < 1e-12

    def test_raw_rescaling_against_derivative_formulas(self, flared_trough,
                                                       timelike_trough):
        # independent oracle: the raw scalars from their defining
        # second/third-derivative formulas at first kind points
        cases = [(flared_trough, u, math.pi / 2) for u in (0.8, 1.0, 1.3)]
        cases += [(timelike_trough, u, math.pi / 2) for u in (-0.5, 0.2)]
        for s, u, v in cases:
            sc = singular_curvatures(s, u, v)
            x = component_fields(s, "X", 3)
            xu = s.x_u(u, v)
            xuu = s.x_uu(u, v)
            xvv = s.x_vv(u, v)
            xuvv = derivative(x, 1, 2, u, v)
            xvvv = derivative(x, 0, 3, u, v)
            ntil = modified_normal(s, u, v)
            n_unit = ntil.scaled(1.0 / pnorm(ntil))
            norm_xu = pnorm(xu)
            cross = wedge(xu, xvv)
            norm_cross = pnorm(cross)

            kappa_v_raw = pseudo_dot(xuu, n_unit) / norm_xu ** 2
            assert rel_close(sc.kappa_v, kappa_v_raw, 1e-8)

            kappa_c_raw = (norm_xu ** 1.5 * det3(xu, xvv, xvvv)
                           / norm_cross ** 2.5)
            assert rel_close(sc.kappa_c, kappa_c_raw, 1e-8)

            kappa_pi_raw = kappa_v_raw * kappa_c_raw
            assert rel_close(sc.kappa_Pi, kappa_pi_raw, 1e-8)

            kappa_t_raw = (det3(xu, xvv, xuvv) / norm_cross ** 2
                           - det3(xu, xvv, xuu) * pseudo_dot(xu, xvv)
                           / (norm_xu ** 2 * norm_cross ** 2))
            assert rel_close(sc.kappa_t, kappa_t_raw, 1e-8)

    def test_raw_block_requires_nonzero_discriminant(self, sphere):
        # at a lightlike point lam~ = 0: tilde block fine, raw block None
        sc = singular_curvatures(sphere, math.pi / 4, 1.0)
        assert "lambda_til~0" in sc.failures
        assert sc.kappa_v is None

    def test_degenerate_scale_marker(self, mixed_bowl):
        # E~ = u^2 - 1 vanishes on the lightlike circle
        sc = singular_curvatures(mixed_bowl, 1.0, 0.5)
        assert "Etil~0" in sc.failures
        assert sc.kappa_v_til is None and sc.mu_c_til is None


class TestZeroEquivalences:
    def test_first_kind_nonzero_case(self, flared_trough):
        rep = singular_zero_equivalences(flared_trough, 1.0, math.pi / 2, Kind.FIRST)
        assert rep.applicable
        assert rep.gauss_agrees and not rep.gauss_both_zero
        assert rep.mean_agrees and not rep.mean_both_zero

    def test_first_kind_gauss_zero_case(self, timelike_trough):
        rep = singular_zero_equivalences(timelike_trough, 0.0, math.pi / 2, Kind.FIRST)
        assert rep.applicable
        assert rep.gauss_agrees and rep.gauss_both_zero
        assert rep.mean_agrees and not rep.mean_both_zero

    def test_second_kind_nonzero_case(self, parabolic_cone):
        rep = singular_zero_equivalences(parabolic_cone, 0.0, 2.0, Kind.SECOND)
        assert rep.applicable
        assert abs(rep.Ktil - 4.0) < 1e-12
        assert abs(rep.Htil - 3.0) < 1e-12
        assert abs(rep.partner_K + 4.0) < 1e-12  # sign(E~) L~ N~ with E~ < 0
        assert abs(rep.partner_H - 6.0) < 1e-12
        assert rep.gauss_agrees and rep.mean_agrees
        assert not rep.gauss_both_zero and not rep.mean_both_zero

    def test_second_kind_zero_case(self, sphere):
        rep = singular_zero_equivalences(sphere, math.pi / 2, 0.3, Kind.SECOND)
        assert rep.applicable
        assert rep.gauss_agrees and rep.gauss_both_zero
        assert rep.mean_agrees and rep.mean_both_zero

    def test_tolerance_edge_flags_both_zero(self, cubic_cone):
        rep = singular_zero_equivalences(cubic_cone, 0.0, 1.0, Kind.SECOND)
        assert rep.applicable
        assert rep.gauss_both_zero and rep.mean_both_zero

    def test_not_applicable_without_scale(self, mixed_bowl):
        rep = singular_zero_equivalences(mixed_bowl, 1.0, 0.5, Kind.FIRST)
        assert not rep.applicable and rep.reason == "Etil~0"


class TestBoundedPrincipal:
    def test_first_kind_positive_scale(self, flared_trough):
        rep = bounded_principal_check(flared_trough, 1.0, math.pi / 2, Kind.FIRST)
        assert rep.applicable and rep.matches
        assert abs(rep.kappa_til_1 - 2.0 / math.pi) < 1e-10
        assert rep.sign_Etil == 1
        # positive E~: bounded branch equals +kappa_v~
        assert abs(rep.kappa_til_1 - rep.kappa_v_til) < 1e-10
        assert rep.kappa_til_2_unbounded

    def test_second_kind_negative_scale(self, parabolic_cone):
        rep = bounded_principal_check(parabolic_cone, 0.0, 2.0, Kind.SECOND)
        assert rep.applicable and rep.matches
        assert abs(rep.kappa_til_1 - 2.0 / 3.0) < 1e-12
        assert rep.sign_Etil == -1
        # negative E~: bounded branch equals -kappa_v~
        assert abs(rep.kappa_til_1 + rep.kappa_v_til) < 1e-12

    def test_first_kind_zero_curvature(self, timelike_trough):
        rep = bounded_principal_check(timelike_trough, 0.0, math.pi / 2, Kind.FIRST)
        assert rep.applicable and rep.matches
        assert abs(rep.kappa_til_1) < 1e-12

    def test_pole_not_applicable(self, sphere):
        rep = bounded_principal_check(sphere, math.pi / 2, 1.0, Kind.SECOND)
        assert not rep.applicable
        assert rep.reason == "Ntil~0"

    @pytest.mark.parametrize("kind", [Kind.INDETERMINATE, None, "bogus"])
    def test_kind_must_be_first_or_second(self, sphere, kind):
        # the pole is second kind; any other kind is refused, not read as second
        rep = bounded_principal_check(sphere, math.pi / 2, 1.0, kind)
        assert not rep.applicable
        assert rep.reason == f"kind must be first or second, got {kind}"


def grid_packets(s, grid):
    """The grid's points (u, v) and their CurvaturePackets, as the
    curvature CSV evaluates them."""
    us, vs = s.domain.grid(*grid)
    packets = [p for block in grid_blocks(s, us, vs) for p in block.packets()]
    return {(u, v) for u in us for v in vs}, packets


@pytest.mark.parametrize("evaluator", ["points", "arrays"])
class TestLimitOfKappaTil1:
    """Where K~ and H~ both vanish, kappa_til_1 is the ratio of the
    first u-Taylor coefficients of K~ and 2 H~ that decide it, on both
    grid evaluators."""

    def test_sphere_pole_rows_read_one_half(self, sphere, evaluated_as, evaluator):
        # K~ and H~ vanish to order 1 on the pole rows, with K~_1 = H~_1
        with evaluated_as(evaluator):
            _, packets = grid_packets(sphere, (17, 16))
        poles = [p for p in packets if abs(p.u) == math.pi / 2]
        assert len(poles) == 32
        for p in poles:
            assert p.kappa1_from_limit
            assert abs(p.kappa_til_1 - 0.5) <= 1e-15
        assert not any(p.kappa1_from_limit for p in packets if abs(p.u) != math.pi / 2)

    def test_cubic_cone_vertex_row_reads_plus_zero(self, cubic_cone, evaluated_as, evaluator):
        # K~ ~ 18 u^3 and H~ ~ -4.5 u^2: order 2 decides, at 0 / -9
        with evaluated_as(evaluator):
            _, packets = grid_packets(cubic_cone, (65, 64))
        row = [p for p in packets if p.u == 0.0]
        assert len(row) == 64
        for p in row:
            assert p.kappa1_from_limit
            assert p.kappa_til_1 == 0.0 and math.copysign(1.0, p.kappa_til_1) == 1.0
        assert not any(p.kappa1_from_limit for p in packets if p.u != 0.0)

    def test_flat_plane_stays_undefined(self, flat_plane, evaluated_as, evaluator):
        # K~ and H~ vanish identically: no order decides
        with evaluated_as(evaluator):
            _, packets = grid_packets(flat_plane, (9, 8))
        for p in packets:
            assert p.kappa_til_1 is None and p.V1 is None
            assert not p.kappa1_from_limit

    def test_no_point_off_the_grid_is_evaluated(self, monkeypatch, evaluated_as, evaluator):
        evaluated = []
        original = SurfaceDef.program

        def program(self, roots, schedule="point"):
            compiled = original(self, roots, schedule)

            def counted(u, v):
                if schedule == "arrays":
                    evaluated.extend((roots, point) for point in zip(u.tolist(), v.tolist()))
                else:
                    evaluated.append((roots, (u, v)))
                return compiled(u, v)
            return counted

        monkeypatch.setattr(SurfaceDef, "program", program)
        for name in ("sphere", "cubic_cone", "flat_plane"):
            s = catalog.load(name)
            with evaluated_as(evaluator):
                evaluated.clear()
                classify_grid(s, (17, 16))
                points, packets = grid_packets(s, (17, 16))
            assert {point for _, point in evaluated} <= points, name
            # each grid point once per classify and once per curvature
            # grid, and each point that takes the limit once more, by its
            # u-jets
            jets = [point for roots, point in evaluated if roots != BasicInvariants._fields]
            assert Counter(point for roots, point in evaluated
                           if roots == BasicInvariants._fields) == Counter(
                {point: 2 for point in points}), name
            assert len(jets) == len(set(jets)) * 2 > 0, name
