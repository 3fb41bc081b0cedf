import collections
import gc
import io
import json
import math
import random
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from images import image, literal
from lcframe import catalog, expr, surface
from lcframe.classify import classify_grid, trace_zero_set
from lcframe.cli import _write_curvature_csv
from lcframe.errors import LcframeError
from lcframe.expr import (
    Const, Dag, EvalDomainError, Mul, compile_edge_kernels, compile_grid_program,
    compile_program,
)
from lcframe.minkowski import LVec3, pseudo_dot, wedge
from lcframe.surface import (
    DomainBox, SurfaceDef, SurfaceFormatError, basic_invariants_at, frame_at,
    validate_framed,
)


def vec_close(a, b, tol=1e-9):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


class TestSphereClosedForms:
    def test_frame_leg_m(self, sphere):
        for v in (0.0, 0.7, 2.3, 4.4, 6.1):
            fr = frame_at(sphere, 0.3, v)
            assert vec_close(fr.m, (0.0, -math.cos(v), math.sin(v)))

    def test_frame_orthogonality(self, sphere):
        fr = frame_at(sphere, -0.8, 2.0)
        assert abs(pseudo_dot(fr.m, fr.v)) < 1e-12
        assert abs(pseudo_dot(fr.m, fr.w)) < 1e-12
        assert abs(pseudo_dot(fr.m, fr.m) - 1.0) < 1e-12

    def test_coefficient_matrix(self, sphere):
        for u in (-1.1, -0.4, 0.0, 0.5, 1.2):
            for v in (0.3, 2.1, 5.0):
                inv = basic_invariants_at(sphere, u, v)
                assert abs(inv.a1 + (math.sin(u) - math.cos(u)) / 2) < 1e-12
                assert abs(inv.b1 - (math.sin(u) + math.cos(u)) / 2) < 1e-12
                assert abs(inv.c1) < 1e-12
                assert abs(inv.a2) < 1e-12 and abs(inv.b2) < 1e-12
                assert abs(inv.c2 + math.cos(u)) < 1e-12
                assert inv.e1 == inv.f1 == inv.g1 == 0.0
                assert abs(inv.e2) < 1e-12
                assert abs(inv.f2 - 0.5) < 1e-12
                assert abs(inv.g2 + 0.5) < 1e-12

    def test_tangent_reconstruction(self, sphere):
        # X_u must equal a1 v + b1 w + c1 m, and X_v must equal c2 m
        rng = random.Random(7)
        for _ in range(200):
            u = rng.uniform(-math.pi / 2, math.pi / 2)
            v = rng.uniform(0, 2 * math.pi)
            inv = basic_invariants_at(sphere, u, v)
            fr = frame_at(sphere, u, v)
            rec_u = (fr.v.scaled(inv.a1) + fr.w.scaled(inv.b1) + fr.m.scaled(inv.c1))
            rec_v = (fr.v.scaled(inv.a2) + fr.w.scaled(inv.b2) + fr.m.scaled(inv.c2))
            assert (sphere.x_u(u, v) - rec_u).max_abs() <= 1e-9
            assert (sphere.x_v(u, v) - rec_v).max_abs() <= 1e-9


class TestFrameDerivativeStructure:
    """The frame derivatives expand in the frame itself with the e/f/g
    coefficients; checked by central finite differences."""

    STEP = 1e-5

    def _fd(self, surface, which, u, v, var):
        h = self.STEP
        if var == "u":
            hi, lo = which(u + h, v), which(u - h, v)
        else:
            hi, lo = which(u, v + h), which(u, v - h)
        return (hi - lo).scaled(1.0 / (2 * h))

    @pytest.mark.parametrize("fixture", ["sphere", "twisted_band"])
    def test_frame_ode_consistency(self, fixture, request):
        s = request.getfixturevalue(fixture)
        rng = random.Random(99)
        for _ in range(300):
            u = rng.uniform(s.domain.u_min + 1e-3, s.domain.u_max - 1e-3)
            v = rng.uniform(s.domain.v_min + 1e-3, s.domain.v_max - 1e-3)
            inv = basic_invariants_at(s, u, v)
            fr = frame_at(s, u, v)
            cases = [
                (s.frame_vec_v, "u", fr.v.scaled(inv.e1) + fr.m.scaled(2 * inv.g1)),
                (s.frame_vec_w, "u", fr.w.scaled(-inv.e1) + fr.m.scaled(2 * inv.f1)),
                (s.frame_vec_m, "u", fr.v.scaled(inv.f1) + fr.w.scaled(inv.g1)),
                (s.frame_vec_v, "v", fr.v.scaled(inv.e2) + fr.m.scaled(2 * inv.g2)),
                (s.frame_vec_w, "v", fr.w.scaled(-inv.e2) + fr.m.scaled(2 * inv.f2)),
                (s.frame_vec_m, "v", fr.v.scaled(inv.f2) + fr.w.scaled(inv.g2)),
            ]
            for which, var, expected in cases:
                fd = self._fd(s, which, u, v, var)
                assert (fd - expected).max_abs() <= 1e-6

    @pytest.mark.parametrize("fixture", ["sphere", "twisted_band"])
    def test_structural_zeros(self, fixture, request):
        # lightlike self-pairing forces zero coefficients in the frame
        # derivative expansions
        s = request.getfixturevalue(fixture)
        rng = random.Random(5)
        for _ in range(100):
            u = rng.uniform(s.domain.u_min + 1e-3, s.domain.u_max - 1e-3)
            v = rng.uniform(s.domain.v_min + 1e-3, s.domain.v_max - 1e-3)
            fr = frame_at(s, u, v)
            vu = self._fd(s, s.frame_vec_v, u, v, "u")
            wu = self._fd(s, s.frame_vec_w, u, v, "u")
            assert abs(pseudo_dot(vu, fr.v)) <= 1e-6
            assert abs(pseudo_dot(wu, fr.w)) <= 1e-6
            # <v,w> = -2 is constant, so the mixed pairings cancel
            assert abs(pseudo_dot(vu, fr.w) + pseudo_dot(fr.v, wu)) <= 1e-6


class TestSympyOracle:
    """Re-derive all invariant fields with an independent engine.

    The oracle builds the cross product from the determinant pairing
    property alone and every coefficient from its defining inner
    product, then differentiates with sympy."""

    @staticmethod
    def _oracle(x_srcs, v_srcs, w_srcs):
        u, v = sp.symbols("u v", real=True)
        loc = {"u": u, "v": v}

        def s2s(src):
            return sp.sympify(src.replace("^", "**"), locals=loc)

        X = sp.Matrix([s2s(c) for c in x_srcs])
        fv = sp.Matrix([s2s(c) for c in v_srcs])
        fw = sp.Matrix([s2s(c) for c in w_srcs])

        def pdot(a, b):
            return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

        def wedge_sym(a, b):
            e = sp.eye(3)
            return sp.Matrix([
                -sp.Matrix([e[:, 0].T, a.T, b.T]).det(),
                sp.Matrix([e[:, 1].T, a.T, b.T]).det(),
                sp.Matrix([e[:, 2].T, a.T, b.T]).det(),
            ])

        m = -wedge_sym(fv, fw) / 2
        Xu, Xv = X.diff(u), X.diff(v)
        fields = {
            "a1": -pdot(Xu, fw) / 2, "b1": -pdot(Xu, fv) / 2, "c1": pdot(Xu, m),
            "a2": -pdot(Xv, fw) / 2, "b2": -pdot(Xv, fv) / 2, "c2": pdot(Xv, m),
            "e1": pdot(fv, fw.diff(u)) / 2, "f1": pdot(fw.diff(u), m) / 2,
            "g1": pdot(fv.diff(u), m) / 2,
            "e2": pdot(fv, fw.diff(v)) / 2, "f2": pdot(fw.diff(v), m) / 2,
            "g2": pdot(fv.diff(v), m) / 2,
        }
        for name in ("a1", "b1", "c1", "c2"):
            fields[name + "u"] = fields[name].diff(u)
            fields[name + "v"] = fields[name].diff(v)
        fields["lambda_til"] = -4 * fields["a1"] * fields["b1"]
        return {k: sp.lambdify((u, v), sp.simplify(e), "math")
                for k, e in fields.items()}

    @pytest.mark.parametrize("name", ["sphere", "twisted_band", "flared_trough"])
    def test_invariants_match_oracle(self, name):
        data = json.loads(catalog.surface_text(name))
        oracle = self._oracle(data["X"], data["v"], data["w"])
        s = catalog.load(name)
        rng = random.Random(hash(name) % 100000)
        for _ in range(60):
            u = rng.uniform(s.domain.u_min, s.domain.u_max)
            v = rng.uniform(s.domain.v_min, s.domain.v_max)
            inv = basic_invariants_at(s, u, v)
            for field_name in ("a1", "b1", "c1", "a2", "b2", "c2",
                               "e1", "f1", "g1", "e2", "f2", "g2",
                               "a1u", "a1v", "b1u", "b1v",
                               "c1u", "c1v", "c2u", "c2v"):
                got = getattr(inv, field_name)
                want = oracle[field_name](u, v)
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), (
                    name, field_name, u, v, got, want)
            lam, = s.program(("lambda_til",))(u, v)
            want = oracle["lambda_til"](u, v)
            assert abs(lam - want) <= 1e-9 * (1 + abs(want))


class TestTwistedBandClosedForms:
    """Frozen hand-derived coefficient fields for the u-framed band."""

    def test_fields(self, twisted_band):
        rng = random.Random(3)
        for _ in range(50):
            u = rng.uniform(-math.pi, math.pi)
            v = rng.uniform(-2.5, 2.5)
            inv = basic_invariants_at(twisted_band, u, v)
            sc = math.sin(u) * math.cos(u)
            assert abs(inv.a1 - (1 + v + sc) / 2) < 1e-12
            assert abs(inv.b1 - (1 - v - sc) / 2) < 1e-12
            assert abs(inv.c1 + math.cos(u) ** 2) < 1e-12
            assert abs(inv.c2 - 1.0) < 1e-12
            assert abs(inv.e1) < 1e-12
            assert abs(inv.f1 - 0.5) < 1e-12
            assert abs(inv.g1 + 0.5) < 1e-12
            assert inv.e2 == inv.f2 == inv.g2 == 0.0


class TestValidation:
    def test_sphere_admitted(self, sphere):
        rep = validate_framed(sphere, (64, 64), 1e-8)
        assert rep.admitted
        assert rep.max_wedge_residual < 1e-9
        assert rep.max_delta4_residual < 1e-9
        assert rep.max_abs_a2 < 1e-12 and rep.max_abs_b2 < 1e-12

    def test_equal_frame_fields_rejected(self):
        s = SurfaceDef(
            "degenerate",
            ["u", "0", "v"],
            ["1", "sin(v)", "cos(v)"],
            ["1", "sin(v)", "cos(v)"],  # w = v: pairing is 0, not -2
            DomainBox(0, 1, 0, 1))
        rep = validate_framed(s, (4, 4), 1e-8)
        assert not rep.admitted
        assert rep.witness[2] == "lightlike-pair"

    def test_swapped_roles_rejected_with_witness(self):
        # exchanging the parameter roles in the position only makes the
        # u-tangent (not the v-tangent) proportional to m, so a2/b2 fail
        s = SurfaceDef(
            "swapped",
            ["sin(v)", "cos(v)*sin(u)", "cos(v)*cos(u)"],
            ["1", "sin(u)", "cos(u)"],
            ["1", "-sin(u)", "-cos(u)"],
            DomainBox(0.2, 1.2, -1.2, -0.2))
        rep = validate_framed(s, (8, 8), 1e-8)
        assert not rep.admitted
        assert rep.witness[2] in ("a2", "b2")
        assert rep.max_abs_a2 > 1e-3 or rep.max_abs_b2 > 1e-3

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf, "1e-8", None, True])
    def test_tolerance_must_be_positive(self, tol):
        # v = w = (1, 0, 1) pairs to 0, not -2; a NaN or an infinite
        # tolerance admitted it, one that is not a number raised a bare
        # TypeError, and True passed as 1.0
        s = SurfaceDef("degenerate", ["u", "0", "v"], ["1", "0", "1"], ["1", "0", "1"],
                       DomainBox(0, 1, 0, 1))
        with pytest.raises(LcframeError, match="validation tolerance must be positive"):
            validate_framed(s, (4, 4), tol)

    def test_all_catalog_surfaces_admitted(self):
        for name in catalog.names():
            rep = validate_framed(catalog.load(name), (12, 12), 1e-8)
            assert rep.admitted, (name, rep.witness)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6, pytest.param(1e9, marks=pytest.mark.xfail(
        strict=True, reason=("ROADMAP item 3: |a2| <= tol is absolute, and a2 has degree 1 in "
                             "X, so at 1e9*X its rounding noise fails all nine with witness a2")))])
    def test_catalog_surfaces_are_admitted_under_a_homothety(self, c):
        rejected = []
        for name in catalog.names():
            rep = validate_framed(SurfaceDef.from_dict(image(name, c=c).data))
            if not rep.admitted:
                rejected.append((name, rep.witness))
        assert rejected == []

    @pytest.mark.parametrize("c", [1.0, 1e-6, pytest.param(1e-9, marks=pytest.mark.xfail(
        strict=True, reason=("ROADMAP item 3: |a2| <= tol is absolute, so at 1e-9*X a2 = "
                             "0.25*c (max 2.5e-10) passes it and the surface is admitted")))])
    def test_a_surface_that_is_not_framed_is_rejected_under_a_homothety(self, c):
        # X1 = u + 0.5*v tilts the v-tangent off m: max |a2| = 0.25*c
        data = image("mixed_bowl", c=c).data
        data["X"][0] = f"{c!r}*(u + 0.5*v)"
        rep = validate_framed(SurfaceDef.from_dict(data))
        assert not rep.admitted
        assert rep.witness[2] == "a2"

    def test_reads_the_frame_legs_v_and_w_only(self, monkeypatch, unshared_code):
        # v, w, X_u, X_v and the five invariants read come from one grid
        # program: no vector program (m among them) and no invariant
        # point program is compiled
        filenames = []

        def recording(text, filename, mode):
            filenames.append(_kind(filename))
            return compile(text, filename, mode)

        monkeypatch.setattr(expr, "compile", recording, raising=False)
        s = SurfaceDef.from_dict(json.loads(catalog.surface_text("mixed_bowl")))
        del filenames[:]
        assert validate_framed(s, (6, 6), 1e-8).admitted
        assert filenames == ["<lcframe-grid-program>"]
        assert list(s._programs) == [(surface._FRAMED_ROOTS, "grid")]
        # kept on the surface: validating again compiles nothing
        assert validate_framed(s, (5, 7), 1e-8).admitted
        assert filenames == ["<lcframe-grid-program>"]


def _kind(filename):
    """The file name of generated code, <lcframe-KIND-CRC>, without the
    CRC of its source: <lcframe-KIND>."""
    return filename[:filename.rindex("-")] + ">"


def _oracle_validate(s, grid=(16, 16), tol=1e-8):
    """validate_framed as a loop over the grid points, evaluating each
    through the surface's vector programs and basic_invariants_at and
    computing the residuals with LVec3 algebra."""
    if not (0 < tol < math.inf):
        raise LcframeError("validation tolerance must be positive and finite")
    nu, nv = grid
    us, vs = s.domain.grid(nu, nv)
    max_wedge = max_pair = max_a2 = max_b2 = max_alpha = max_beta = 0.0
    witness = None

    for u in us:
        for v in vs:
            s.require_in_domain(u, v)
            fv, fw = s.frame_vec_v(u, v), s.frame_vec_w(u, v)
            pair_res = max(
                abs(pseudo_dot(fv, fv)),
                abs(pseudo_dot(fw, fw)),
                abs(pseudo_dot(fv, fw) + 2.0),
            )
            scale = 1.0 + max(fv.max_abs(), fw.max_abs()) ** 2
            max_pair = max(max_pair, pair_res)
            if pair_res > tol * scale and witness is None:
                witness = (u, v, "lightlike-pair", pair_res)

            inv = basic_invariants_at(s, u, v)
            max_a2 = max(max_a2, abs(inv.a2))
            max_b2 = max(max_b2, abs(inv.b2))
            if abs(inv.a2) > tol and witness is None:
                witness = (u, v, "a2", inv.a2)
            if abs(inv.b2) > tol and witness is None:
                witness = (u, v, "b2", inv.b2)

            alpha = -inv.a1 * inv.c2
            beta = inv.b1 * inv.c2
            max_alpha = max(max_alpha, abs(alpha))
            max_beta = max(max_beta, abs(beta))
            lhs = wedge(s.x_u(u, v), s.x_v(u, v))
            rhs = fv.scaled(alpha) + fw.scaled(beta)
            res = (lhs - rhs).max_abs()
            wedge_scale = 1.0 + lhs.max_abs()
            max_wedge = max(max_wedge, res)
            if res > tol * wedge_scale and witness is None:
                witness = (u, v, "wedge-decomposition", res)

    return surface.FramedValidationReport(
        grid=(nu, nv), tol=tol, max_wedge_residual=max_wedge, max_delta4_residual=max_pair,
        max_abs_a2=max_a2, max_abs_b2=max_b2, max_abs_alpha=max_alpha,
        max_abs_beta=max_beta, admitted=witness is None, witness=witness)


def _assert_same_report(s, grid, tol):
    got, want = validate_framed(s, grid, tol), _oracle_validate(s, grid, tol)
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too
    return got


class TestValidationMatchesThePointLoop:
    @pytest.mark.parametrize("tol", [1e-8, 1e-14])
    @pytest.mark.parametrize("grid", [(12, 12), (16, 16), (5, 7)])
    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog(self, name, grid, tol):
        _assert_same_report(catalog.load(name), grid, tol)

    def test_a_rejecting_tolerance_keeps_the_witness(self):
        rep = _assert_same_report(catalog.load("mixed_bowl"), (16, 16), 1e-16)
        assert not rep.admitted

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(catalog.names()), st.floats(-6.0, 6.0),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.sampled_from([(12, 12), (16, 16), (5, 7)]), st.sampled_from([1e-8, 1e-14]))
    def test_scaled_and_shifted_variants(self, name, log_c, du, dv, grid, tol):
        data = image(name, c=10.0 ** log_c, shift=(du, dv)).data
        _assert_same_report(literal(SurfaceDef.from_dict(data), data), grid, tol)


#: v = (1, sin v, cos v), w = (1, -sin v, -cos v): an admissible pair.
SPHERE_FRAME = (["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"])


def _point_loop_error(s, grid):
    with pytest.raises(LcframeError) as err:
        _oracle_validate(s, grid)
    return str(err.value)


class TestValidationFaults:
    def test_a_fault_raises_the_point_loop_error(self):
        # at (0.25, 0.75) v takes the sqrt of a negative number and a1
        # divides by zero, and at (0.5, 0.25) a1 divides by zero: the
        # point loop meets v's fault first, as it evaluates v before a1
        # and goes row by row, not column by column
        s = SurfaceDef(
            "two_faults",
            ["u + 1/((u - 0.25)^2 + (v - 0.75)^2) + 1/((u - 0.5)^2 + (v - 0.25)^2)", "0", "v"],
            ["1", "sqrt(abs(u - 0.25) + abs(v - 0.75) - 0.01)", "1"], ["1", "0", "-1"],
            DomainBox(0.0, 1.0, 0.0, 1.0))
        assert _point_loop_error(s, (5, 5)) == "sqrt of a negative argument"
        with pytest.raises(EvalDomainError, match="^sqrt of a negative argument$"):
            validate_framed(s, (5, 5))
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            basic_invariants_at(s, 0.5, 0.25)

    def test_a_wedge_overflow_before_a_fault_raises_the_overflow(self):
        # X_u ^ X_v overflows from the second row on; X_u divides by zero
        # in the fourth row
        s = SurfaceDef("wedge_overflow", ["1e200*u^2", "1e200*v + 1/(u - 0.6)", "0"],
                       *SPHERE_FRAME, DomainBox(0.0, 1.0, 0.0, 1.0))
        assert _point_loop_error(s, (6, 6)) == "non-finite vector component: inf"
        with pytest.raises(LcframeError) as err:
            validate_framed(s, (6, 6))
        assert str(err.value) == "non-finite vector component: inf"

    def test_a_wedge_overflow_raises_the_point_loop_error(self):
        s = SurfaceDef("wedge_overflow", ["1e200*u^2", "1e200*v", "0"],
                       *SPHERE_FRAME, DomainBox(0.0, 1.0, 0.0, 1.0))
        assert _point_loop_error(s, (6, 6)) == "non-finite vector component: inf"
        with pytest.raises(LcframeError) as err:
            validate_framed(s, (6, 6))
        assert str(err.value) == "non-finite vector component: inf"

    def test_invariants_it_does_not_read_do_not_fail_it(self):
        # w_u divides by zero at u = 0, so e1, f1 and the partials fault
        # there, and the point loop fails on its first point; validate
        # reads none of them, and <v, w> = -2 only at u = 0
        s = SurfaceDef("w_u_faults", ["u", "-v", "0"],
                       ["1", "0", "1"], ["1 + sqrt(u)", "0", "-1"],
                       DomainBox(0.0, 1.0, -1.0, 1.0))
        assert _point_loop_error(s, (4, 4)) == "division by zero"
        rep = validate_framed(s, (4, 4))
        assert rep.witness[:3] == (1 / 3, -1.0, "lightlike-pair")

    def test_large_frame_components_fail_the_pair_check(self):
        # <v, w> = -2, but <v, v> overflows to inf - inf
        s = SurfaceDef("large_frame", ["u", "-v", "0"], ["1e160", "0", "1e160"],
                       ["1e-160", "0", "-1e-160"], DomainBox(-1.0, 1.0, -1.0, 1.0))
        rep = validate_framed(s, (4, 4))
        assert not rep.admitted
        assert rep.witness == (-1.0, -1.0, "lightlike-pair", math.inf)
        assert rep.max_delta4_residual == math.inf
        assert rep.max_wedge_residual == 0.0


class TestSurfaceFiles:
    def test_file_round_trip(self, tmp_path, sphere):
        text = catalog.surface_text("sphere")
        path = tmp_path / "copy.surf"
        path.write_text(text, encoding="utf-8")
        loaded = SurfaceDef.from_file(path)
        assert loaded.name == "sphere"
        assert loaded.domain == sphere.domain
        inv_a = basic_invariants_at(loaded, 0.3, 1.0)
        inv_b = basic_invariants_at(sphere, 0.3, 1.0)
        assert inv_a == inv_b

    def test_missing_key(self):
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_dict({"name": "x", "X": ["u", "v", "1"]})

    def test_wrong_component_count(self):
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_dict({
                "name": "x", "X": ["u", "v"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"],
                "domain": {"u": [0, 1], "v": [0, 1]}})

    def test_bad_domain(self):
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_dict({
                "name": "x", "X": ["u", "v", "1"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": {"u": [1, 0], "v": [0, 1]}})

    @pytest.mark.parametrize("domain", [
        {"u": "01", "v": [0, 1]},  # was read as u in [0, 1], one bound a character
        {"u": [0, 1, 5], "v": [0, 1]},  # the third bound was dropped
        {"u": [0, 1], "v": [0]},
        {"u": [0, 1]},
        [[0, 1], [0, 1]],
    ], ids=["string", "three-bounds", "one-bound", "missing-v", "list"])
    def test_a_domain_needs_two_bounds_for_each_parameter(self, domain):
        with pytest.raises(SurfaceFormatError,
                           match=r"^domain must be \{'u': \[lo, hi\], 'v': \[lo, hi\]\}$"):
            SurfaceDef.from_dict({
                "name": "x", "X": ["u", "v", "1"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": domain})

    def test_domain_bounds_must_be_constant(self):
        with pytest.raises(LcframeError):
            SurfaceDef.from_dict({
                "name": "x", "X": ["u", "v", "1"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": {"u": ["2*u", 1], "v": [0, 1]}})

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.surf"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_file(tmp_path / "absent.surf")

    def test_expression_error_carries_position(self):
        with pytest.raises(LcframeError) as err:
            SurfaceDef.from_dict({
                "name": "x", "X": ["sin(q)", "v", "1"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": {"u": [0, 1], "v": [0, 1]}})
        assert "q" in str(err.value)


class TestConstantFrameExample:
    def test_plane_strip_with_constant_frame(self):
        # frame (1,0,1), (1,0,-1): m = -(1/2) wedge = (0,-1,0), a unit
        # spacelike vector; X_v parallel to m keeps a2 = b2 = 0
        s = SurfaceDef(
            "plane-strip",
            ["u", "-v", "0"],
            ["1", "0", "1"],
            ["1", "0", "-1"],
            DomainBox(-1, 1, -1, 1))
        fr = frame_at(s, 0.0, 0.0)
        assert vec_close(fr.m, (0.0, -1.0, 0.0))
        assert abs(pseudo_dot(fr.m, fr.m) - 1.0) < 1e-15
        rep = validate_framed(s, (4, 4), 1e-10)
        assert rep.admitted

    def test_domain_enforcement(self, sphere):
        with pytest.raises(LcframeError):
            frame_at(sphere, 10.0, 0.0)

    def test_grid_requires_2x2(self, sphere):
        with pytest.raises(LcframeError):
            sphere.domain.grid(1, 5)


class TestDomainGrid:
    def test_far_from_the_origin_every_point_is_inside(self):
        # lo + (hi - lo) * 185 / 185 rounds to -105912.77454924845, past hi
        box = DomainBox(-468799.53750686604, -105912.77454924851, 0.0, 1.0)
        us, vs = box.grid(186, 2)
        assert us[-1] == box.u_max
        assert all(box.contains(u, v) for u in us for v in vs)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e9, 1e9), st.floats(1e-3, 1e9), st.integers(2, 300))
    def test_no_point_falls_outside(self, lo, width, n):
        box = DomainBox(lo, lo + width, lo, lo + width)
        us, vs = box.grid(n, n)
        assert all(box.contains(u, u) for u in us)
        assert us[0] == lo

    @pytest.mark.parametrize("name", catalog.names())
    def test_points_inside_stay_where_they_were(self, name):
        d = catalog.load(name).domain
        for n in (2, 7, 16, 37, 64, 61, 128, 256):
            us, vs = d.grid(n, n)
            assert us == [d.u_min + (d.u_max - d.u_min) * i / (n - 1) for i in range(n)]
            assert vs == [d.v_min + (d.v_max - d.v_min) * j / (n - 1) for j in range(n)]

    @pytest.mark.parametrize("lo, hi, n, last", [
        (-0.6308074120837044, 2.974598206220036, 86, 2.9745982062200365),
        (0.18802547043734447, 62.81769702524314, 136, 62.81769702524315),
    ])
    def test_a_point_past_a_bound_within_the_slack_stays(self, lo, hi, n, last):
        # the last sample rounds past hi, by less than contains allows
        us, _ = DomainBox(lo, hi, 0.0, 1.0).grid(n, 2)
        assert hi < us[-1] == last

    def test_validate_and_classify_run_far_from_the_origin(self, tmp_path):
        s = SurfaceDef("far", ["u", "-v", "0"], ["1", "0", "1"], ["1", "0", "-1"],
                       DomainBox(-468799.53750686604, -105912.77454924851, 0.0, 1.0))
        assert validate_framed(s, (186, 2)).admitted
        assert len(classify_grid(s, (186, 2)).rows) == 372

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, 10 ** 400],
                             ids=["inf", "-inf", "nan", "10**400"])
    def test_a_non_finite_bound_is_rejected(self, bound):
        # JSON reads -Infinity, NaN and 1e999 as floats
        data = {"name": "x", "X": ["u", "-v", "0"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": {"u": [0, 1], "v": [bound, 1]}}
        with pytest.raises(SurfaceFormatError):
            SurfaceDef.from_dict(data)

    @pytest.mark.parametrize("bound", [True, False])
    def test_a_boolean_bound_is_rejected(self, bound):
        # JSON reads true and false as bools, which are ints to Python
        data = {"name": "x", "X": ["u", "-v", "0"], "v": ["1", "0", "1"],
                "w": ["1", "0", "-1"], "domain": {"u": [bound, 2], "v": [0, 1]}}
        with pytest.raises(SurfaceFormatError, match="^domain bound must be a number or an"):
            SurfaceDef.from_dict(data)

    @pytest.mark.parametrize("nu, nv", [(16, 16.5), (10.5, 4), ("16", 16), (True, 16),
                                        (16, False)])
    def test_grid_counts_that_are_not_integers_are_rejected(self, sphere, nu, nv):
        # booleans included, which are ints to Python
        with pytest.raises(LcframeError, match="must be an integer"):
            sphere.domain.grid(nu, nv)

    @pytest.mark.parametrize("call", [
        lambda s, grid: validate_framed(s, grid),
        lambda s, grid: classify_grid(s, grid),
        lambda s, grid: trace_zero_set(s, "lambda_til", grid),
        lambda s, grid: _write_curvature_csv(s, grid, io.StringIO()),
    ], ids=["validate_framed", "classify_grid", "trace_zero_set", "curvature_csv"])
    @pytest.mark.parametrize("grid", [(16, 16.5), (10.5, 4), ("16", 16), (8, 8, 8), (True, 16),
                                      (16, False), 16])
    def test_a_resolution_not_a_pair_of_integers_is_rejected(self, sphere, call, grid):
        with pytest.raises(LcframeError, match="integer"):
            call(sphere, grid)

    def test_a_box_too_wide_for_floats_is_rejected(self):
        # u_max - u_min overflows, and the grid held nan and inf points
        with pytest.raises(SurfaceFormatError, match="finite"):
            DomainBox(-1e308, 1e308, 0.0, 1.0)

    def test_a_json_infinity_is_rejected_at_load(self, tmp_path):
        path = tmp_path / "inf.surf"
        path.write_text(
            '{"name": "x", "X": ["u", "-v", "0"], "v": ["1", "0", "1"], '
            '"w": ["1", "0", "-1"], "domain": {"u": [-Infinity, 1], "v": [0, 1e999]}}',
            encoding="utf-8")
        with pytest.raises(SurfaceFormatError, match="finite"):
            SurfaceDef.from_file(path)


class TestInvariantProgram:
    @pytest.mark.parametrize("name", catalog.names())
    def test_c2_matches_the_traced_field(self, name):
        # two programs of the same tree: c2 among the invariants and alone
        s = catalog.load(name)
        field = s.program(("c2",))
        us, vs = s.domain.grid(9, 9)
        for u in us:
            for v in vs:
                c2 = basic_invariants_at(s, u, v).c2
                assert struct.pack("<d", c2) == struct.pack("<d", *field(u, v)), (u, v)

    def test_a_traced_field_is_derived_and_simplified_in_one_context(self, monkeypatch):
        # the build's: the traced fields are its roots, and compiling
        # them derives and simplifies nothing again
        contexts = []
        original = Dag.__init__

        def counted(self):
            contexts.append(self)
            original(self)

        monkeypatch.setattr(Dag, "__init__", counted)
        # so that the build derives its shape
        surface._by_tokens.cache_clear()
        s = SurfaceDef.from_dict(json.loads(catalog.surface_text("twisted_band")))
        for field in TRACED_FIELDS:
            for schedule in ("point", "grid", "edges"):
                s.program((field,), schedule)
        assert len(contexts) == 1

    def test_compiles_only_what_it_evaluates(self, monkeypatch):
        # per surface: each domain bound that is not a single constant
        # (such as 2*pi) at construction, then one program on the first
        # use of the invariants and of each of the 8 vector accessors,
        # and on the first use of each of the 2 traced fields its point,
        # grid and edge programs (the edge kernels call the field's point
        # program on a fault and compile none of their own), and none
        # after that
        calls = collections.Counter()

        def counting(compile_fn):
            def counted(*args):
                calls[compile_fn.__name__] += 1
                return compile_fn(*args)

            return counted

        for compile_fn in (compile_program, expr.compile_grid_program,
                           expr.compile_edge_kernels):
            counted = counting(compile_fn)
            monkeypatch.setattr(expr, compile_fn.__name__, counted)
            monkeypatch.setattr(surface, compile_fn.__name__, counted, raising=False)
        traced_field = {"compile_program": 1, "compile_grid_program": 1,
                        "compile_edge_kernels": 1}
        for name in catalog.names():
            calls.clear()
            data = json.loads(catalog.surface_text(name))
            s = SurfaceDef.from_dict(data)
            at_build = sum(type(expr.parse(bound)) is not Const
                           for bounds in data["domain"].values() for bound in bounds)
            assert calls == collections.Counter(compile_program=at_build), name
            u, v = s.domain.u_min, s.domain.v_min
            uses = _every_use(s)
            for k, use in enumerate(uses):
                before = calls.copy()
                use(u, v)
                first = calls - before
                assert first == (traced_field if k >= len(uses) - len(TRACED_FIELDS)
                                 else {"compile_program": 1}), (name, use)
                use(u, v)
                assert calls - before == first, (name, use)
            assert calls == collections.Counter(compile_program=at_build + 11,
                                                compile_grid_program=2,
                                                compile_edge_kernels=2), name


VECTOR_ACCESSORS = ("x_u", "x_v", "x_uu", "x_uv", "x_vv", "frame_vec_v", "frame_vec_w",
                    "frame_vec_m")
TRACED_FIELDS = ("lambda_til", "c2")


def _every_use(s):
    """A call (u, v) -> tuple of floats for the invariants and per
    vector accessor and traced field of s; the first call of each
    compiles that program, and a traced field's its point, grid and
    edge programs, as trace_zero_set does."""
    uses = [lambda u, v: basic_invariants_at(s, u, v)]
    uses += [getattr(s, accessor) for accessor in VECTOR_ACCESSORS]
    for field in TRACED_FIELDS:
        def traced(u, v, roots=(field,)):
            point, _, _ = (s.program(roots, schedule) for schedule in ("point", "grid", "edges"))
            return point(u, v)

        uses.append(traced)
    return uses


def _hex_values(program, s):
    """float.hex of a program's values at each point of a 9x9 grid on
    the domain of s, or the fault's text."""
    us, vs = s.domain.grid(9, 9)
    out = []
    for u, v in ((u, v) for u in us for v in vs):
        try:
            out.append([x.hex() for x in program(u, v)])
        except LcframeError as exc:
            out.append(str(exc))
    return out


def _eager_programs(s):
    """The invariant program, the 8 vector programs and the 2 traced
    fields of s, derived together in one context, from the trees of its
    shape's inputs, and compiled at once with its constants bound, in
    the order of _every_use."""
    dag = Dag()
    xu, xv, fv, fw, m = (tuple(map(dag.simplify, s.shape.trees(k)))
                         for k in ("x_u", "x_v", "v", "w", "m"))
    field = surface._invariant_trees(dag, xu, xv, fv, fw, m)
    trees = [field[k] for k in surface.BasicInvariants._fields]
    vectors = [xu, xv] + [[dag.differentiate(e, var) for e in vec]
                          for vec, var in ((xu, "u"), (xu, "v"), (xv, "v"))]

    def bound(trees):
        return expr._numbering(trees).bound(s.constants)

    programs = [compile_program(bound(trees)) for trees in [trees] + vectors + [fv, fw, m]]
    lambda_til = dag.simplify(Mul(Const(-4.0), Mul(field["a1"], field["b1"])))
    for tree in (lambda_til, field["c2"]):
        # a traced field's point and grid programs and edge kernels
        numbering = bound([tree])
        point = compile_program(numbering)
        compile_grid_program(numbering)
        compile_edge_kernels(numbering, point)
        programs.append(point)
    return programs


@pytest.mark.parametrize("name", catalog.names())
def test_programs_compiled_on_first_use_match_an_eager_derivation(name, monkeypatch,
                                                                 unshared_code):
    sources = []

    def recording(text, filename, mode):
        sources.append(text)
        return compile(text, filename, mode)

    monkeypatch.setattr(expr, "compile", recording, raising=False)
    s = SurfaceDef.from_dict(json.loads(catalog.surface_text(name)))
    del sources[:]
    lazy = [_hex_values(use, s) for use in _every_use(s)]
    lazy_sources = sources[:]
    del sources[:]
    eager = [_hex_values(program, s) for program in _eager_programs(s)]
    # the invariant and 8 vector programs, then per traced field its
    # point and grid programs and its two edge kernels
    assert len(lazy_sources) == 9 + 2 * 4
    assert lazy_sources == sources
    assert lazy == eager


def _every_program(s):
    """A call () -> float.hex of values or a fault's text per program
    kind of s: each of _every_use, the array program, the traced fields'
    grid programs and validate_framed's grid program."""
    us, vs = s.domain.grid(5, 4)
    at = [lambda use=use: _hex_values(use, s) for use in _every_use(s)]
    points = np.array([(u, v) for u in us for v in vs]).T
    at.append(lambda: [float(x).hex() for column in s.invariant_arrays(*points)[0]
                       for x in column])
    for field in TRACED_FIELDS:
        at.append(lambda field=field: [x.hex() for row in s.program((field,), "grid")(us, vs)
                                       for x in row])
    at.append(lambda: repr(validate_framed(s, (5, 4))))
    return at


def test_a_surface_and_its_images_share_every_program(monkeypatch):
    # X -> 2X and a shift of u change constants only: the images compile
    # nothing, and run the surface's codes with their own constants
    expr._shared_code.cache_clear()
    filenames = []

    def recording(text, filename, mode):
        filenames.append(_kind(filename))
        return compile(text, filename, mode)

    monkeypatch.setattr(expr, "compile", recording, raising=False)
    datas = [image("mixed_bowl", c=c, shift=(du, 0.0)).data
             for c, du in ((3.0, 0.25), (6.0, 0.25), (3.0, 0.75))]
    # the first use of a traced field compiles its point program, its
    # grid program and its two edge kernels together; any other kind of
    # program compiles at most one code
    traced = range(1 + len(VECTOR_ACCESSORS), 1 + len(VECTOR_ACCESSORS) + len(TRACED_FIELDS))
    field_codes = collections.Counter({"<lcframe-program>": 1, "<lcframe-grid-program>": 1,
                                       "<lcframe-edge-kernel>": 2})
    shared = []
    for k, data in enumerate(datas):
        del filenames[:]
        s = SurfaceDef.from_dict(data)
        values = []
        for kind in _every_program(s):
            before = len(filenames)
            values.append(kind())
            new = collections.Counter(filenames[before:])
            if k or len(values) - 1 not in traced:
                assert sum(new.values()) <= (1 if k == 0 else 0), (k, len(values))
            else:
                assert new <= field_codes, (k, len(values))
        assert len(filenames) > 0 if k == 0 else filenames == [], k
        shared.append(values)
    # 2X doubles X_u, X_v and the second partials exactly
    for vec in range(1, 6):
        assert shared[1][vec] == [[(2.0 * float.fromhex(x)).hex() for x in point]
                                  for point in shared[0][vec]]
    # each compiled afresh gives the same bits
    monkeypatch.setattr(expr, "_shared_code", expr._shared_code.__wrapped__)
    for data, values in zip(datas, shared):
        assert [kind() for kind in _every_program(SurfaceDef.from_dict(data))] == values


def test_threads_compiling_on_first_use_match_a_serial_surface():
    # threads racing to compile the same programs each derive in a
    # context of their own and must read a serial surface's bits
    def values(s):
        return [_hex_values(use, s) for use in _every_use(s)]

    for name in ("sphere", "twisted_band"):
        text = json.loads(catalog.surface_text(name))
        serial = values(SurfaceDef.from_dict(text))
        shared = SurfaceDef.from_dict(text)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(lambda _: values(shared), range(4), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert all(r == serial for r in results), name


def _fresh_catalog_invariants():
    """float.hex of every invariant of every catalog surface, built
    afresh, at the points of a 5x5 grid and from the array program."""
    out = []
    for name in catalog.names():
        s = SurfaceDef.from_dict(json.loads(catalog.surface_text(name)))
        us, vs = s.domain.grid(5, 5)
        points = [(u, v) for u in us for v in vs]
        for u, v in points:
            out.append([x.hex() for x in basic_invariants_at(s, u, v)])
        columns, bad = s.invariant_arrays(*map(np.array, zip(*points)))
        out.append([float(x).hex() for column in columns for x in column])
        out.append(bad.tolist())
    return out


def test_parallel_builds_match_a_serial_build():
    # each build derives in a context of its own: threads building at
    # once, switching often, must give a serial build's bits
    serial = _fresh_catalog_invariants()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda _: _fresh_catalog_invariants(), range(4),
                                    timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


def test_no_derivation_context_outlives_a_lazy_compile():
    s = SurfaceDef.from_dict(json.loads(catalog.surface_text("twisted_band")))
    for use in _every_use(s):
        use(0.1, 0.2)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Dag)]


def test_no_derivation_context_outlives_a_build():
    s = SurfaceDef.from_dict(json.loads(catalog.surface_text("twisted_band")))
    s.invariant_arrays(np.array([0.1]), np.array([0.2]))
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Dag)]
