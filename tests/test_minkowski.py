import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcframe.minkowski import (
    CausalCharacter, LVec3, ModelSpace, causal_character, in_model_space,
    is_delta4_pair, norm, pseudo_dot, wedge,
)
from lcframe.errors import LcframeError


def det3(z, x, y):
    """Plain 3x3 determinant with rows z, x, y (independent oracle)."""
    return (z[0] * (x[1] * y[2] - x[2] * y[1])
            - z[1] * (x[0] * y[2] - x[2] * y[0])
            + z[2] * (x[0] * y[1] - x[1] * y[0]))


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec = st.builds(LVec3, coord, coord, coord)


def close(a, b, tol=1e-10):
    scale = 1.0 + max(abs(a), abs(b))
    return abs(a - b) <= tol * scale


def vclose(a, b, tol=1e-10):
    return all(close(x, y, tol) for x, y in zip(a, b))


class TestPseudoDot:
    def test_timelike_basis(self):
        assert pseudo_dot(LVec3(1, 0, 0), LVec3(1, 0, 0)) == -1.0

    def test_orthogonal_spacelike_basis(self):
        assert pseudo_dot(LVec3(0, 1, 0), LVec3(0, 0, 1)) == 0.0

    @pytest.mark.parametrize("v", [0.0, 0.3, 1.7, 3.9, 5.2])
    def test_frame_pair_value(self, v):
        a = LVec3(1, math.sin(v), math.cos(v))
        b = LVec3(1, -math.sin(v), -math.cos(v))
        assert close(pseudo_dot(a, b), -2.0)

    @given(vec, vec)
    def test_symmetry(self, a, b):
        assert pseudo_dot(a, b) == pseudo_dot(b, a)

    @given(vec, vec, vec, st.floats(-5, 5, allow_nan=False))
    def test_bilinearity(self, a, b, c, t):
        lhs = pseudo_dot(a + b.scaled(t), c)
        rhs = pseudo_dot(a, c) + t * pseudo_dot(b, c)
        assert close(lhs, rhs, 1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(LcframeError):
            LVec3(math.nan, 0, 0)
        with pytest.raises(LcframeError):
            LVec3(0, math.inf, 0)


class TestWedge:
    @given(vec)
    def test_self_wedge_vanishes(self, a):
        assert tuple(wedge(a, a)) == (0.0, 0.0, 0.0)

    @given(vec, vec)
    def test_antisymmetry(self, a, b):
        assert vclose(wedge(a, b), -wedge(b, a))

    @given(vec, vec, vec)
    def test_triple_product_is_determinant(self, z, x, y):
        lhs = pseudo_dot(z, wedge(x, y))
        rhs = det3(tuple(z), tuple(x), tuple(y))
        assert close(lhs, rhs)

    @given(vec, vec)
    def test_orthogonal_to_both_factors(self, a, b):
        w = wedge(a, b)
        assert close(pseudo_dot(w, a), 0.0)
        assert close(pseudo_dot(w, b), 0.0)

    @given(vec, vec, vec)
    def test_double_wedge_left(self, x, y, z):
        lhs = wedge(wedge(x, y), z)
        rhs = y.scaled(-pseudo_dot(x, z)) + x.scaled(pseudo_dot(y, z))
        assert vclose(lhs, rhs)

    @given(vec, vec, vec)
    def test_double_wedge_right(self, x, y, z):
        lhs = wedge(x, wedge(y, z))
        rhs = z.scaled(pseudo_dot(x, y)) - y.scaled(pseudo_dot(x, z))
        assert vclose(lhs, rhs)

    @given(vec, vec, vec, vec)
    def test_pairing_of_wedges(self, x, y, z, a):
        lhs = pseudo_dot(wedge(x, y), wedge(z, a))
        rhs = (pseudo_dot(x, a) * pseudo_dot(y, z)
               - pseudo_dot(x, z) * pseudo_dot(y, a))
        assert close(lhs, rhs)

    def test_frame_pair_wedge(self):
        # constant lightlike pair at v = 0; -(1/2) of the wedge is the
        # unit spacelike frame leg
        a = LVec3(1, math.sin(0.0), math.cos(0.0))
        b = LVec3(1, -math.sin(0.0), -math.cos(0.0))
        assert vclose(wedge(a, b), LVec3(0, 2, 0))
        m = wedge(a, b).scaled(-0.5)
        assert vclose(m, LVec3(0.0, -1.0, 0.0))
        assert close(pseudo_dot(m, m), 1.0)


@st.composite
def timelike_unit_and_spacelike_unit(draw):
    """A timelike unit vector x and a spacelike unit y with <x,y> = 0."""
    x = draw(st.builds(
        LVec3,
        st.floats(1.0, 4.0), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)))
    q = pseudo_dot(x, x)
    assert q < 0
    x = x.scaled(1.0 / math.sqrt(-q))
    y0 = draw(st.builds(LVec3, st.floats(-2, 2), st.floats(0.5, 3.0), st.floats(-2, 2)))
    # project out the x-component: with <x,x> = -1 the correction sign flips
    y = y0 + x.scaled(pseudo_dot(y0, x))
    qy = pseudo_dot(y, y)
    if qy <= 1e-9:
        # the projection can collapse; retry via a perpendicular seed
        y = wedge(x, y0)
        qy = pseudo_dot(y, y)
    if qy <= 1e-9:
        y = wedge(x, LVec3(0.0, 1.0, 0.0))
        qy = pseudo_dot(y, y)
    return x, y.scaled(1.0 / math.sqrt(qy))


class TestSignedWedgeCases:
    @given(timelike_unit_and_spacelike_unit())
    def test_timelike_spacelike_frame(self, pair):
        x, y = pair
        assert close(pseudo_dot(x, x), -1.0, 1e-8)
        assert close(pseudo_dot(y, y), 1.0, 1e-8)
        assert close(pseudo_dot(x, y), 0.0, 1e-8)
        z = wedge(x, y)
        assert vclose(wedge(z, x), y, 1e-8)
        assert vclose(wedge(y, z), -x, 1e-8)

    def test_basis_cases(self):
        e1, e2, e3 = LVec3(1, 0, 0), LVec3(0, 1, 0), LVec3(0, 0, 1)
        # timelike x, spacelike y: z^x = y, y^z = -x
        z = wedge(e1, e2)
        assert vclose(z, e3)
        assert vclose(wedge(z, e1), e2)
        assert vclose(wedge(e2, z), -e1)
        # spacelike x, timelike y: z^x = -y, y^z = x
        z = wedge(e2, e1)
        assert vclose(wedge(z, e2), -e1)
        assert vclose(wedge(e1, z), e2)
        # both spacelike: z^x = -y, y^z = -x
        z = wedge(e2, e3)
        assert vclose(wedge(z, e2), -e3)
        assert vclose(wedge(e3, z), -e2)


class TestNormAndCausalCharacter:
    def test_norm_examples(self):
        assert norm(LVec3(1, 0, 0)) == 1.0
        assert norm(LVec3(1, 1, 0)) == 0.0
        assert norm(LVec3(0, 3, 4)) == 5.0

    def test_character_examples(self):
        assert causal_character(LVec3(1, 0, 0), 1e-12) is CausalCharacter.TIMELIKE
        assert causal_character(LVec3(1, 1, 0), 1e-12) is CausalCharacter.LIGHTLIKE
        assert causal_character(LVec3(0, 1, 1), 1e-12) is CausalCharacter.SPACELIKE

    def test_signs(self):
        assert CausalCharacter.SPACELIKE.sign == 1
        assert CausalCharacter.LIGHTLIKE.sign == 0
        assert CausalCharacter.TIMELIKE.sign == -1

    @given(st.floats(0.1, 10.0), st.floats(0, 6.28), st.floats(1.0, 1e6))
    def test_scaling_keeps_lightlike(self, r, theta, c):
        # rescaling a lightlike vector upward must not change its class
        a = LVec3(r, r * math.sin(theta), r * math.cos(theta))
        assert causal_character(a) is CausalCharacter.LIGHTLIKE
        assert causal_character(a.scaled(c)) is CausalCharacter.LIGHTLIKE

    @given(vec, st.floats(1.0, 1e6, allow_nan=False))
    def test_scaling_keeps_clear_characters(self, a, c):
        # vectors with a self-pairing well clear of the tolerance band
        # classify identically after scaling up
        q = pseudo_dot(a, a)
        band = 1e-6 * (1.0 + a.max_abs() ** 2)
        if abs(q) < band:
            return
        assert causal_character(a) is causal_character(a.scaled(c))

    def test_rejects_negative_tolerance(self):
        with pytest.raises(LcframeError):
            causal_character(LVec3(1, 0, 0), -1.0)


class TestDelta4Pair:
    def test_derived_pair(self):
        assert is_delta4_pair(LVec3(1, 0, 1), LVec3(1, 0, -1), 1e-12)

    def test_equal_lightlike_vectors_fail(self):
        assert not is_delta4_pair(LVec3(1, 0, 1), LVec3(1, 0, 1), 1e-12)

    def test_non_lightlike_fails(self):
        assert not is_delta4_pair(LVec3(1, 0, 0), LVec3(1, 0, -1), 1e-12)

    def test_frame_pair_family(self):
        for k in range(100):
            v = 2.0 * math.pi * k / 100.0
            a = LVec3(1, math.sin(v), math.cos(v))
            b = LVec3(1, -math.sin(v), -math.cos(v))
            assert is_delta4_pair(a, b, 1e-12)


class TestModelSpaces:
    def test_hyperbolic(self):
        assert in_model_space(LVec3(1, 0, 0), ModelSpace.HYPERBOLIC)
        assert in_model_space(LVec3(math.sqrt(2), 1, 0), ModelSpace.HYPERBOLIC, 1e-12)
        assert not in_model_space(LVec3(0, 1, 0), ModelSpace.HYPERBOLIC)

    def test_de_sitter(self):
        assert in_model_space(LVec3(0, 1, 0), ModelSpace.DE_SITTER)
        assert in_model_space(LVec3(1, math.sqrt(2), 0), ModelSpace.DE_SITTER, 1e-12)

    def test_light_cone(self):
        assert in_model_space(LVec3(1, 1, 0), ModelSpace.LIGHT_CONE)
        assert not in_model_space(LVec3(0, 0, 0), ModelSpace.LIGHT_CONE)

    def test_plane(self):
        n = LVec3(1, 0, 0)
        assert in_model_space(LVec3(2, 5, 7), ModelSpace.PLANE, normal=n, offset=-2.0)
        assert not in_model_space(LVec3(2, 5, 7), ModelSpace.PLANE, normal=n, offset=0.0)
        with pytest.raises(LcframeError):
            in_model_space(LVec3(1, 0, 0), ModelSpace.PLANE)


#: Each tolerance check with a vector and a pair that its verdict reads.
TOLERANCE_CHECKS = {
    "causal_character": lambda tol: causal_character(LVec3(1.0, 1.0, 0.0), tol),
    "is_delta4_pair": lambda tol: is_delta4_pair(LVec3(1.0, 0.0, 0.0), LVec3(1.0, 0.0, 0.0), tol),
    "in_model_space": lambda tol: in_model_space(LVec3(1.0, 1.0, 0.0), ModelSpace.LIGHT_CONE,
                                                 tol),
}


class TestTolerances:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12, "1e-12", None, True])
    @pytest.mark.parametrize("check", TOLERANCE_CHECKS)
    def test_a_tolerance_that_is_not_a_nonnegative_finite_number_is_rejected(self, check, tol):
        # a NaN read (1, 1, 0) as timelike, an infinite one made (1, 0, 0)
        # a delta4 pair with itself, and a string raised a bare TypeError
        with pytest.raises(LcframeError, match="^tolerance must be nonnegative and finite$"):
            TOLERANCE_CHECKS[check](tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-12])
    def test_zero_and_positive_tolerances_keep_their_verdicts(self, tol):
        assert causal_character(LVec3(1.0, 1.0, 0.0), tol) is CausalCharacter.LIGHTLIKE
        assert not is_delta4_pair(LVec3(1.0, 0.0, 0.0), LVec3(1.0, 0.0, 0.0), tol)
        assert in_model_space(LVec3(1.0, 1.0, 0.0), ModelSpace.LIGHT_CONE, tol)
