"""Vector algebra of Lorentz-Minkowski 3-space.

All operations use the signature (-,+,+) pairing on R^3: the first
coordinate is the timelike one.  The wedge product is the Lorentzian
cross product, normalised so that pairing a third vector against it
gives the plain 3x3 determinant.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import Record, _set
from .errors import LcframeError

__all__ = [
    "LVec3",
    "CausalCharacter",
    "ModelSpace",
    "pseudo_dot",
    "wedge",
    "norm",
    "causal_character",
    "is_delta4_pair",
    "in_model_space",
]


class LVec3(Record):
    """A vector of Lorentz-Minkowski 3-space in the canonical basis.

    Components must be finite; NaN or infinity is rejected on
    construction so downstream algebra never sees them.
    """

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1: float, x2: float, x3: float):
        for c in (x1, x2, x3):
            if not math.isfinite(c):
                raise LcframeError(f"non-finite vector component: {c!r}")
        _set(self, "x1", x1)
        _set(self, "x2", x2)
        _set(self, "x3", x3)

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def __add__(self, other: "LVec3") -> "LVec3":
        return LVec3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "LVec3") -> "LVec3":
        return LVec3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "LVec3":
        return LVec3(-self.x1, -self.x2, -self.x3)

    def scaled(self, c: float) -> "LVec3":
        return LVec3(c * self.x1, c * self.x2, c * self.x3)

    def max_abs(self) -> float:
        return max(abs(self.x1), abs(self.x2), abs(self.x3))


class CausalCharacter(Enum):
    """Causal type of a vector, with the conventional sign attached."""

    SPACELIKE = 1
    LIGHTLIKE = 0
    TIMELIKE = -1

    @property
    def sign(self) -> int:
        return self.value


class ModelSpace(Enum):
    """Quadric model spaces (and planes) cut out by the pairing."""

    HYPERBOLIC = "H2"       # self-pairing -1
    DE_SITTER = "S2_1"      # self-pairing +1
    LIGHT_CONE = "LC*"      # self-pairing 0, nonzero vector
    PLANE = "P"             # pairing against a fixed pseudo-normal


def pseudo_dot(a: LVec3, b: LVec3) -> float:
    """Signature (-,+,+) pairing of two vectors."""
    return -a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3


def wedge(a: LVec3, b: LVec3) -> LVec3:
    """Lorentzian cross product of a and b.

    Expansion of the formal determinant with first row (-e1, e2, e3),
    so pseudo_dot(z, wedge(a, b)) equals det(z, a, b) and the result is
    pseudo-orthogonal to both arguments.
    """
    return LVec3(
        -(a.x2 * b.x3 - a.x3 * b.x2),
        a.x3 * b.x1 - a.x1 * b.x3,
        a.x1 * b.x2 - a.x2 * b.x1,
    )


def norm(a: LVec3) -> float:
    """Pseudo-norm sqrt(|<a,a>|); zero exactly on the light cone."""
    return math.sqrt(abs(pseudo_dot(a, a)))


def _lightlike_tol(a: LVec3, b: LVec3, tol: float) -> float:
    # Scale-relative threshold: the causal character of c*x must agree
    # with that of x for any c != 0, so the cutoff grows with the square
    # of the largest component.
    m = max(a.max_abs(), b.max_abs())
    return tol * (1.0 + m * m)


def causal_character(a: LVec3, tol: float = 1e-12) -> CausalCharacter:
    """Classify a as spacelike, lightlike or timelike.

    A vector counts as lightlike when |<a,a>| <= tol * (1 + m^2) where m
    is its largest absolute component; otherwise the sign of the
    self-pairing decides.
    """
    if tol < 0:
        raise LcframeError("tolerance must be nonnegative")
    q = pseudo_dot(a, a)
    if abs(q) <= _lightlike_tol(a, a, tol):
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE


def is_delta4_pair(v: LVec3, w: LVec3, tol: float = 1e-12) -> bool:
    """True when v and w are both lightlike and pair to -2.

    Such pairs are exactly the admissible frame pairs for lightcone
    framed surfaces.
    """
    if tol < 0:
        raise LcframeError("tolerance must be nonnegative")
    if causal_character(v, tol) is not CausalCharacter.LIGHTLIKE:
        return False
    if causal_character(w, tol) is not CausalCharacter.LIGHTLIKE:
        return False
    return abs(pseudo_dot(v, w) + 2.0) <= _lightlike_tol(v, w, tol)


def in_model_space(
    x: LVec3,
    space: ModelSpace,
    tol: float = 1e-12,
    *,
    normal: LVec3 | None = None,
    offset: float = 0.0,
) -> bool:
    """Membership test for the standard model spaces.

    HYPERBOLIC: <x,x> = -1.  DE_SITTER: <x,x> = +1.  LIGHT_CONE:
    <x,x> = 0 with x != 0.  PLANE: <x, normal> = offset (pass the
    pseudo-normal via `normal`).  All comparisons use the same
    scale-relative tolerance as causal_character.
    """
    if tol < 0:
        raise LcframeError("tolerance must be nonnegative")
    band = _lightlike_tol(x, x, tol)
    q = pseudo_dot(x, x)
    if space is ModelSpace.HYPERBOLIC:
        return abs(q + 1.0) <= band
    if space is ModelSpace.DE_SITTER:
        return abs(q - 1.0) <= band
    if space is ModelSpace.LIGHT_CONE:
        return abs(q) <= band and x.max_abs() > tol
    if space is ModelSpace.PLANE:
        if normal is None:
            raise LcframeError("PLANE membership requires a pseudo-normal")
        return abs(pseudo_dot(x, normal) - offset) <= _lightlike_tol(x, normal, tol)
    raise LcframeError(f"unknown model space: {space!r}")
