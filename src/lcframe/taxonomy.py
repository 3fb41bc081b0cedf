"""Point taxonomy shared by the classifier and the curvature checks."""

from __future__ import annotations

from enum import Enum

from ._record import Record

__all__ = ["Category", "Kind", "LightlikeBranch", "PointClass"]


class Category(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SINGULAR_1 = "singular1"
    SINGULAR_2 = "singular2"


class Kind(Enum):
    """Refinement of lightlike and rank-one singular points.

    FIRST / SECOND follow the transversality dichotomy; INDETERMINATE is
    returned when the deciding value sits inside the tolerance band (in
    particular at degenerate points, where the dichotomy is undefined).
    """

    FIRST = "first"
    SECOND = "second"
    INDETERMINATE = "indeterminate"


class LightlikeBranch(Enum):
    """Which factor of the discriminant vanishes at a lightlike point."""

    L1 = "L1"  # a1 = 0, b1 != 0
    L2 = "L2"  # b1 = 0, a1 != 0


class PointClass(Record):
    """Classification of one parameter point.

    degenerate and kind are populated for lightlike and first-class
    singular points; they stay None for regular points and for
    higher-rank singular points, whose finer geometry is out of scope
    (they are detected and labelled only).
    """

    __slots__ = ("category", "lightlike_branch", "degenerate", "kind")
    _defaults = (None, None, None)

    @property
    def is_regular(self) -> bool:
        return self.category in (Category.SPACELIKE, Category.TIMELIKE)
