"""Common exception hierarchy for lcframe, and the checks of numeric
arguments that raise its base class, shared by every module that takes
a tolerance or a point."""

import math


class LcframeError(Exception):
    """Base class for all errors raised by this package."""


def _is_number(value):
    """Whether value is a real number, as a tolerance, a distance or a
    coordinate must be: not a bool or a complex, and of a type with
    __float__, so that ints, floats and numpy real scalars pass and a
    comparison raises no TypeError."""
    return not isinstance(value, (bool, complex)) and hasattr(type(value), "__float__")


def _require_tol(value, what):
    """Raise the LcframeError of a tolerance that is not a positive finite
    number."""
    if not (_is_number(value) and 0 < value < math.inf):
        raise LcframeError(f"{what} must be positive and finite")


def _require_nonnegative_tol(value, what):
    """Raise the LcframeError of a tolerance that is not a nonnegative
    finite number: _require_tol with 0 allowed."""
    if not (_is_number(value) and 0 <= value < math.inf):
        raise LcframeError(f"{what} must be nonnegative and finite")
