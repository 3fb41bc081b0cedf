"""Small numerical helpers shared by the curvature and limit modules.

Every log-log fit is one least-squares fit, _fit: one pass over the
points sums y and x*y, each left to right from 0.0, and the rms
residual, a second pass, is computed only when the caller asks for it.
loglog_slope runs it as a loop.  fit_lines writes it as straight-line
code for the count of points of one schedule, whose logs and their sums
a LogAxis holds: each sum a run of `+=` statements in the order of
_fit's loop, so the bits are _fit's.  The limits fit kernel
(limits._fit_kernel) is generated from it; a sequence holding a
magnitude that is not > 0 falls back to loglog_slope within it."""

from __future__ import annotations

import math

__all__ = ["richardson", "loglog_slope", "LogAxis"]

def richardson(values, ratio: float, levels: int = 2) -> float:
    """Extrapolate a sequence sampled at steps r0 * ratio^k to step 0.

    Assumes an error expansion in integer powers of the step and
    cancels up to `levels` leading terms.  `values` is ordered from the
    coarsest step to the finest; `ratio` is the step shrink factor
    (0 < ratio < 1).
    """
    if not values:
        raise ValueError("richardson needs at least one value")
    if not 0.0 < ratio < 1.0:
        raise ValueError("step ratio must lie in (0, 1)")
    level = list(values)
    for m in range(1, min(levels, len(values) - 1) + 1):
        factor = ratio ** m
        level = [
            (fine - factor * coarse) / (1.0 - factor)
            for coarse, fine in zip(level, level[1:])
        ]
    return level[-1]


def loglog_slope(distances, magnitudes, residual=True):
    """Least-squares slope of log|value| against log(distance).

    Returns (slope, intercept, rms_residual).  Zero magnitudes are
    excluded; if fewer than two points remain, returns (None, None, None).
    The residual is computed only when `residual` is true; otherwise it
    is None.
    """
    xs, ys = [], []
    for r, m in zip(distances, magnitudes):
        if m > 0.0 and r > 0.0:
            xs.append(math.log(r))
            ys.append(math.log(m))
    return _fit(xs, ys, _total(xs), _total(x * x for x in xs), residual)


#: The global names that the statements of fit_lines read, besides sqrt.
FIT_NAMES = {"log": math.log, "loglog_slope": loglog_slope}


class LogAxis:
    """The log-distance axis of one sample schedule, shared by its fits.

    Every distance must be positive.  `xs` holds log(distance) of every
    sample, and `sx` and `sxx` the sums of the logs and of their
    squares, added as _total adds them.
    """

    __slots__ = ("distances", "xs", "sx", "sxx")

    def __init__(self, distances):
        self.distances = tuple(distances)
        self.xs = tuple(map(math.log, self.distances))
        self.sx = _total(self.xs)
        self.sxx = _total(x * x for x in self.xs)


def fit_lines(mags, residual):
    """Statements that set `slope` and `resid` to the slope and the rms
    residual of loglog_slope(distances, magnitudes, residual), where
    mags names the n magnitudes, as straight-line code for a LogAxis of
    n distances.  They read its xs as _x0 .. _x{n-1}, its sx and sxx as
    sx and sxx, and its distances as _distances, and run with
    FIT_NAMES among their globals.

    Where every magnitude is > 0, each sum is a statement `s = 0.0` and
    one `s += term` per point, in the order of _fit's loop, so any count
    compiles without nesting, and the arithmetic is _fit's, operand for
    operand.  Otherwise (a zero or NaN magnitude) they call
    loglog_slope, which leaves such points out."""
    n, points = len(mags), range(len(mags))
    if residual:
        rms = [f"    intercept = (sy - slope * sx) / {n}",
               "    rss = 0.0",
               *(f"    rss += (_y{i} - (slope * _x{i} + intercept)) ** 2" for i in points),
               f"    resid = sqrt(rss / {n})"]
    else:
        rms = ["    resid = None"]
    fit = [*(f"_y{i} = log({m})" for i, m in enumerate(mags)),
           "sy = 0.0",
           *(f"sy += _y{i}" for i in points),
           "sxy = 0.0",
           *(f"sxy += _x{i} * _y{i}" for i in points),
           f"denom = {n} * sxx - sx * sx",
           "if denom == 0.0:",
           "    slope = resid = None",
           "else:",
           f"    slope = ({n} * sxy - sx * sy) / denom",
           *rms]
    return ["if " + " and ".join(f"{m} > 0.0" for m in mags) + ":",
            *(f"    {line}" for line in fit),
            "else:",
            f"    slope, _, resid = loglog_slope(_distances, [{', '.join(mags)}], {residual})"]


def _fit(xs, ys, sx, sxx, residual):
    """(slope, intercept, rms_residual) of the points (xs, ys), given
    sx = _total(xs) and sxx = _total of the squares of xs.

    One pass over the points sums y and x*y, each left to right from
    0.0, so the sums are those of _total.  A second pass computes the
    rms residual, and only when `residual` is true; otherwise it is
    None."""
    n = len(xs)
    if n < 2:
        return None, None, None
    sy = sxy = 0.0
    for x, y in zip(xs, ys):
        sy += y
        sxy += x * y
    denom = n * sxx - sx * sx
    if denom == 0.0:
        return None, None, None
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    if not residual:
        return slope, intercept, None
    rss = _total((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(rss / n)


def _total(values):
    """The sum of values, added left to right from 0.0.

    This is what sum() does for floats up to Python 3.11; from 3.12 on
    sum() compensates its rounding, so fits summed with it would print
    different digits on different Python versions."""
    total = 0.0
    for x in values:
        total += x
    return total
