"""Small numerical helpers shared by the curvature and limit modules.

loglog_slope and LogAxis.slope share one least-squares fit, _fit: one
pass over the points sums y and x*y, each left to right from 0.0, and
the rms residual, a second pass, is computed only when the caller asks
for it."""

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


class LogAxis:
    """The log-distance axis of one sample schedule, shared by fits.

    Holds log(distance) of every sample and the sums of the logs and of
    their squares, so that fitting a sequence with every magnitude
    positive reuses them.  `slope(magnitudes, residual)` returns exactly
    `loglog_slope(distances, magnitudes, residual)`: the same sums over
    the same sequences in the same order.
    """

    __slots__ = ("distances", "_xs", "_sx", "_sxx")

    def __init__(self, distances):
        self.distances = tuple(distances)
        xs = [math.log(r) for r in self.distances] \
            if all(r > 0.0 for r in self.distances) else None
        self._xs = xs
        if xs is not None:
            self._sx = _total(xs)
            self._sxx = _total(x * x for x in xs)

    def slope(self, magnitudes, residual=True):
        """loglog_slope(self.distances, magnitudes, residual)."""
        xs = self._xs
        if xs is None or len(magnitudes) != len(xs) \
                or not all(m > 0.0 for m in magnitudes):
            return loglog_slope(self.distances, magnitudes, residual)
        return _fit(xs, list(map(math.log, magnitudes)), self._sx, self._sxx, residual)


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
