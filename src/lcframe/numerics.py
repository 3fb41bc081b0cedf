"""Small numerical helpers shared by the curvature and limit modules.

loglog_slope and LogAxis.slope compute one least-squares fit, _fit: one
pass over the points sums y and x*y, each left to right from 0.0, and
the rms residual, a second pass, is computed only when the caller asks
for it.  LogAxis runs it as straight-line code generated for its count
of points (_unrolled_fit), each sum a run of `+=` statements in the
order of _fit's loop, so the bits are _fit's."""

from __future__ import annotations

import functools
import math

from .straightline import compile_function

__all__ = ["richardson", "loglog_slope", "LogAxis"]

#: LogAxis fits at most this many points by an unrolled fit, whose
#: source and compile time grow with its count; a longer schedule is
#: fitted by loglog_slope, which computes the same bits.
UNROLL_MAX = 64


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
    positive reuses them, in the unrolled fit of the schedule's count.
    `slope(magnitudes, residual)` returns exactly
    `loglog_slope(distances, magnitudes, residual)`: the same sums over
    the same sequences in the same order.
    """

    __slots__ = ("distances", "_xs", "_sx", "_sxx", "_fit")

    def __init__(self, distances):
        self.distances = tuple(distances)
        self._fit = None
        n = len(self.distances)
        if 2 <= n <= UNROLL_MAX and all(r > 0.0 for r in self.distances):
            self._xs = tuple(map(math.log, self.distances))
            self._sx = _total(self._xs)
            self._sxx = _total(x * x for x in self._xs)
            self._fit = _unrolled_fit(n)

    def slope(self, magnitudes, residual=True):
        """loglog_slope(self.distances, magnitudes, residual)."""
        fit = self._fit
        if fit is not None and len(magnitudes) == len(self._xs):
            result = fit(magnitudes, self._xs, self._sx, self._sxx, residual)
            if result is not None:
                return result
        return loglog_slope(self.distances, magnitudes, residual)


@functools.lru_cache(maxsize=8)
def _unrolled_fit(n):
    """_fit of n >= 2 points as straight-line code: a function
    (magnitudes, xs, sx, sxx, residual) -> _fit(xs, logs of magnitudes,
    sx, sxx, residual), or None where a magnitude is not positive.

    Each sum is a statement `s = 0.0` and one `s += term` per point, in
    the order of _fit's loop, so any count compiles without nesting, and
    the arithmetic is _fit's, operand for operand.  Generated once per
    count on first use; the fits of the last few counts are kept."""
    points = range(n)
    return compile_function("\n".join([
        "def unrolled_fit(_ms, _xs, sx, sxx, residual):",
        "    " + "".join(f"_m{i}, " for i in points) + "= _ms",
        "    if not (" + " and ".join(f"_m{i} > 0.0" for i in points) + "):",
        "        return None",
        "    " + "".join(f"_x{i}, " for i in points) + "= _xs",
        *(f"    _y{i} = log(_m{i})" for i in points),
        "    sy = 0.0",
        *(f"    sy += _y{i}" for i in points),
        "    sxy = 0.0",
        *(f"    sxy += _x{i} * _y{i}" for i in points),
        f"    denom = {n} * sxx - sx * sx",
        "    if denom == 0.0:",
        "        return None, None, None",
        f"    slope = ({n} * sxy - sx * sy) / denom",
        f"    intercept = (sy - slope * sx) / {n}",
        "    if not residual:",
        "        return slope, intercept, None",
        "    rss = 0.0",
        *(f"    rss += (_y{i} - (slope * _x{i} + intercept)) ** 2" for i in points),
        f"    return slope, intercept, sqrt(rss / {n})",
    ]), {"log": math.log})


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
