import functools
import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe import numerics
from lcframe.numerics import FIT_NAMES, LogAxis, fit_lines, loglog_slope
from lcframe.straightline import compile_function


def left_to_right(values):
    """The sum of values added left to right from 0.0, as sum() adds
    floats before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


def ref_loglog_slope(distances, magnitudes, total=left_to_right):
    """The fit as it was before the sums of log(distance) were shared:
    the reference both spellings must reproduce bit for bit."""
    pts = [(math.log(r), math.log(m))
           for r, m in zip(distances, magnitudes) if m > 0.0 and r > 0.0]
    if len(pts) < 2:
        return None, None, None
    n = len(pts)
    sx = total(p[0] for p in pts)
    sy = total(p[1] for p in pts)
    sxx = total(p[0] * p[0] for p in pts)
    sxy = total(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0.0:
        return None, None, None
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    rss = total((y - (slope * x + intercept)) ** 2 for x, y in pts)
    return slope, intercept, math.sqrt(rss / n)


@functools.cache
def _straight_line_fit(n, residual):
    """The statements of fit_lines for n magnitudes as a function
    (axis, magnitudes) -> (slope, rms residual), axis a LogAxis of n
    distances."""
    mags = [f"_m{i}" for i in range(n)]
    return compile_function("\n".join([
        "def fit(_axis, _ms):",
        "    _distances, _xs, sx, sxx = _axis.distances, _axis.xs, _axis.sx, _axis.sxx",
        "    " + "".join(f"_x{i}, " for i in range(n)) + "= _xs",
        "    " + "".join(f"{m}, " for m in mags) + "= _ms",
        *(f"    {line}" for line in fit_lines(mags, residual)),
        "    return slope, resid",
    ]), FIT_NAMES)


def straight_line_slope(distances, mags, residual=True):
    """(slope, rms residual) of mags by the straight-line fit of the
    schedule's LogAxis, None where a distance is not positive, which
    has no log."""
    if not all(r > 0.0 for r in distances):
        return None
    return _straight_line_fit(len(distances), residual)(LogAxis(distances), mags)


def _slope_and_residual(fit):
    return fit[0], fit[2]


_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
          1.7976931348623157e308]

magnitudes = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=0.0, max_value=1e-300),  # subnormals among them
    st.floats(min_value=1e290),
    st.floats(allow_nan=False),
)


def _distances(n):
    schedules = st.builds(
        lambda r0, ratio: [r0 * ratio ** k for k in range(n)],
        st.floats(min_value=1e-300, max_value=1e3),
        st.floats(min_value=0.01, max_value=0.99))
    anything = st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-2.0, 1e3)),
                        min_size=n, max_size=n)
    return st.one_of(schedules, anything)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    _distances(n),
    st.one_of(st.lists(magnitudes, min_size=n, max_size=n),
              st.lists(st.floats(min_value=5e-324, max_value=1e300),
                       min_size=n, max_size=n)))))
def test_fits_match_the_reference_bit_for_bit(case):
    distances, mags = case
    expected = repr(ref_loglog_slope(distances, mags))
    assert repr(loglog_slope(distances, mags)) == expected
    straight = straight_line_slope(distances, mags)
    if straight is not None:
        assert repr(straight) == repr(_slope_and_residual(ref_loglog_slope(distances, mags)))


def test_an_axis_serves_every_sequence_of_its_schedule():
    axis = LogAxis([0.1 * 0.5 ** k for k in range(12)])
    assert len(axis.xs) == 12
    fit = _straight_line_fit(12, True)
    for mags in ([2.0 ** -k for k in range(12)], [0.0] + [1.0] * 11, [3.0] * 12):
        assert repr(fit(axis, mags)) == \
            repr(_slope_and_residual(ref_loglog_slope(axis.distances, mags)))


def test_fits_add_left_to_right_on_every_python():
    # on the default limits schedule the log distances of r^-3 sum
    # differently left to right and with compensated rounding (sum()
    # from Python 3.12 on), and so does the fitted slope
    distances = [0.1 * 0.5 ** k for k in range(12)]
    mags = [r ** -3 for r in distances]
    xs = [math.log(r) for r in distances]
    assert left_to_right(xs) != math.fsum(xs)
    expected = ref_loglog_slope(distances, mags)
    assert expected[0] != ref_loglog_slope(distances, mags, math.fsum)[0]
    assert repr(loglog_slope(distances, mags)) == repr(expected)
    assert repr(straight_line_slope(distances, mags)) == repr(_slope_and_residual(expected))


def _hex(fit):
    return tuple(None if x is None else float.hex(x) for x in fit)


def _outcome(fit, *args):
    """The fit's bits, or the type of the error it raises."""
    try:
        return _hex(fit(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


_SIGNED_EDGES = _EDGES + [-1e300, math.inf, -math.inf, math.nan, -5e-324]


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 16).flatmap(lambda n: st.tuples(
    _distances(n),
    st.lists(st.one_of(st.sampled_from(_SIGNED_EDGES),
                       st.floats(min_value=0.0, max_value=1e-300),
                       st.floats(min_value=1e-3, max_value=1e3),
                       st.floats()),
             min_size=n, max_size=n))))
def test_an_axis_fits_as_loglog_slope_with_and_without_the_residual(case):
    distances, mags = case
    with_residual = _outcome(loglog_slope, distances, mags)
    without = _outcome(loglog_slope, distances, mags, False)
    if isinstance(with_residual, tuple):
        # the same slope and intercept; only the residual is left out
        assert without == with_residual[:2] + (None,)
    if all(r > 0.0 for r in distances):
        for residual, expected in ((True, with_residual), (False, without)):
            straight = _outcome(straight_line_slope, distances, mags, residual)
            if isinstance(expected, tuple):
                expected = _slope_and_residual(expected)
            assert straight == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 16).flatmap(lambda n: st.tuples(
    # every distance positive, down to 1e-250 * 0.01^15
    st.builds(lambda r0, ratio: [r0 * ratio ** k for k in range(n)],
              st.floats(min_value=1e-250, max_value=1e3),
              st.floats(min_value=0.01, max_value=0.99)),
    st.lists(st.one_of(st.sampled_from(_SIGNED_EDGES),
                       st.floats(min_value=0.0, max_value=1e-300),
                       st.floats()),
             min_size=n, max_size=n),
    st.booleans())))
def test_the_unrolled_fit_is_the_loop_fit(case):
    distances, mags, residual = case
    axis = LogAxis(distances)
    xs = [math.log(r) for r in distances]
    assert (axis.xs, axis.sx, axis.sxx) == \
        (tuple(xs), numerics._total(xs), numerics._total(x * x for x in xs))
    straight = _outcome(_straight_line_fit(len(distances), residual), axis, mags)
    if all(m > 0.0 for m in mags):
        expected = _outcome(numerics._fit, xs, list(map(math.log, mags)),
                            axis.sx, axis.sxx, residual)
    else:
        # a zero, negative or NaN magnitude is left to loglog_slope
        expected = _outcome(loglog_slope, distances, mags, residual)
    if isinstance(expected, tuple):
        expected = _slope_and_residual(expected)
    assert straight == expected

