"""The compiled float code of the shared decisions: it equals running
the decisions as written (oracles.FLOAT_OPS) bit for bit, exceptions
included; it is traced on first use, never at import; and a decision
that branches on a value cannot be traced."""

import cProfile
import math
import os
import pstats
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcframe
from lcframe.classify import _class_code
from lcframe.curvature import ZERO_TOL, _gauss_mean, _packet_fields
from lcframe.expr import compile_grid_program, parse
from lcframe.limits import QUANTITIES, _fit_kernel, _fits, _Sample, _sample_roots
from lcframe.numerics import LogAxis
from lcframe.straightline import TraceError, float_code, roots_read
from lcframe.surface import BasicInvariants
from oracles import FLOAT_OPS

TOL = 1e-9
assert TOL == ZERO_TOL


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def same(a, b):
    """Whether two results are equal in type, structure and bits; any
    two NaNs are equal.  The sign of a NaN is not the code's to keep:
    CPython 3.11 gives a + b for a = -0.0 * inf and b = nan a positive
    NaN on the first calls of a function and a negative one once the
    interpreter has specialised the addition to floats."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return bits(a) == bits(b) or (math.isnan(a) and math.isnan(b))
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcome(fn, *args):
    """('value', result) of fn(*args), or ('raises', type, message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared, whatever it is
        return ("raises", type(exc), str(exc))


def same_outcome(a, b):
    return a[0] == b[0] and (same(a[1], b[1]) if a[0] == "value" else a == b)


#: Both zeros, the tolerance and its neighbours tol * (1 +- 2^-52), NaN,
#: the infinities, and magnitudes near 1e+-300, where |lam~|^2 and
#: |lam~|^1.5 overflow; each with both signs.
SPECIAL = [s * x for x in (
    0.0, TOL, TOL * (1 + 2 ** -52), TOL * (1 - 2 ** -52), math.nan, math.inf,
    1e300, 1e-300, 1e150, 1e-150, 1.0, 0.5) for s in (1.0, -1.0)]

roots = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats())
drawn_invariants = st.builds(BasicInvariants, *[roots] * len(BasicInvariants._fields))

#: The root layouts the library compiles the decisions for: all the
#: invariants, a limits sample's and a trace vertex's.
LAYOUTS = [BasicInvariants._fields, _sample_roots(), roots_read(_class_code)]


def laid_out(inv, fields):
    return tuple(getattr(inv, name) for name in fields)


def stub_limit(inv):
    """A stand-in for the u-line limit of kappa_til_1: c1 where it is
    asked, defined where c1 > 0, and a fault where c1 < 0."""
    def limit(where):
        if where and inv.c1 < 0.0:
            raise OverflowError("a limit sample overflows")
        return (inv.c1 if where else math.nan, where and inv.c1 > 0.0)
    return limit


@settings(deadline=None, max_examples=400)
@given(drawn_invariants, st.sampled_from([TOL, 1e-6, 0.0]))
def test_compiled_decisions_equal_the_interpreted_ones(inv, tol):
    for fields in LAYOUTS:
        values = laid_out(inv, fields)
        assert same_outcome(outcome(float_code(_class_code, fields), values, tol),
                            outcome(_class_code, inv, tol, FLOAT_OPS)), fields
    for fields in LAYOUTS[:2]:
        values = laid_out(inv, fields)
        assert same_outcome(outcome(float_code(_gauss_mean, fields), values),
                            outcome(_gauss_mean, inv, FLOAT_OPS)), fields
    packet = float_code(_packet_fields, BasicInvariants._fields)
    assert same_outcome(outcome(packet, inv, stub_limit(inv)),
                        outcome(_packet_fields, inv, FLOAT_OPS, stub_limit(inv)))


@pytest.mark.parametrize("inv, error", [
    # |lam~|^2 overflows in K's denominator
    (BasicInvariants(*[0.0] * 23)._replace(a1=1e80, b1=-1e80, c2=1e300), OverflowError),
    # K~ and H~ vanish, and the stub's limit sample faults
    (BasicInvariants(*[0.0] * 23)._replace(c1=-1.0), OverflowError),
])
def test_a_fault_raises_the_interpreted_error(inv, error):
    packet = float_code(_packet_fields, BasicInvariants._fields)
    compiled = outcome(packet, inv, stub_limit(inv))
    assert compiled[:2] == ("raises", error)
    assert same_outcome(compiled, outcome(_packet_fields, inv, FLOAT_OPS, stub_limit(inv)))


def test_root_sets_are_what_the_decisions_read():
    assert roots_read(_class_code) == (
        "a1", "b1", "c1", "c2", "a1u", "a1v", "b1u", "b1v", "c2u", "c2v")
    assert _sample_roots() == (
        "a1", "b1", "c1", "c2", "e1", "f1", "g1", "f2", "g2",
        "a1u", "a1v", "b1u", "b1v", "c2u", "c2v")
    with pytest.raises(TraceError, match="not among"):
        float_code(_gauss_mean, roots_read(_class_code))


def branches_with_if(inv, ops):
    return inv.a1 if inv.a1 > 0.0 else inv.b1


def branches_with_and(inv, ops):
    return (inv.a1 > 0.0) and inv.b1


def branches_in_max(inv, ops):
    return max(inv.a1, inv.b1)


@pytest.mark.parametrize("fn", [branches_with_if, branches_with_and, branches_in_max])
def test_a_branch_on_a_traced_value_raises(fn):
    with pytest.raises(TraceError, match="would branch on the value"):
        float_code(fn, BasicInvariants._fields)


def test_importing_lcframe_traces_nothing():
    code = (
        "import sys\n"
        "import lcframe, lcframe.cli, lcframe.limits\n"
        "straightline = sys.modules['lcframe.straightline']\n"
        "caches = (straightline._trace, straightline.float_code,\n"
        "          lcframe.limits._sample_roots, lcframe.limits._ray_kernel,\n"
        "          lcframe.limits._fit_kernel)\n"
        "assert [c.cache_info().currsize for c in caches] == [0] * 5\n")
    env = dict(os.environ, PYTHONPATH=str(Path(lcframe.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_profile_lists_each_generated_code_apart():
    # pstats keys its rows by (file, line, function), and every code is
    # generated at line 1: two shapes' grid programs, and the fit kernels
    # of two keys, are each a row of its own
    grids = [compile_grid_program([parse(text)]) for text in ("u*v + 1.0", "sin(u) - v")]
    axes = [LogAxis([0.5 ** k for k in range(n)]) for n in (5, 6)]
    kernels = [_fit_kernel(len(axis.distances), QUANTITIES) for axis in axes]
    assert kernels[0].__code__.co_filename != kernels[1].__code__.co_filename
    profile = cProfile.Profile()
    profile.enable()
    for grid in grids:
        grid([0.0, 1.0], [0.5, 2.0])
    for axis in axes:
        _fits(axis, QUANTITIES, [_Sample(0.0, 0.0, r, r, r, r * r, 1.0, 1.0)
                                 for r in axis.distances])
    profile.disable()
    rows = {name: sorted(calls for (_, _, fn), (_, calls, *_) in
                         pstats.Stats(profile).stats.items() if fn == name)
            for name in ("_grid", "fit_kernel")}
    assert rows == {"_grid": [1, 1], "fit_kernel": [1, 1]}
