"""Per-block evaluation of the array grids: each distinct bit pattern
of a block is evaluated and formatted once, with the results of
evaluating and formatting every element."""

import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe.arrays import BLOCK, _each, grid_blocks, texts
from lcframe.classify import _FMT


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def from_bits(n):
    return struct.unpack("<d", struct.pack("<Q", n))[0]


#: Few values, so that a drawn block repeats them: both zeros, subnormals,
#: infinities, NaNs with two payloads, huge and tiny values, and arguments
#: where sin, log and pow(x, -2) raise.
POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, math.inf, -math.inf,
        from_bits(0x7FF8000000000000), from_bits(0x7FF800000000BEEF),
        1e308, -1e308, 1e-300, -1e-300, 1.0, -1.0, 0.5, -3.0, 710.0, math.pi]

#: A block drawn from POOL, also read through a reversed or strided view.
blocks = st.builds(lambda xs, step: np.array(xs)[::step],
                   st.lists(st.sampled_from(POOL), min_size=1, max_size=64),
                   st.sampled_from([1, -1, 2]))


def per_element(fn, xs):
    """fn mapped over xs as the point loop maps it: (values, faults)."""
    values, faults = [], []
    for x in xs:
        try:
            values.append(fn(x))
            faults.append(False)
        except (ArithmeticError, ValueError):
            values.append(math.nan)
            faults.append(True)
    return values, faults


@settings(deadline=None)
@given(blocks, st.data())
def test_texts_format_every_element(x, data):
    assert texts(x) == [_FMT(v) for v in x.tolist()]
    defined = data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x)))
    assert texts(x, np.array(defined)) == [
        _FMT(v) if d else "" for v, d in zip(x.tolist(), defined)]


@pytest.mark.parametrize("fn", [math.sin, math.log, partial(pow, exp=-2)],
                         ids=["sin", "log", "pow-2"])
@settings(deadline=None)
@given(x=blocks, data=st.data())
def test_each_matches_the_per_element_map(fn, x, data):
    marked = np.array(data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x))))
    bad = marked.copy()
    out = _each(bad, fn, x)
    values, faults = per_element(fn, x.tolist())
    assert list(map(bits, out.tolist())) == list(map(bits, values))
    # a fault marks every element that holds the faulting argument; earlier
    # marks stay
    assert bad.tolist() == (marked | np.array(faults)).tolist()


def test_each_calls_fn_once_per_distinct_bit_pattern(sphere):
    # a 128x128 block holds 8 grid lines of u and 128 of v
    us, vs = sphere.domain.grid(128, 128)
    block = next(grid_blocks(sphere, us, vs))
    assert len(block.u) == BLOCK
    for x, distinct in ((block.u, 8), (block.v, 128), (block.inv.c2, None),
                        (block.columns["Ktil"], None)):
        calls = []

        def counted(xi):
            calls.append(xi)
            return math.sin(xi)

        out = _each(np.zeros(len(x), bool), counted, x)
        patterns = set(map(bits, x.tolist()))
        assert len(calls) == len(patterns)
        assert distinct is None or len(patterns) == distinct
        assert len(patterns) < len(x) / 4
        assert list(map(bits, out.tolist())) == [bits(math.sin(xi)) for xi in x.tolist()]


def test_integer_arrays_are_read_as_their_values():
    # keying by bit pattern must not read an integer's bits as a float's
    x = np.array([2, 0, 2])
    assert texts(x) == ["2", "0", "2"]
    bad = np.zeros(3, bool)
    assert _each(bad, math.log, x).tolist()[0] == math.log(2)
    assert bad.tolist() == [False, True, False]
