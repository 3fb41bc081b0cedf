"""Per-block evaluation of the array grids: each distinct bit pattern
of a block is evaluated and formatted once, with the results of
evaluating and formatting every element, and grids that span several
blocks and chunks write the point loop's CSVs."""

import io
import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe import catalog
from lcframe.arrays import BLOCK, CHUNK, _each, grid_blocks, texts
from lcframe.classify import _FMT, ClassificationTable, _point_rows, classify_grid
from lcframe.cli import CURVATURE_HEADER, _write_curvature_csv, _write_curvature_points
from lcframe.surface import SurfaceDef


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
    # a 128x128 block holds 32 grid lines of u and 128 of v
    us, vs = sphere.domain.grid(128, 128)
    block = next(grid_blocks(sphere, us, vs))
    assert len(block.u) == BLOCK == 4096
    for x, distinct in ((block.u, 32), (block.v, 128), (block.columns["c2"], None),
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


#: Three full blocks and a partial one; block and chunk boundaries fall
#: inside grid lines.
SPANNING_GRID = (97, 131)


def test_the_spanning_grid_cuts_blocks_and_chunks_mid_line():
    nu, nv = SPANNING_GRID
    assert 3 * BLOCK < nu * nv < 4 * BLOCK
    assert BLOCK % CHUNK == 0 and CHUNK % nv != 0


def first_difference(got, want):
    """(index, got line, wanted line) of the first line where two texts
    differ, None if they are equal; cheaper to report than a diff of
    two large CSVs."""
    if got == want:
        return None
    got, want = got.split("\n"), want.split("\n")
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return i, got[i:i + 1], want[i:i + 1]


@pytest.mark.parametrize("name", ["flat_plane", "twisted_band", "sphere"])
def test_csvs_across_blocks_and_chunks_match_the_point_loop(name):
    # every flat_plane point takes the 0/0 limit path
    s = catalog.load(name)
    us, vs = s.domain.grid(*SPANNING_GRID)
    arrays, points = io.StringIO(), io.StringIO()
    classify_grid(s, SPANNING_GRID).write_csv(arrays)
    ClassificationTable(s.name, SPANNING_GRID, 1e-9,
                        rows=_point_rows(s, us, vs, 1e-9)).write_csv(points)
    assert first_difference(arrays.getvalue(), points.getvalue()) is None
    arrays, points = io.StringIO(), io.StringIO()
    _write_curvature_csv(s, SPANNING_GRID, arrays)
    points.write(",".join(CURVATURE_HEADER) + "\n")
    _write_curvature_points(s, us, vs, points)
    assert first_difference(arrays.getvalue(), points.getvalue()) is None


def test_no_array_program_call_exceeds_a_block(flat_plane, monkeypatch):
    sizes = []
    original = SurfaceDef.invariant_arrays

    def counted(self, u, v):
        sizes.append(len(u))
        return original(self, u, v)

    monkeypatch.setattr(SurfaceDef, "invariant_arrays", counted)
    nu, nv = SPANNING_GRID
    blocks = [BLOCK] * 3 + [nu * nv - 3 * BLOCK]
    # per block: the block's points, then each of the six limit samples
    # of all of them
    classify_grid(flat_plane, SPANNING_GRID)
    assert sizes == [n for n in blocks for _ in range(7)]
    sizes.clear()
    _write_curvature_csv(flat_plane, SPANNING_GRID, io.StringIO())
    assert sizes == [n for n in blocks for _ in range(7)]
