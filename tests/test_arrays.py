"""Per-block evaluation of the array grids: each distinct bit pattern
of a block is evaluated and formatted once, with the results of
evaluating and formatting every element; grids that span several
blocks and chunks write the CSVs of point blocks; and the class and
packet decisions, written once, decide alike on floats and on arrays."""

import io
import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe import catalog
from lcframe.arrays import BLOCK, Block, _ArrayOps, _each, texts
from lcframe.classify import (
    _FMT, ARRAY_MIN_POINTS, CHUNK, CLASSES, _class_code, _PointBlock, classify_grid, grid_blocks,
)
from lcframe.cli import _write_curvature_csv
from lcframe.curvature import ZERO_TOL, _fundamentals, _packet_fields
from lcframe.surface import BasicInvariants, SurfaceDef
from oracles import FLOAT_OPS, first_difference


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


def grid_csvs(s, grid):
    """The classify and the curvature CSV of s on grid."""
    classify_csv, curvature_csv = io.StringIO(), io.StringIO()
    classify_grid(s, grid).write_csv(classify_csv)
    _write_curvature_csv(s, grid, curvature_csv)
    return classify_csv.getvalue(), curvature_csv.getvalue()


@pytest.mark.parametrize("name", ["flat_plane", "twisted_band", "sphere"])
def test_csvs_across_blocks_and_chunks_match_the_point_loop(name, evaluated_as):
    # every flat_plane point takes the 0/0 limit path; the same grid as
    # point blocks, through the same writer
    s = catalog.load(name)
    arrays = grid_csvs(s, SPANNING_GRID)
    with evaluated_as("points"):
        points = grid_csvs(s, SPANNING_GRID)
    for got, want in zip(arrays, points):
        assert first_difference(got, want) is None


def test_grid_blocks_picks_the_evaluator_by_the_grid_size(sphere, evaluated_as):
    def kinds(grid):
        return [type(block) for block in grid_blocks(sphere, *sphere.domain.grid(*grid))]

    assert 64 * 63 < ARRAY_MIN_POINTS == 64 * 64 == BLOCK == 4 * CHUNK
    assert kinds((64, 63)) == [_PointBlock] * 4
    assert kinds((64, 64)) == [Block]
    assert kinds((65, 64)) == [Block, Block]
    with evaluated_as("points"):
        assert kinds((65, 64)) == [_PointBlock] * 5
    with evaluated_as("arrays"):
        assert kinds((3, 2)) == [Block]


def test_no_array_program_call_exceeds_a_block(flat_plane, monkeypatch):
    sizes = []
    original = SurfaceDef.program

    def program(self, roots, schedule="point"):
        compiled = original(self, roots, schedule)
        if schedule != "arrays":
            return compiled

        def counted(u, v):
            sizes.append(len(u))
            return compiled(u, v)
        return counted

    monkeypatch.setattr(SurfaceDef, "program", program)
    nu, nv = SPANNING_GRID
    blocks = [BLOCK] * 3 + [nu * nv - 3 * BLOCK]
    # per block: the invariants of its points, then the u-jets of the
    # points that take the 0/0 limit of kappa_til_1, every point here
    classify_grid(flat_plane, SPANNING_GRID)
    assert sizes == [n for n in blocks for _ in range(2)]
    sizes.clear()
    _write_curvature_csv(flat_plane, SPANNING_GRID, io.StringIO())
    assert sizes == [n for n in blocks for _ in range(2)]


# ---------------------------------------------------------------------------
# The class and packet decisions on floats and on arrays

TOL = 1e-9


def invariants(**values):
    """BasicInvariants that are zero but for `values`."""
    return BasicInvariants(*[0.0] * len(BasicInvariants._fields))._replace(**values)


#: One point of each class of CLASSES, in its order, then a timelike
#: point whose negative radicand is clipped to zero and one whose
#: principal curvatures are complex (M~ = 2 g1 with H~ = 0), and a
#: spacelike point where |lam~|^2 overflows, so that K faults.
LANDMARKS = (
    invariants(a1=1.0, b1=-1.0, c2=1.0, a1u=1.0, g2=0.5),  # K~ = 2, H~ = 3
    invariants(a1=1.0, b1=1.0, c2=1.0),
    invariants(c2=1.0),
    invariants(a1=1.0, b1=-1.0),
    invariants(a1=1.0, b1=-1.0, c2v=1.0),
    invariants(a1=1.0, b1=-1.0, c2u=1.0),
    invariants(b1=1.0, c2=1.0),
    invariants(b1=1.0, c2=1.0, a1u=1.0),
    invariants(b1=1.0, c2=1.0, a1v=1.0),
    invariants(a1=1.0, c2=1.0),
    invariants(a1=1.0, c2=1.0, b1u=1.0),
    invariants(a1=1.0, c2=1.0, b1v=1.0),
    invariants(a1=1.0, b1=1.0, c2=1.0, g1=5e-7),
    invariants(a1=1.0, b1=1.0, c2=1.0, g1=0.5),
    invariants(a1=1e80, b1=-1e80, c2=1e300),
)


def stub_limit(inv, ops):
    """A stand-in for the u-line limit of kappa_til_1, spelled alike for
    floats and arrays: c1 where it is asked, defined where c1 > 0."""
    return lambda where: (ops.where(where, inv.c1, math.nan), where & (inv.c1 > 0.0))


def radicand(inv):
    f = _fundamentals(inv)
    return f[8] * f[8] - inv.c2 * f[6] * f[7]


def assert_forms_agree(points):
    """The class code, and every packet value where it is defined, each
    defined-mask and each flag, agree bit for bit between the float form
    of each point and the array form of all of them; the float form
    raises exactly where the array form marks a fault."""
    n = len(points)
    arrays = BasicInvariants(*(np.array(column, float) for column in zip(*points)))
    bad = np.zeros(n, bool)
    ops = _ArrayOps(bad)
    with np.errstate(all="ignore"):
        codes = _class_code(arrays, TOL, ops).tolist()
        values, defined, flags = _packet_fields(arrays, ops, stub_limit(arrays, ops))
    for i, inv in enumerate(points):
        assert _class_code(inv, TOL, FLOAT_OPS) == codes[i], inv
        try:
            f_values, f_defined, f_flags = _packet_fields(
                inv, FLOAT_OPS, stub_limit(inv, FLOAT_OPS))
        except (ArithmeticError, ValueError):
            assert bad[i], inv
            continue
        assert not bad[i], inv
        assert f_defined == {name: bool(where[i]) for name, where in defined.items()}, inv
        assert f_flags == {name: bool(where[i]) for name, where in flags.items()}, inv
        for name, x in f_values.items():
            if f_defined.get(name, True):
                y = float(np.broadcast_to(values[name], n)[i])
                assert float.hex(x) == float.hex(y), (name, inv)


def test_landmarks_reach_every_class_radicand_branch_and_fault():
    assert [_class_code(inv, TOL, FLOAT_OPS) for inv in LANDMARKS[:12]] == \
        list(range(len(CLASSES))) == list(range(12))
    clipped, complex_, overflows = LANDMARKS[12:]
    for inv, is_complex in ((clipped, False), (complex_, True)):
        flags = _packet_fields(inv, FLOAT_OPS, stub_limit(inv, FLOAT_OPS))[2]
        assert radicand(inv) < 0.0 and flags["principal_complex"] is is_complex
    with pytest.raises(OverflowError):
        _packet_fields(overflows, FLOAT_OPS, stub_limit(overflows, FLOAT_OPS))
    assert_forms_agree(LANDMARKS)


#: Where the decisions turn, with both neighbours of each: the class
#: tolerance and the smallest zero band (ZERO_TOL), twice them, their
#: square roots (so that products land near them), ordinary values, and
#: magnitudes whose squares and powers 1.5 overflow; both zeros.
EDGES = [0.0, -0.0] + [
    sign * y
    for x in (TOL, ZERO_TOL, 2 * TOL, math.sqrt(TOL), 0.25, 1.0, 1e80, 1e160, 1e300)
    for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
    for sign in (1.0, -1.0)]

coefficients = st.one_of(st.sampled_from(EDGES), st.floats(-2.0, 2.0),
                   st.floats(allow_nan=False, allow_infinity=False))

#: Invariants drawn whole, or a landmark with a few of them redrawn.
drawn_invariants = st.one_of(
    st.builds(BasicInvariants, *[coefficients] * len(BasicInvariants._fields)),
    st.builds(lambda base, changes: base._replace(**changes), st.sampled_from(LANDMARKS),
              st.dictionaries(st.sampled_from(BasicInvariants._fields), coefficients,
                              max_size=4)),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(drawn_invariants, min_size=1, max_size=16))
def test_float_and_array_forms_agree(points):
    assert_forms_agree(points)
