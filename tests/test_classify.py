import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe import catalog
from lcframe.classify import (
    ClassificationTable, _bisect_edge, _fmt, _link_segments, _point_rows, _segments,
    classify, classify_grid, line_of_curvature_test, null_vector, trace_zero_set,
)
from lcframe.cli import _write_trace_csv
from lcframe.curvature import curvature_packet
from lcframe.expr import EvalDomainError
from lcframe.surface import DomainBox, SurfaceDef, basic_invariants_at
from lcframe.taxonomy import Kind

POLE = (math.pi / 2, 1.0)

#: A point-loop grid and an array grid (at least 4096 points).
GRIDS = ((9, 8), (65, 64))


class TestClassifyGrid:
    def test_each_point_evaluated_once(self, mixed_bowl, invariant_calls, field_evals):
        table = classify_grid(mixed_bowl, (17, 16))
        assert len(table.rows) == 17 * 16
        assert invariant_calls[0] == 17 * 16
        # n~ comes from the invariant program, not from X_u and m fields
        assert field_evals[0] == 0

    def test_rows_match_pointwise_entry_points(self):
        for name in catalog.names():
            s = catalog.load(name)
            for grid in GRIDS:
                rows = classify_grid(s, grid).rows
                assert len(rows) == grid[0] * grid[1]
                for row in rows:
                    at = (name, grid, row.u, row.v)
                    assert row.point_class == classify(s, row.u, row.v), at
                    assert row.packet == curvature_packet(s, row.u, row.v), at
                    assert row.c2 == basic_invariants_at(s, row.u, row.v).c2, at

    def test_array_grid_makes_no_point_calls(self, mixed_bowl, invariant_calls):
        table = classify_grid(mixed_bowl, (65, 64))
        table.write_csv(io.StringIO())
        assert len(table.rows) == 65 * 64
        assert invariant_calls[0] == 0

    @pytest.mark.parametrize("name", catalog.names())
    def test_array_csv_matches_the_point_loop(self, name):
        s = catalog.load(name)
        arrays, points = io.StringIO(), io.StringIO()
        classify_grid(s, GRIDS[1]).write_csv(arrays)
        us, vs = s.domain.grid(*GRIDS[1])
        ClassificationTable(s.name, GRIDS[1], 1e-9,
                            rows=_point_rows(s, us, vs, 1e-9)).write_csv(points)
        assert arrays.getvalue() == points.getvalue()

    @pytest.mark.parametrize("grid", GRIDS)
    def test_a_fault_fails_the_grid_as_the_point_loop_does(self, grid):
        # X_u divides by sqrt(u), which is 0 on the first grid line
        s = SurfaceDef("sqrt_u", ["u", "-sqrt(u)*sin(v)", "-sqrt(u)*cos(v)"],
                       ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"],
                       DomainBox(0.0, 1.0, 0.0, 2 * math.pi))
        with pytest.raises(EvalDomainError) as err:
            classify_grid(s, grid)
        assert str(err.value) == "division by zero"

    @pytest.mark.parametrize("grid", GRIDS)
    def test_a_log_fault_on_a_grid_line_fails_the_grid_as_the_point_loop_does(self, grid):
        # X_u holds log(u), which every point of the first grid line
        # evaluates at u = 0 before any division by u
        s = SurfaceDef("u_log_u", ["u", "-u*log(u)*sin(v)", "-u*log(u)*cos(v)"],
                       ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"],
                       DomainBox(0.0, 1.0, 0.0, 2 * math.pi))
        with pytest.raises(EvalDomainError) as err:
            classify_grid(s, grid)
        assert str(err.value) == "log of a nonpositive argument"

    @pytest.mark.parametrize("grid", GRIDS)
    def test_a_limit_sample_fault_fails_the_grid(self, grid):
        # a plane, so every point resolves kappa_til_1 by sampling the
        # u-line; the first sample above row 3 is a pole
        domain = DomainBox(-1.0, 1.0, 0.0, 2 * math.pi)
        pole = domain.grid(*grid)[0][3] + 0.01
        s = SurfaceDef("plane_with_a_pole",
                       [f"1 + 1e-30/(u - ({pole!r}))", "-u*sin(v)", "-u*cos(v)"],
                       ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"], domain)
        with pytest.raises(EvalDomainError) as err:
            classify_grid(s, grid)
        assert str(err.value) == "division by zero"


class TestTolerances:
    @pytest.mark.parametrize("call", [
        lambda s: classify(s, *POLE, tol=math.nan),
        lambda s: classify_grid(s, (8, 8), math.nan),
        lambda s: classify_grid(s, (65, 64), math.nan),
        lambda s: trace_zero_set(s, "lambda_til", (16, 16), classify_tol=math.nan),
    ])
    def test_nan_classification_tolerance_is_rejected(self, sphere, call):
        with pytest.raises(Exception, match="classification tolerance must be positive"):
            call(sphere)

    def test_nan_refinement_tolerance_is_rejected(self, sphere):
        with pytest.raises(Exception, match="refinement tolerance must be positive"):
            trace_zero_set(sphere, "lambda_til", (16, 16), refine_tol=math.nan)

    # an infinite tolerance passed every predicate: classify_grid labelled
    # all 64 points of the 8x8 sphere grid singular2
    @pytest.mark.parametrize("call, message", [
        (lambda s: classify(s, *POLE, tol=math.inf), "classification"),
        (lambda s: classify_grid(s, (8, 8), math.inf), "classification"),
        (lambda s: classify_grid(s, (65, 64), math.inf), "classification"),
        (lambda s: trace_zero_set(s, "lambda_til", (16, 16), classify_tol=math.inf),
         "classification"),
        (lambda s: trace_zero_set(s, "lambda_til", (16, 16), refine_tol=math.inf),
         "refinement"),
    ], ids=["classify", "grid", "array_grid", "trace_classify_tol", "trace_refine_tol"])
    def test_infinite_tolerance_is_rejected(self, sphere, call, message):
        with pytest.raises(Exception, match=f"{message} tolerance must be positive and finite"):
            call(sphere)


@given(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308])))
def test_fmt_is_format_12g(x):
    assert _fmt(x) == format(x, ".12g")


class TestSpherePole:
    def test_null_vector_is_the_v_direction(self, sphere):
        nv = null_vector(sphere, *POLE)
        assert nv.eta == (0.0, 1.0)
        assert abs(nv.residual) <= 1e-12

    def test_pole_circle_is_a_line_of_curvature(self, sphere):
        rep = line_of_curvature_test(sphere, *POLE)
        assert rep.applicable
        assert rep.kind is Kind.SECOND
        assert rep.is_line_of_curvature is True
        assert rep.routes_agree is True


# The all-cells marching-squares scan that trace_zero_set ran before it
# visited only the cells whose corner signs differ, kept as a reference.
_REF_SEGMENT_TABLE = {
    (False, False, False, False): (),
    (True, True, True, True): (),
    (True, False, False, False): ((3, 0),),
    (False, True, False, False): ((0, 1),),
    (False, False, True, False): ((1, 2),),
    (False, False, False, True): ((2, 3),),
    (True, True, False, False): ((3, 1),),
    (False, True, True, False): ((0, 2),),
    (False, False, True, True): ((1, 3),),
    (True, False, False, True): ((0, 2),),
    (True, True, True, False): ((2, 3),),
    (True, True, False, True): ((1, 2),),
    (True, False, True, True): ((0, 1),),
    (False, True, True, True): ((3, 0),),
    (True, False, True, False): None,
    (False, True, False, True): None,
}


def _ref_segments(f, us, vs, values, refine_tol):
    crossings = {}

    def edge_point(key, pa, pb, fa, fb):
        if key not in crossings:
            crossings[key] = _bisect_edge(f, pa, pb, fa, fb, refine_tol)
        return key

    segments = []
    for i in range(len(us) - 1):
        for j in range(len(vs) - 1):
            corners = (values[i][j], values[i + 1][j],
                       values[i + 1][j + 1], values[i][j + 1])
            pattern = tuple(c > 0.0 for c in corners)
            pairs = _REF_SEGMENT_TABLE[pattern]
            if pairs == ():
                continue
            pts = ((us[i], vs[j]), (us[i + 1], vs[j]),
                   (us[i + 1], vs[j + 1]), (us[i], vs[j + 1]))
            edge_defs = (
                ((i, j, "u"), pts[0], pts[1], corners[0], corners[1]),
                ((i + 1, j, "v"), pts[1], pts[2], corners[1], corners[2]),
                ((i, j + 1, "u"), pts[3], pts[2], corners[3], corners[2]),
                ((i, j, "v"), pts[0], pts[3], corners[0], corners[3]),
            )
            if pairs is None:
                centre, = f((us[i] + us[i + 1]) / 2.0, (vs[j] + vs[j + 1]) / 2.0)
                if (centre > 0.0) == pattern[0]:
                    pairs = ((0, 1), (2, 3))
                else:
                    pairs = ((3, 0), (1, 2))
            for pair in pairs:
                segments.append(tuple(edge_point(*edge_defs[e]) for e in pair))
    return segments, crossings


def _trace_csv(polylines):
    out = io.StringIO()
    _write_trace_csv(polylines, out)
    return out.getvalue()


class TestTrace:
    @pytest.mark.parametrize("grid", [(64, 64), (37, 61)])
    @pytest.mark.parametrize("field", ["lambda_til", "c2"])
    @pytest.mark.parametrize("name", catalog.names())
    def test_matches_the_all_cells_scan(self, name, field, grid):
        s = catalog.load(name)
        fld = s.scalar_field(field)
        us, vs = s.domain.grid(*grid)
        values = [[fld.eval(u, v) for v in vs] for u in us]
        assert fld.grid(us, vs) == values
        want = _ref_segments(fld.program, us, vs, values, 1e-9)
        assert _segments(fld.program, us, vs, values, 1e-9) == want
        assert _trace_csv(trace_zero_set(s, field, grid)) == _trace_csv(
            _link_segments(s, field, *want, 1e-9))

    # rows of random signs, zeros of both signs among them, or of one
    # sign throughout, at widths about one 64-bit word
    @settings(max_examples=150, deadline=None)
    @given(st.integers(62, 66).flatmap(lambda nv: st.lists(st.one_of(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=nv, max_size=nv),
        st.sampled_from([-1.0, -0.0, 0.0, 1.0]).map(lambda x: [x] * nv)),
        min_size=2, max_size=5)))
    def test_random_sign_grids_match_the_all_cells_scan(self, values):
        us = [0.25 * i for i in range(len(values))]
        vs = [0.125 * j for j in range(len(values[0]))]

        def f(u, v):
            return (math.sin(7.0 * u - 3.0 * v),)

        assert _segments(f, us, vs, values, 1e-3) == _ref_segments(f, us, vs, values, 1e-3)

    def test_bisection_calls_the_point_program(self, mixed_bowl, field_evals):
        # not CompiledField.eval, whose frames cost more than the program
        assert trace_zero_set(mixed_bowl, "lambda_til", (16, 16))
        assert field_evals[0] == 0

    @pytest.mark.parametrize("field, message", [
        ("c2", "log of a nonpositive argument"), ("lambda_til", "division by zero")])
    def test_a_fault_raises_the_point_loop_error(self, field, message):
        # c2 = (log(u) + 1/v)*(...): the point loop fails at log(0) on the
        # first point, before it reaches v = 0 in the fifth column, where
        # a grid computing 1/v per column first would fail
        s = SurfaceDef("log_u_and_log_v", ["u", "v*log(u) + log(v)", "0"],
                       ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"],
                       DomainBox(0.0, 1.0, -1.0, 1.0))
        us, vs = s.domain.grid(8, 9)
        fld = s.scalar_field(field)
        with pytest.raises(EvalDomainError) as point_loop:
            [[fld.eval(u, v) for v in vs] for u in us]
        assert str(point_loop.value) == message
        with pytest.raises(EvalDomainError) as err:
            trace_zero_set(s, field, (8, 9))
        assert str(err.value) == message
