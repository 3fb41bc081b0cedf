import io
import itertools
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from images import image
from lcframe import catalog
from lcframe.classify import (
    ARRAY_MIN_POINTS, TRACEABLE_FIELDS, _chains, _fmt, _link_segments, _segments, classify,
    classify_grid, grid_blocks, line_of_curvature_test, null_vector, trace_zero_set,
)
from lcframe.cli import _write_trace_csv
from lcframe.curvature import curvature_packet
from lcframe.errors import LcframeError
from lcframe.expr import EvalDomainError, compile_field
from oracles import bisect_edge, first_difference
from lcframe.surface import BasicInvariants, DomainBox, SurfaceDef, basic_invariants_at
from lcframe.taxonomy import Category, Kind, PointClass

POLE = (math.pi / 2, 1.0)

#: A point-loop grid and an array grid (at least 4096 points).
GRIDS = ((9, 8), (65, 64))


class TestClassifyGrid:
    def test_each_point_evaluated_once(self, mixed_bowl, invariant_calls, field_evals,
                                       monkeypatch):
        # a point block fetches the invariant program once, not once per
        # point through basic_invariants_at, and calls it once per point
        program = mixed_bowl.program(BasicInvariants._fields)
        calls = [0]

        def counted(u, v):
            calls[0] += 1
            return program(u, v)

        monkeypatch.setitem(mixed_bowl._programs, (BasicInvariants._fields, "point"), counted)
        table = classify_grid(mixed_bowl, (17, 16))
        assert len(table.rows) == 17 * 16
        assert calls[0] == 17 * 16
        assert invariant_calls[0] == 0
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
    def test_array_csv_matches_the_point_loop(self, name, evaluated_as):
        # a grid one point below ARRAY_MIN_POINTS, one at it and one past
        # a block: each grid's CSV and rows are those of the other evaluator
        s = catalog.load(name)
        for grid in ((64, 63), (64, 64), GRIDS[1]):
            other = "arrays" if grid[0] * grid[1] < ARRAY_MIN_POINTS else "points"
            tables = [classify_grid(s, grid)]
            with evaluated_as(other):
                tables.append(classify_grid(s, grid))
            csvs = [io.StringIO(), io.StringIO()]
            for table, fh in zip(tables, csvs):
                table.write_csv(fh)
            assert first_difference(*(fh.getvalue() for fh in csvs)) is None, grid
            rows = [table.rows for table in tables]
            assert [i for i, pair in enumerate(zip(*rows)) if pair[0] != pair[1]] == [], grid

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
    def test_a_pole_off_the_grid_is_not_evaluated(self, grid):
        # a plane, so every point takes the 0/0 limit of kappa_til_1; a
        # pole 0.01 above row 3 lies on no grid point, and the limit is
        # read from the jets of the grid points themselves
        domain = DomainBox(-1.0, 1.0, 0.0, 2 * math.pi)
        pole = domain.grid(*grid)[0][3] + 0.01
        s = SurfaceDef("plane_with_a_pole",
                       [f"1 + 1e-30/(u - ({pole!r}))", "-u*sin(v)", "-u*cos(v)"],
                       ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"], domain)
        assert len(classify_grid(s, grid).rows) == grid[0] * grid[1]
        packets = [p for block in grid_blocks(s, *domain.grid(*grid)) for p in block.packets()]
        assert all(p.kappa_til_1 is None and not p.kappa1_from_limit for p in packets)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_a_jet_fault_fails_the_grid_as_the_point_loop_does(self, jet_pole_plane, grid):
        # the 23 invariants evaluate at every grid point; the jets of the
        # points of u = 0 raise, and the grid raises the point's own error
        us, vs = jet_pole_plane.domain.grid(*grid)
        assert 0.0 in us
        for u in us:
            basic_invariants_at(jet_pole_plane, u, vs[0])
        with pytest.raises(EvalDomainError) as point:
            curvature_packet(jet_pole_plane, 0.0, vs[0])
        with pytest.raises(EvalDomainError) as err:
            classify_grid(jet_pole_plane, grid)
        assert str(err.value) == str(point.value) == "division by zero"


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

    # a tolerance that is not a number raised a bare TypeError from its
    # first comparison, and True passed as 1.0
    @pytest.mark.parametrize("tol", ["1e-9", None, True])
    @pytest.mark.parametrize("call, message", [
        (lambda s, tol: classify(s, *POLE, tol), "classification"),
        (lambda s, tol: classify_grid(s, (8, 8), tol), "classification"),
        (lambda s, tol: classify_grid(s, (65, 64), tol), "classification"),
        (lambda s, tol: trace_zero_set(s, "lambda_til", (16, 16), classify_tol=tol),
         "classification"),
        (lambda s, tol: trace_zero_set(s, "lambda_til", (16, 16), refine_tol=tol),
         "refinement"),
    ], ids=["classify", "grid", "array_grid", "trace_classify_tol", "trace_refine_tol"])
    def test_a_tolerance_that_is_not_a_number_is_rejected(self, sphere, call, message, tol):
        with pytest.raises(LcframeError,
                           match=f"^{message} tolerance must be positive and finite$"):
            call(sphere, tol)

    @pytest.mark.parametrize("tol", [1, np.float64(1e-9), np.float32(1e-9)])
    def test_an_int_or_a_numpy_scalar_tolerance_reads_as_its_float(self, sphere, tol):
        for grid in ((8, 8), (65, 64)):
            assert classify_grid(sphere, grid, tol).rows == \
                classify_grid(sphere, grid, float(tol)).rows


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


def _edge(nv, i, j, d):
    """The int of the edge from grid point (i, j) along d, "u" or "v",
    on a grid of nv columns, as _segments names it."""
    return 2 * (i * nv + j) + "uv".index(d)


def _ref_segments(f, us, vs, values, refine_tol):
    nv = len(vs)
    crossings = {}

    def edge_point(key, pa, pb, fa, fb):
        if key not in crossings:
            crossings[key] = bisect_edge(f, pa, pb, fa, fb, refine_tol)
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
                (_edge(nv, i, j, "u"), pts[0], pts[1], corners[0], corners[1]),
                (_edge(nv, i + 1, j, "v"), pts[1], pts[2], corners[1], corners[2]),
                (_edge(nv, i, j + 1, "u"), pts[3], pts[2], corners[3], corners[2]),
                (_edge(nv, i, j, "v"), pts[0], pts[3], corners[0], corners[3]),
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


def _assert_paths_and_loops(segments):
    """No edge is in more than two segments, and _chains links them into
    polylines of distinct edges whose links are the segments, each once."""
    assert max(Counter(itertools.chain.from_iterable(segments)).values(), default=0) <= 2
    links = Counter()
    for edges, closed in _chains(segments):
        assert len(set(edges)) == len(edges) >= 2
        links.update(map(frozenset, zip(edges, edges[1:] + (edges[:1] if closed else []))))
    assert links == Counter(map(frozenset, segments))


# rows of random signs, zeros of both signs among them, or of one
# sign throughout, at widths about one 64-bit word
_SIGN_GRIDS = st.integers(62, 66).flatmap(lambda nv: st.lists(st.one_of(
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=nv, max_size=nv),
    st.sampled_from([-1.0, -0.0, 0.0, 1.0]).map(lambda x: [x] * nv)),
    min_size=2, max_size=5))


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
        point, grid_program, edges = (s.program((field,), schedule)
                                      for schedule in ("point", "grid", "edges"))
        us, vs = s.domain.grid(*grid)
        values = [[point(u, v)[0] for v in vs] for u in us]
        assert grid_program(us, vs) == values
        want = _ref_segments(point, us, vs, values, 1e-9)
        assert _segments(point, edges, us, vs, values, 1e-9) == want
        assert _trace_csv(trace_zero_set(s, field, grid)) == _trace_csv(
            _link_segments(s, field, *want, 1e-9))

    @settings(max_examples=150, deadline=None)
    @given(_SIGN_GRIDS)
    def test_random_sign_grids_match_the_all_cells_scan(self, values):
        us = [0.25 * i for i in range(len(values))]
        vs = [0.125 * j for j in range(len(values[0]))]
        fld = compile_field("sin(7.0*u - 3.0*v)")
        assert fld.program(0.75, 0.5) == (math.sin(7.0 * 0.75 - 3.0 * 0.5),)
        assert _segments(fld.program, fld.edges, us, vs, values, 1e-3) == _ref_segments(
            fld.program, us, vs, values, 1e-3)

    @pytest.mark.parametrize("pattern", range(16))
    def test_every_corner_pattern_gives_the_table_pairs(self, pattern):
        # a 2x2 grid for each choice of -1.0, 0.0 and -0.0 at the
        # non-positive corners, under a field of each sign at the centre
        positive = tuple(bool(pattern >> k & 1) for k in range(4))  # bl, br, tr, tl
        cell = tuple(_edge(2, *key) for key in ((0, 0, "u"), (1, 0, "v"), (0, 1, "u"), (0, 0, "v")))
        fields = {centre: compile_field(repr(centre)) for centre in (1.0, -1.0)}
        for fills in itertools.product((-1.0, 0.0, -0.0), repeat=positive.count(False)):
            fill = iter(fills)
            bl, br, tr, tl = (1.0 if p else next(fill) for p in positive)
            for centre, fld in fields.items():
                pairs = _REF_SEGMENT_TABLE[positive]
                if pairs is None:
                    pairs = ((0, 1), (2, 3)) if (centre > 0.0) == positive[0] else ((3, 0), (1, 2))
                segments, crossings = _segments(fld.program, fld.edges, [0.0, 1.0], [0.0, 1.0],
                                                [[bl, tl], [br, tr]], 1e-9)
                assert segments == [(cell[p], cell[q]) for p, q in pairs]
                assert sorted(crossings) == sorted(itertools.chain.from_iterable(segments))

    @pytest.mark.parametrize("grid", [(64, 64), (37, 61)])
    @pytest.mark.parametrize("field", TRACEABLE_FIELDS)
    @pytest.mark.parametrize("name", catalog.names())
    def test_segments_form_paths_and_loops(self, name, field, grid):
        s = catalog.load(name)
        point, grid_program, edges = (s.program((field,), schedule)
                                      for schedule in ("point", "grid", "edges"))
        us, vs = s.domain.grid(*grid)
        _assert_paths_and_loops(_segments(point, edges, us, vs, grid_program(us, vs), 1e-9)[0])

    @settings(max_examples=150, deadline=None)
    @given(_SIGN_GRIDS)
    def test_random_sign_grids_form_paths_and_loops(self, values):
        us = [0.25 * i for i in range(len(values))]
        vs = [0.125 * j for j in range(len(values[0]))]
        fld = compile_field("sin(7.0*u - 3.0*v)")
        _assert_paths_and_loops(_segments(fld.program, fld.edges, us, vs, values, 1e-3)[0])

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: refine_tol is absolute, and lam~ has degree 2 in X, so at "
        "1e-6*X |lam~| <= refine_tol holds at the first midpoint; vertices move by 0.0125"))
    def test_sphere_vertices_do_not_move_under_a_homothety(self):
        data = json.loads(catalog.surface_text("sphere"))
        polylines = [trace_zero_set(SurfaceDef.from_dict(d), "lambda_til", (64, 64))
                     for d in (data, image(data, c=1e-06).data)]
        assert [len(p.vertices) for p in polylines[0]] == [len(p.vertices) for p in polylines[1]]
        moved = max(abs(x - y) for a, b in zip(*polylines)
                    for p, q in zip(a.vertices, b.vertices) for x, y in zip(p, q))
        assert moved <= 1e-9

    @pytest.mark.parametrize("name", catalog.names())
    def test_vertices_are_classified_as_classify_does_without_the_invariants(self, name):
        # a vertex evaluates only the ten roots its class reads, so a
        # trace compiles no invariant program, and its flags are still
        # those of classify at each vertex
        s = SurfaceDef.from_dict(json.loads(catalog.surface_text(name)))
        traces = {field: trace_zero_set(s, field, (32, 32)) for field in TRACEABLE_FIELDS}
        assert (BasicInvariants._fields, "point") not in s._programs
        expected = {"lambda_til": Category.LIGHTLIKE, "c2": Category.SINGULAR_1}
        for field, polylines in traces.items():
            for p in polylines:
                flags = [pc.degenerate if pc.category is expected[field] else None
                         for pc in (classify(s, u, v) for u, v in p.vertices)]
                assert p.degenerate == flags, (field, p.vertices[0])

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: the sphere's c2 is -6.1e-17 on both pole rows u = +-pi/2 and "
        "never changes sign, so marching squares finds no crossing"))
    def test_the_sphere_singular_locus_is_traced_on_the_pole_rows(self, sphere):
        polylines = trace_zero_set(sphere, "c2", (64, 64))
        assert polylines
        assert all(abs(abs(u) - math.pi / 2) <= 1e-9 for p in polylines for u, _ in p.vertices)

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
        point = s.program((field,))
        with pytest.raises(EvalDomainError) as point_loop:
            [[point(u, v) for v in vs] for u in us]
        assert str(point_loop.value) == message
        with pytest.raises(EvalDomainError) as err:
            trace_zero_set(s, field, (8, 9))
        assert str(err.value) == message


def test_the_classify_module_is_reached_through_sys_modules():
    # the package's classify attribute is the function, which shadows the
    # submodule of the same name; the package docstring says so
    import lcframe

    module = sys.modules["lcframe.classify"]
    assert lcframe.classify is module.classify
    assert module.CLASSES[0] == PointClass(Category.SPACELIKE)
    assert 'sys.modules["lcframe.classify"]' in lcframe.__doc__
