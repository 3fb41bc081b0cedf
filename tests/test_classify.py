import math

from lcframe.classify import (
    classify, classify_grid, line_of_curvature_test, null_vector,
)
from lcframe.curvature import curvature_packet
from lcframe.taxonomy import Kind

POLE = (math.pi / 2, 1.0)


class TestClassifyGrid:
    def test_each_point_evaluated_once(self, mixed_bowl, invariant_calls):
        table = classify_grid(mixed_bowl, (17, 16))
        assert len(table.rows) == 17 * 16
        assert invariant_calls[0] == 17 * 16

    def test_rows_match_pointwise_entry_points(self, mixed_bowl):
        for row in classify_grid(mixed_bowl, (9, 8)).rows:
            assert row.point_class == classify(mixed_bowl, row.u, row.v)
            assert row.packet == curvature_packet(mixed_bowl, row.u, row.v)
            assert row.c2 == mixed_bowl.scalar("c2", row.u, row.v)


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
