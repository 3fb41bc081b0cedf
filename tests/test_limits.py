import math

import pytest

from lcframe.classify import classify
from lcframe.errors import LcframeError
from lcframe.limits import (
    ApproachPath, FieldNonvanishingError, boundedness_report, limit_along,
    vanishing_order,
)

#: one target evaluation plus 10 rays (8 fan, 2 transversal) x 12 samples
MAX_REPORT_CALLS = 1 + 10 * 12


def test_report_evaluates_each_sample_once(mixed_bowl, invariant_calls, field_evals):
    boundedness_report(mixed_bowl, 1.0, 1.0)
    assert invariant_calls[0] <= MAX_REPORT_CALLS
    assert field_evals[0] == 0


@pytest.mark.parametrize("surface, target", [
    ("mixed_bowl", (1.0, 1.0)),
    ("sphere", (math.pi / 2, 1.0)),
])
def test_report_matches_limit_along(request, surface, target):
    s = request.getfixturevalue(surface)
    rep = boundedness_report(s, *target)
    completed = [oc for oc in rep.outcomes if oc.error is None and oc.verdicts]
    assert completed
    for oc in completed:
        path = ApproachPath(target=target, direction=oc.direction)
        sides = {classify(s, *p).category.value for p in path.points()}
        assert oc.side == (sides.pop() if len(sides) == 1 else None)
        for q, verdict in oc.verdicts.items():
            assert limit_along(s, path, q) == verdict


def test_negative_ray_count_is_an_error(sphere):
    with pytest.raises(LcframeError, match="ray count must be nonnegative, got -3"):
        boundedness_report(sphere, math.pi / 2, 1.0, directions=-3)


#: the sphere pole, approached along -d_u, where c2 = -cos u
POLE_PATH = ApproachPath(target=(math.pi / 2, 1.0), direction=(-1.0, 0.0))


@pytest.mark.parametrize("field", ["c2", "Ktil", "Htil"])
def test_vanishing_order_at_the_sphere_pole(sphere, field):
    # each vanishes like -sin r at distance r from the pole
    est = vanishing_order(sphere, POLE_PATH, field)
    assert est.field == field
    assert est.order == 1.0 and est.is_integer
    assert abs(est.leading_coefficient + 1.0) <= 1e-6


def test_vanishing_order_needs_a_vanishing_field(sphere):
    with pytest.raises(FieldNonvanishingError):
        vanishing_order(sphere, POLE_PATH, "lambda_til")


@pytest.mark.parametrize("args", [
    {"r0": math.nan}, {"r0": math.inf},
    {"direction": (math.nan, 1.0)}, {"direction": (1.0, math.inf)},
    {"direction": (-math.inf, math.inf)},
])
def test_a_non_finite_schedule_is_rejected(args):
    # each was accepted, and every sample was nan
    args = {"direction": (1.0, 0.0), **args}
    with pytest.raises(LcframeError, match="finite"):
        ApproachPath(target=(0.0, 0.0), **args)
