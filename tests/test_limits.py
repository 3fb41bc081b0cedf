import math

import pytest

from lcframe.classify import classify
from lcframe.limits import ApproachPath, boundedness_report, limit_along

#: one target evaluation plus 10 rays (8 fan, 2 transversal) x 12 samples
MAX_REPORT_CALLS = 1 + 10 * 12


def test_report_evaluates_each_sample_once(mixed_bowl, invariant_calls):
    boundedness_report(mixed_bowl, 1.0, 1.0)
    assert invariant_calls[0] <= MAX_REPORT_CALLS


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
