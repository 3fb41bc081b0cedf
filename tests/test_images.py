"""The catalog's answers under its images (tests/images.py).

Classes and trace flags are properties of the surface, so an image may
change them only by its action (v <-> w swaps L1 and L2).  The rows
that pass are guards; those that fail today are strict xfails that name
the ROADMAP item that mends them.
"""

import functools
import math

import pytest

from images import image, lorentz
from lcframe import catalog
from lcframe.classify import TRACEABLE_FIELDS, classify_grid, trace_zero_set
from lcframe.surface import SurfaceDef, validate_framed

GRID = (41, 32)


@functools.cache
def _classes(name):
    """The PointClass of each point of the GRID of catalog surface name."""
    return [row.point_class for row in classify_grid(catalog.load(name), GRID).rows]


@pytest.mark.parametrize("maps", [
    {"shift": (0.3, -0.7)}, {"scale": (1e3, 1e-3)}, {"scale": (1e-3, 1e3)},
    {"matrix": lorentz(0.5, 1.0, 2.0), "c": 1e3},
], ids=["shift", "scale-1e3-1e-3", "scale-1e-3-1e3", "lorentz"])
def test_a_pull_back_lands_on_the_base_grid_point(maps):
    for name in catalog.names():
        im = image(name, **maps)
        us, vs = SurfaceDef.from_dict(im.data).domain.grid(*GRID)
        base_us, base_vs = catalog.load(name).domain.grid(*GRID)
        for u, base_u in zip(us, base_us):
            for v, base_v in zip(vs, base_vs):
                pulled = im.pull(u, v)
                assert all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
                           for x, y in zip(pulled, (base_u, base_v))), (name, u, v, pulled)


@pytest.mark.parametrize("maps", [
    {"swap": True},
    *({"gauge": rho} for rho in ("2", "1000.0", "exp(u)", "exp(0.5*sin(v))")),
    *({"scale": k} for k in ((1e3, 1.0), (1e-3, 1.0), (1.0, 1e3), (1.0, 1e-3))),
    *({"c": c} for c in (1e-3, 1e3, 1e6)),
    pytest.param({"c": 1e-6}, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: the class tests are absolute, and a1, b1 and c2 have degree 1 "
        "in X, so at 1e-6*X 132 of the 11,808 classes change: sphere 64, mixed_bowl 64, "
        "flared_trough 4"))),
], ids=["swap", "gauge-2", "gauge-1e3", "gauge-exp-u", "gauge-exp-sin-v", "scale-u-1e3",
        "scale-u-1e-3", "scale-v-1e3", "scale-v-1e-3", "c-1e-3", "c-1e3", "c-1e6", "c-1e-6"])
def test_grid_classes_do_not_change_under_an_image(maps):
    changed, rejected = {}, []
    for name in catalog.names():
        im = image(name, **maps)
        s = SurfaceDef.from_dict(im.data)
        classes = [row.point_class for row in classify_grid(s, GRID).rows]
        count = sum(im.act(a) != b for a, b in zip(_classes(name), classes))
        if count:
            changed[name] = count
        if not validate_framed(s).admitted:
            rejected.append(name)
    assert (changed, rejected) == ({}, [])


def _traces(s, field):
    return trace_zero_set(s, field, (64, 64))


@pytest.mark.parametrize("field", TRACEABLE_FIELDS)
def test_a_swap_keeps_every_trace_vertex_flag(field):
    for name in catalog.names():
        base, swapped = (_traces(s, field) for s in (
            catalog.load(name), SurfaceDef.from_dict(image(name, swap=True).data)))
        assert [p.degenerate for p in swapped] == [p.degenerate for p in base], name


def _item_21(changed):
    return pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 21: the branch tests are absolute, and b1 -> rho*b1, so a vertex "
        "where |b1| <= 1e-9 < rho*|b1| reads L2 on the base and timelike, flag None, on "
        f"the image: {changed} of the 232 flags change, though no vertex moves"))


@pytest.mark.parametrize("rho", [
    "2", pytest.param("1000.0", marks=_item_21(112)), pytest.param("exp(u)", marks=_item_21(34)),
], ids=["2", "1e3", "exp-u"])
def test_a_gauge_keeps_the_twisted_band_lightlike_vertices_and_flags(rho):
    base, gauged = (_traces(s, "lambda_til") for s in (
        catalog.load("twisted_band"),
        SurfaceDef.from_dict(image("twisted_band", gauge=rho).data)))
    assert [len(p.vertices) for p in gauged] == [len(p.vertices) for p in base]
    moved = max(abs(x - y) for a, b in zip(base, gauged)
                for p, q in zip(a.vertices, b.vertices) for x, y in zip(p, q))
    assert moved <= 1e-9
    assert [p.degenerate for p in gauged] == [p.degenerate for p in base]
