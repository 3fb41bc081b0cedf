"""Surfaces share their derivation by shape.

A surface's generic constants are slots, so its images under a Lorentz
map of (X, v, w), a homothety X -> cX and a parameter shift derive and
number their trees once per process.  Every program must give the bits
of the same surface derived with every constant literal.
"""

import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from images import image, literal, lorentz
from lcframe import catalog, expr, surface
from lcframe.errors import LcframeError
from lcframe.expr import Dag
from lcframe.surface import BasicInvariants, SurfaceDef

#: The root sets compared: the invariants, each traced field, and each
#: vector and second partial of X.
ROOT_SETS = [BasicInvariants._fields, ("lambda_til",), ("c2",),
             *((name,) for name in ("x_u", "x_v", "v", "w", "m", "x_uu", "x_uv", "x_vv"))]

#: The root sets whose edge kernels are compared.
EDGE_ROOTS = [("lambda_til",), ("c2",), ("a1",)]


def _hex(values):
    return [float(x).hex() for x in values]


def _outcome(call):
    """float.hex of what call returns, nested as it returns it, or the
    text of its fault."""
    try:
        result = call()
    except LcframeError as exc:
        return str(exc)
    return json.loads(json.dumps(result, default=float),
                      parse_float=lambda text: float(text).hex())


def _every_value(s):
    """What every compared program of s gives: per root set its point
    program at each point of a 5x4 grid of the domain, its grid program
    on that grid and its array program at those points; per edge root
    its kernels along two edges."""
    us, vs = s.domain.grid(5, 4)
    points = np.array([(u, v) for u in us for v in vs]).T
    out = []
    for roots in ROOT_SETS:
        point = s.program(roots)
        out.append([_outcome(lambda: _hex(point(u, v))) for u in us for v in vs])
        out.append(_outcome(lambda: s.program(roots, "grid")(us, vs)))
        values, bad = s.program(roots, "arrays")(*points)
        out.append([_hex(column) for column in values] + [bad.tolist()])
    for roots in EDGE_ROOTS:
        point = s.program(roots)
        along_u, along_v = s.program(roots, "edges")
        for kernel, h, a, b, ends in ((along_u, vs[1], us[0], us[-1], lambda x: (x, vs[1])),
                                      (along_v, us[2], vs[0], vs[-1], lambda x: (us[2], x))):
            out.append(_outcome(lambda: kernel(h, a, b, point(*ends(a))[0], point(*ends(b))[0],
                                               1e-300)))
    return out


@settings(max_examples=30, deadline=None)
# the identity map, whose exact zeros and ones leave constant roots of
# slots: their derivatives must be 0.0, not the chain rule's -0.0
@example(name="timelike_trough", rapidity=0.0, first=0.0, second=0.0, log_scale=1.0,
         du=0.0, dv=0.0)
@given(name=st.sampled_from(catalog.names()),
       rapidity=st.floats(-1.0, 1.0), first=st.floats(0.0, 2 * math.pi),
       second=st.floats(0.0, 2 * math.pi), log_scale=st.floats(-6.0, 6.0),
       du=st.floats(-1.0, 1.0), dv=st.floats(-1.0, 1.0))
def test_an_image_gives_the_bits_of_its_literal_derivation(name, rapidity, first, second,
                                                           log_scale, du, dv):
    data = image(name, lorentz(rapidity, first, second), 10.0 ** log_scale, (du, dv),
                 name=f"{name}-image").data
    s = SurfaceDef.from_dict(data)
    assert _every_value(s) == _every_value(literal(s, data))


@pytest.mark.parametrize("name", catalog.names())
def test_a_catalog_surface_gives_the_bits_of_its_literal_derivation(name):
    data = json.loads(catalog.surface_text(name))
    s = SurfaceDef.from_dict(data)
    assert _every_value(s) == _every_value(literal(s, data))


#: Components of random surfaces: literals that a derivation's rules
#: test for, generic ones that repeat, so that constant-only values
#: arise, and every operation of the grammar.
COMPONENTS = st.recursive(
    st.sampled_from(["0", "-0", "1", "-1", "2", "-2", "0.5", "3", "pi", "u", "v"]),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join).map("({})".format),
        children.map("-({})".format),
        st.tuples(children, st.sampled_from(["2", "3", "(-1)", "0"]))
        .map(lambda t: "({})^{}".format(*t)),
        st.tuples(st.sampled_from(["sin", "exp", "sqrt", "log", "abs", "cosh"]), children)
        .map(lambda t: "{}({})".format(*t))),
    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(COMPONENTS, min_size=6, max_size=6))
def test_a_random_surface_gives_the_bits_of_its_literal_derivation(components):
    data = {"name": "random", "X": components[:3], "v": components[3:],
            "w": ["1", "-sin(v)", "-cos(v)"], "domain": {"u": ["0.3", "1.7"], "v": ["0.2", "1.1"]}}
    s = SurfaceDef.from_dict(data)
    assert _every_value(s) == _every_value(literal(s, data))


#: Surfaces with a constant-only value that the literal derivation
#: folds further: (2*0.5) is 1.0, and (2 - 2)*log(u) is 0 on the whole
#: domain, where the slotted tree would take the log of u <= 0.
FOLDING = [
    {"name": "product_one", "X": ["(2*0.5)*u", "-u*sin(v)", "-u*cos(v)"],
     "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
     "domain": {"u": ["-1", "1"], "v": ["0", "2*pi"]}},
    {"name": "difference_zero", "X": ["u + (2 - 2)*log(u)", "-u*sin(v)", "-u*cos(v)"],
     "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
     "domain": {"u": ["-1", "1"], "v": ["0", "2*pi"]}},
]


@pytest.mark.parametrize("data", FOLDING, ids=[d["name"] for d in FOLDING])
def test_a_value_that_folds_further_takes_the_literal_derivation(data, monkeypatch):
    decisions = {}
    folds_further = expr._Numbering.folds_further

    def recording(numbering, folds):
        result = folds_further(numbering, folds)
        decisions.setdefault(numbering.roots, []).append(result)
        return result

    monkeypatch.setattr(expr._Numbering, "folds_further", recording)
    s = SurfaceDef.from_dict(data)
    assert _every_value(s) == _every_value(literal(s, data))
    assert any(True in taken for taken in decisions.values())
    # the program of X_u reads the folded value, so it is the literal one
    assert s.program(("x_u",)).__defaults__ == literal(s, data).program(("x_u",)).__defaults__


def test_a_surface_derives_its_literal_shape_once(monkeypatch):
    # the literal shape has no slots, so it serves every later program
    derived = []
    init = surface._Shape.__init__

    def counted(self, components):
        derived.append(components)
        init(self, components)

    monkeypatch.setattr(surface, "_Shape", type("_Shape", (surface._Shape,), {
        "__slots__": (), "__init__": counted}))
    monkeypatch.setattr(expr._Numbering, "folds_further", lambda numbering, folds: True)
    surface._by_tokens.cache_clear()
    data = FOLDING[0]
    s = SurfaceDef.from_dict(data)
    assert len(derived) == 1
    shape = s.shape
    for roots in ROOT_SETS:
        for schedule in ("point", "grid", "arrays"):
            s.program(roots, schedule)
    for roots in EDGE_ROOTS:
        s.program(roots, "edges")
    assert len(derived) == 2 and s.shape is not shape
    assert "Slot(" not in repr(derived[1])
    # the surface's own: a second surface of the same texts derives one too
    other = SurfaceDef.from_dict(data)
    assert other.shape is shape
    other.program(("x_u",))
    assert len(derived) == 3 and other.shape is not s.shape
    assert _every_value(s) == _every_value(literal(s, data))


def _deeper(call, frames=80):
    """call() run below frames more frames of the stack."""
    return _deeper(call, frames - 1) if frames else call()


def _deep(x1):
    """A surface whose first component of X is x1, a text of deep trees."""
    return {"name": "deep", "X": [x1, "-u*sin(v)", "-u*cos(v)"],
            "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
            "domain": {"u": ["0.5", "1"], "v": ["0", "2*pi"]}}


def test_a_long_sum_builds_and_evaluates():
    # 499 levels: hashing the trees for a table of shapes raised "nested
    # too deeply to simplify", though the derivation handles them
    def run():
        s = SurfaceDef.from_dict(_deep(" + ".join(["u"] * 500)))
        return [s.program(roots)(0.75, 0.5) for roots in
                [("x_u",), ("lambda_til",), BasicInvariants._fields]]

    x_u, (lam,), invariants = _deeper(run)
    assert x_u[0] == 500.0
    assert lam == -4.0 * (invariants[0] * invariants[1])


def test_a_long_sum_that_folds_further_gives_every_program():
    # both programs take the literal derivation, and a table keyed by
    # the literal trees hashed them, too deep for Python, on the second
    def run():
        s = SurfaceDef.from_dict(_deep("(2 - 2)*log(u)" + " + u" * 400))
        return s.program(("x_u",))(0.75, 0.5), s.program(("lambda_til",))(0.75, 0.5)

    x_u, (lam,) = _deeper(run)
    assert x_u[0] == 400.0 and math.isfinite(lam)


def test_a_literal_derivation_too_deep_is_an_lcframe_error():
    # the literal trees are built recursively, two frames a level, so
    # the fallback raised a bare RecursionError where the shape built
    def run():
        s = SurfaceDef.from_dict(_deep("(2 - 2)*log(u)" + " + v" * 600))
        s.program(("x_u",))

    with pytest.raises(LcframeError, match="^expression nested too deeply to "):
        _deeper(run)


def _images(per_surface=4, seed=7):
    """.surf texts of per_surface images of every catalog surface."""
    rng = random.Random(seed)
    return [json.dumps(image(name, lorentz(rng.uniform(-0.8, 0.8), rng.uniform(0, 6),
                                           rng.uniform(0, 6)),
                             10.0 ** rng.uniform(-6, 6), (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                             name=f"{name}-image").data)
            for _ in range(per_surface) for name in catalog.names()]


def test_images_derive_and_number_each_shape_once(monkeypatch):
    calls = {"shapes": 0, "numberings": 0, "differentiate": 0, "parse": 0}

    def counting(key, original):
        def counted(*args):
            calls[key] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(surface, "_Shape", type("_Shape", (surface._Shape,), {
        "__slots__": (), "__init__": counting("shapes", surface._Shape.__init__)}))
    monkeypatch.setattr(surface, "_numbering", counting("numberings", surface._numbering))
    # the components' parses, and those of the domain bounds
    monkeypatch.setattr(surface, "parse", counting("parse", surface.parse))
    monkeypatch.setattr(expr, "parse", counting("parse", expr.parse))
    monkeypatch.setattr(Dag, "differentiate", counting("differentiate", Dag.differentiate))
    surface._by_tokens.cache_clear()
    texts = _images()
    assert len(texts) == 36
    for k, text in enumerate(texts):
        before = dict(calls)
        s = SurfaceDef.from_dict(json.loads(text))
        for roots in ROOT_SETS:
            s.program(roots)
        if k < len(catalog.names()):
            assert calls["shapes"] == before["shapes"] + 1
            assert calls["numberings"] == before["numberings"] + len(ROOT_SETS)
            assert calls["parse"] >= before["parse"] + 9
        else:
            # a hit of the token key parses, derives and numbers nothing
            assert calls == before, k
    assert calls["shapes"] == 9
    assert calls["numberings"] == 9 * len(ROOT_SETS)
    assert surface._by_tokens.cache_info().misses == 9


def test_signed_zeros_are_two_shapes():
    # 0.0 and -0.0 are literals, not slots, and a tree keys a literal by
    # its repr, so the two surfaces must not share one derivation
    def built(zero):
        return SurfaceDef("zeros", ["u", f"u*sin({zero})", "v"], ["1", "sin(v)", "cos(v)"],
                          ["1", "-sin(v)", "-cos(v)"], (-1.0, 1.0, 0.0, 1.0))

    plus, minus = built("0"), built("-0")
    assert plus.shape is not minus.shape
    assert plus.x_u(0.5, 0.5).x2.hex() == "0x0.0p+0"
    assert minus.x_u(0.5, 0.5).x2.hex() == "-0x0.0p+0"


def test_threads_deriving_shapes_at_once_match_a_serial_build():
    # threads racing on the table's misses, a shape's second partials
    # and its numberings must each read a serial build's bits
    texts = _images(per_surface=2)
    roots = [BasicInvariants._fields, ("x_uu",), ("lambda_til",)]

    def values():
        out = []
        for text in texts:
            s = SurfaceDef.from_dict(json.loads(text))
            us, vs = s.domain.grid(3, 3)
            out.append([_outcome(lambda: _hex(s.program(r)(u, v)))
                        for r in roots for u in us for v in vs])
        return out

    serial = values()
    surface._by_tokens.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(6) as pool:
            results = list(pool.map(lambda _: values(), range(6), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)
    assert surface._by_tokens.cache_info().currsize == len(catalog.names())
