import contextlib
import importlib
import math
import sys

import pytest

from lcframe import catalog, expr
from lcframe.expr import CompiledField
from lcframe.surface import DomainBox, SurfaceDef, basic_invariants_at


@pytest.fixture(scope="session")
def sphere():
    return catalog.load("sphere")


@pytest.fixture(scope="session")
def mixed_bowl():
    return catalog.load("mixed_bowl")


@pytest.fixture(scope="session")
def twisted_band():
    return catalog.load("twisted_band")


@pytest.fixture(scope="session")
def timelike_trough():
    return catalog.load("timelike_trough")


@pytest.fixture(scope="session")
def flared_trough():
    return catalog.load("flared_trough")


@pytest.fixture(scope="session")
def parabolic_cone():
    return catalog.load("parabolic_cone")


@pytest.fixture(scope="session")
def cubic_cone():
    return catalog.load("cubic_cone")


@pytest.fixture(scope="session")
def flat_plane():
    return catalog.load("flat_plane")


@pytest.fixture(scope="session")
def zero_mean_band():
    return catalog.load("zero_mean_band")


@pytest.fixture(scope="session")
def jet_pole_plane():
    """A plane, on which every point takes the 0/0 limit of kappa_til_1,
    of radius r(u) = u + 1e-70/(u^2 + 1e-21) - 1e-49, which puts no zero
    divisor into the 23 invariants.  At u = 0 the u-jets read X_uuuu,
    which divides by (u^2 + 1e-21)^16, and that underflows to 0; so the
    jet program raises "division by zero" there, and nowhere else.  r(0)
    is 0, so the points of u = 0 are singular."""
    r = "(u + 1e-70/(u*u + 1e-21) - 1e-49)"
    return SurfaceDef("jet_pole_plane", ["1", f"-{r}*sin(v)", f"-{r}*cos(v)"],
                      ["1", "sin(v)", "cos(v)"], ["1", "-sin(v)", "-cos(v)"],
                      DomainBox(-1.0, 1.0, 0.0, 2 * math.pi))


@pytest.fixture
def invariant_calls(monkeypatch):
    """Count basic_invariants_at calls made through any lcframe module.

    Modules import the function by name, so every namespace that binds
    it is rebound; the returned list holds the running count."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return basic_invariants_at(*args)

    for name, module in list(sys.modules.items()):
        if (name == "lcframe" or name.startswith("lcframe.")) and \
                vars(module).get("basic_invariants_at") is basic_invariants_at:
            monkeypatch.setattr(module, "basic_invariants_at", counted)
    return calls


@pytest.fixture
def field_evals(monkeypatch):
    """Count CompiledField.eval_derivative calls, which no surface
    makes: its traced fields are programs of its own table.  The
    returned list holds the running count."""
    calls = [0]
    original = CompiledField.eval_derivative

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(CompiledField, "eval_derivative", counted)
    return calls


@pytest.fixture
def unshared_code(monkeypatch):
    """Compile every program afresh: the process-wide map of program
    codes by shape keeps nothing, so each compile_program and
    compile_grid_program call compiles its code as if the map were
    cleared just before it."""
    monkeypatch.setattr(expr, "_shared_code", expr._shared_code.__wrapped__)


@pytest.fixture
def evaluated_as(monkeypatch):
    """evaluated_as("points") is a context in which
    classify.grid_blocks evaluates every grid, whatever its size, as
    point blocks, and evaluated_as("arrays") one in which it evaluates
    every grid as arrays.Blocks."""
    thresholds = {"points": math.inf, "arrays": 0}

    @contextlib.contextmanager
    def context(kind):
        with monkeypatch.context() as patch:
            # the package's name classify is the function, not the module
            patch.setattr(importlib.import_module("lcframe.classify"), "ARRAY_MIN_POINTS",
                          thresholds[kind])
            yield

    return context
