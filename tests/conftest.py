import sys

import pytest

from lcframe import catalog
from lcframe.surface import basic_invariants_at


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
                getattr(module, "basic_invariants_at", None) is basic_invariants_at:
            monkeypatch.setattr(module, "basic_invariants_at", counted)
    return calls
