from fractions import Fraction as F

import pytest

import tropma.envelope as envelope
from tropma import AffineLatticeFrame, Cocycle, hull


@pytest.fixture(scope="session")
def tate():
    return Cocycle.make([[1]], [[1]], [F(1, 2)])


@pytest.fixture(scope="session")
def two_tate():
    return Cocycle.make([[1, 0], [0, 1]], [[1, 0], [0, 1]], [F(1, 2), F(1, 2)])


@pytest.fixture(scope="session")
def unit_square():
    return hull([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def std_frame_1d():
    return AffineLatticeFrame((F(0),), ((F(1),),))


@pytest.fixture(scope="session")
def std_frame_2d():
    return AffineLatticeFrame((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))


@pytest.fixture()
def builds(monkeypatch):
    """(f, lo, hi) of every envelope scan built, counted where the scan calls
    `_enumerate_entries`."""
    calls = []
    original = envelope._enumerate_entries

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(envelope, "_enumerate_entries", counting)
    return calls
