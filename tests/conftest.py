"""Shared body fixtures for the test suite."""

import collections
import math

import numpy as np
import pytest

import billiardlab as bl
from billiardlab.jets import Taylor1D

TAYLOR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "recip", "sqrt", "exp", "log",
              "pow", "sin", "cos", "sin_cos", "_sin_cos_nilpotent", "diff", "compose",
              "invert")


@pytest.fixture
def taylor_ops(monkeypatch):
    """Counter of the Taylor1D operations made while the test runs, by name."""
    counts = collections.Counter()
    for name in TAYLOR_OPS:
        def counted(*args, _real=getattr(Taylor1D, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(Taylor1D, name, counted)
    return counts


@pytest.fixture(scope="session")
def disk():
    return bl.Ball(1.0)


@pytest.fixture(scope="session")
def ellipse():
    # semiaxes 2 and 1
    return bl.Ellipsoid(np.diag([0.25, 1.0]))


@pytest.fixture(scope="session")
def ellipse_rot():
    # rotated, condition number 10
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    return bl.Ellipsoid(R @ np.diag([1.0, 0.1]) @ R.T)


@pytest.fixture(scope="session")
def superellipse():
    return bl.Superellipse(4.0)


@pytest.fixture(scope="session")
def radial_blob():
    # generic smooth strictly convex body, no symmetry
    return bl.RadialBody2D([1.0, 0.0, 0.08, 0.02], [0.0, 0.0, 0.0, 0.02])


@pytest.fixture(scope="session")
def radial_symmetric():
    # centrally symmetric: even harmonics only
    return bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02])


@pytest.fixture(scope="session")
def ball3():
    return bl.Ball(1.0, dim=3)


@pytest.fixture(scope="session")
def ellipsoid3():
    return bl.Ellipsoid(np.diag([0.25, 1.0, 0.5]))


@pytest.fixture(scope="session")
def superellipsoid3():
    return bl.Superellipse(4.0, dim=3)


def random_line(rng, spread=0.25):
    p = rng.normal(size=2) * spread
    v = rng.normal(size=2)
    return bl.OrientedLine(p, v / np.linalg.norm(v))
