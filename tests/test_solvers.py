"""The scalar root kernel and the lazy scipy import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import billiardlab
from billiardlab.errors import ConvergenceError
from billiardlab.solvers import ROOT_MAX_ITER, find_root


def test_root_kernel_converges_to_machine_precision():
    root = math.sqrt(2.0)
    for df in (None, lambda x: 2.0 * x):
        x = find_root(lambda x: x * x - 2.0, 0.0, 3.0, df=df)
        assert abs(x - root) <= 1e-15 * root
    x = find_root(math.cos, 1.0, 2.0, df=lambda x: -math.sin(x))
    assert abs(x - 0.5 * math.pi) <= 1e-15 * 0.5 * math.pi


def test_root_kernel_returns_a_converged_newton_step():
    # near pi/2 the Newton step lands on the root with a residual whose
    # sign moves the bracket end onto the iterate; the step must still end
    # the search rather than fall back to bisection
    evals = []

    def f(x):
        evals.append(x)
        return math.cos(x)

    x = find_root(f, 1.0, 2.0, df=lambda x: -math.sin(x))
    assert x == 0.5 * math.pi
    assert len(evals) <= 6


def test_root_kernel_stays_inside_bracket_when_newton_jumps_out():
    # arctan is nearly flat far from its root: the Newton step from x = 4
    # lands near -20, far outside [-1, 5]
    seen = []

    def f(x):
        seen.append(x)
        return math.atan(x)

    x = find_root(f, -1.0, 5.0, df=lambda x: 1.0 / (1.0 + x * x), x0=4.0)
    assert abs(x) <= 1e-15
    assert all(-1.0 <= s <= 5.0 for s in seen)


def test_root_kernel_rejects_bracket_without_sign_change():
    with pytest.raises(ConvergenceError) as err:
        find_root(lambda x: x * x + 1.0, -1.0, 1.0, df=lambda x: 2.0 * x)
    assert err.value.iterations == 0


def test_root_kernel_reports_non_convergence():
    # bisection alone needs about 265 halvings of [0, 1] to reach a root
    # at 1e-80 to relative precision, more than the iteration budget
    with pytest.raises(ConvergenceError) as err:
        find_root(lambda x: x - 1e-80, -1.0, 1.0)
    assert err.value.iterations == ROOT_MAX_ITER
    assert find_root(lambda x: x - 1e-80, -1.0, 1.0, df=lambda x: 1.0) == 1e-80


def test_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, billiardlab; "
            "sys.exit(1 if 'scipy.optimize' in sys.modules else 0)")
    env = dict(os.environ, PYTHONPATH=str(Path(billiardlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert billiardlab.dynamics.least_squares is billiardlab.solvers.least_squares
    sol = billiardlab.solvers.least_squares(lambda x: x - 3.0, np.zeros(1))
    assert abs(sol.x[0] - 3.0) < 1e-8
