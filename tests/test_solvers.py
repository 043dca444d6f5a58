"""The root kernel, one bracket or an array of them, and the batched
Levenberg-Marquardt kernel, square and rectangular.  Each takes one
callback that returns the value with its derivative; a zero slope makes
the root kernel bisect."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import billiardlab
from billiardlab.errors import ConvergenceError
from billiardlab.solvers import LM_GTOL, ROOT_MAX_ITER, find_root, levenberg_marquardt


def test_root_kernel_converges_to_machine_precision():
    root = math.sqrt(2.0)
    for slope in (lambda x: 0.0, lambda x: 2.0 * x):
        x = find_root(lambda x: (x * x - 2.0, slope(x)), 0.0, 3.0)
        assert abs(x - root) <= 1e-15 * root
    x = find_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0)
    assert abs(x - 0.5 * math.pi) <= 1e-15 * 0.5 * math.pi


def test_root_kernel_returns_a_converged_newton_step():
    # near pi/2 the Newton step lands on the root with a residual whose
    # sign moves the bracket end onto the iterate; the step must still end
    # the search rather than fall back to bisection
    evals = []

    def f(x):
        evals.append(x)
        return math.cos(x), -math.sin(x)

    x = find_root(f, 1.0, 2.0)
    assert x == 0.5 * math.pi
    assert len(evals) <= 6


def test_root_kernel_stays_inside_bracket_when_newton_jumps_out():
    # arctan is nearly flat far from its root: the Newton step from x = 4
    # lands near -20, far outside [-1, 5]
    seen = []

    def f(x):
        seen.append(x)
        return math.atan(x), 1.0 / (1.0 + x * x)

    x = find_root(f, -1.0, 5.0, x0=4.0)
    assert abs(x) <= 1e-15
    assert all(-1.0 <= s <= 5.0 for s in seen)


def test_root_kernel_rejects_bracket_without_sign_change():
    with pytest.raises(ConvergenceError) as err:
        find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)
    assert err.value.iterations == 0


def test_root_kernel_reports_non_convergence():
    # bisection alone needs about 265 halvings of [0, 1] to reach a root
    # at 1e-80 to relative precision, more than the iteration budget
    with pytest.raises(ConvergenceError) as err:
        find_root(lambda x: (x - 1e-80, 0.0), -1.0, 1.0)
    assert err.value.iterations == ROOT_MAX_ITER
    assert find_root(lambda x: (x - 1e-80, 1.0), -1.0, 1.0) == 1e-80


def random_cubics(n, seed):
    """Rows of f(x) = (x^2 + a) x - b, some with three real roots, and
    brackets [lo, hi] (in either order) on which each changes sign."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    lo, hi = rng.uniform(-3.0, -2.0, n), rng.uniform(2.0, 3.0, n)
    flip = rng.random(n) < 0.5
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    return a, b, lo, hi


def test_row_solve_gives_each_row_its_scalar_bits():
    n = 200
    a, b, lo, hi = random_cubics(n, 31)
    x0 = np.random.default_rng(32).uniform(-3.5, 3.5, n)  # some outside the bracket
    x0[::7], x0[3::7] = lo[::7], hi[3::7]  # and some on its ends
    for with_df in (False, True):
        def slope(x, a):  # without a derivative the slope is zero
            return 3.0 * x * x + a if with_df else 0.0

        for ends in (False, True):
            for start in (None, x0):
                kw = {}
                if ends:  # any value of the right sign stands for f at the ends
                    kw = dict(f_lo=np.sign(lo), f_hi=np.sign(hi))
                rows = find_root(lambda x, i: ((x * x + a[i]) * x - b[i], slope(x, a[i])),
                                 lo, hi, x0=start, **kw)
                for k in range(n):
                    one = find_root(lambda x: ((x * x + a[k]) * x - b[k], slope(x, a[k])),
                                    lo[k], hi[k], x0=None if start is None else start[k],
                                    **{key: value[k] for key, value in kw.items()})
                    assert rows[k] == one, (with_df, ends, start is None, k)


def test_row_solve_agrees_with_scipy_elementwise_root():
    elementwise = pytest.importorskip("scipy.optimize.elementwise")
    a, b, lo, hi = random_cubics(200, 33)
    a = np.abs(a) + 0.5  # one simple root per row, so both solvers find the same one
    for slope in (lambda x, i: 0.0, lambda x, i: 3.0 * x * x + a[i]):
        rows = find_root(lambda x, i: ((x * x + a[i]) * x - b[i], slope(x, i)), lo, hi)
        ref = elementwise.find_root(lambda x, a, b: (x * x + a) * x - b,
                                    (np.minimum(lo, hi), np.maximum(lo, hi)), args=(a, b))
        assert ref.success.all()
        assert np.all(np.abs(rows - ref.x) <= 4.0 * np.finfo(float).eps * np.abs(ref.x))


def test_row_solve_raises_for_a_failing_row():
    lo, hi = np.array([0.0, -1.0, 0.0]), np.array([3.0, 1.0, 2.0])
    with pytest.raises(ConvergenceError) as err:  # row 1 has no sign change
        find_root(lambda x, i: (x * x - np.array([2.0, -1.0, 1.0])[i], 0.0), lo, hi)
    assert err.value.iterations == 0
    # row 1 needs about 265 halvings, more than the iteration budget
    shift = np.array([2.0, 1e-80, 1.0])
    with pytest.raises(ConvergenceError) as err:
        find_root(lambda x, i: (x - shift[i], 0.0), np.array([0.0, -1.0, 0.0]), hi)
    assert err.value.iterations == ROOT_MAX_ITER
    x = find_root(lambda x, i: (x - shift[i], np.ones_like(x)), np.array([0.0, -1.0, 0.0]), hi)
    assert np.array_equal(x, shift)


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(billiardlab.__file__).parents[1]))
    for code in ("import billiardlab",
                 # the closed-orbit search has its own solver
                 "import billiardlab as bl; "
                 "bl.capacity_estimate(bl.Ball(), bl.Ball(), 3, multistarts=2)"):
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; "
             "sys.exit(1 if 'scipy.optimize' in sys.modules else 0)"],
            env=env, timeout=120, capture_output=True)
        assert done.returncode == 0, (code, done.stderr.decode())
    # every solve calls the package's own solver through a module-level
    # name that the benchmark tracer can wrap
    for module in (billiardlab.dynamics, billiardlab.projectivity, billiardlab.reflection):
        assert module.least_squares is levenberg_marquardt


def test_batched_solver_stops_each_row_on_its_own_rules():
    # f(x, y) = (x^3 + y - 1, y - 2 x^2): roots where x^3 + 2 x^2 - 1 =
    # (x + 1)(x^2 + x - 1) vanishes.  A row that starts on a root ends at
    # once, a row whose residual is not finite at x0 leaves untouched,
    # and the others end at round-off or on the evaluation budget.
    def fun(x, rows):
        f = np.stack([x[:, 0] ** 3 + x[:, 1] - 1.0, x[:, 1] - 2.0 * x[:, 0] ** 2], axis=1)
        f[rows == 3] = np.nan
        return f, np.stack([np.stack([3.0 * x[:, 0] ** 2, np.ones(len(x))], axis=1),
                            np.stack([-4.0 * x[:, 0], np.ones(len(x))], axis=1)], axis=1)

    x0 = np.array([[-1.0, 2.0], [0.3, 0.1], [2.0, -1.0], [0.7, 0.2]])
    sol = levenberg_marquardt(fun, x0, max_nfev=100)
    assert sol.nfev[0] == 1 and np.array_equal(sol.x[0], x0[0])
    assert sol.nfev[3] == 1 and np.array_equal(sol.x[3], x0[3])
    assert np.all(sol.nfev < 100)
    f, J = fun(sol.x[:3], np.arange(3))
    g = np.einsum("sij,si->sj", J, f)
    assert np.max(np.abs(f)) <= 1e-15 and np.max(np.abs(g)) <= LM_GTOL
    budget = levenberg_marquardt(fun, x0, max_nfev=3)
    assert np.array_equal(budget.nfev, [1, 3, 3, 1])


def arctan_systems(c):
    """Residuals (arctan(a (x - 1)), y + x^2 - b) and their Jacobians for
    the rows (a, b) of c: steps from far out on the arctan overshoot."""
    def fun(x, rows):
        a, b = c[rows, 0], c[rows, 1]
        t = a * (x[:, 0] - 1.0)
        f = np.stack([np.arctan(t), x[:, 1] + x[:, 0] ** 2 - b], axis=1)
        J = np.stack([np.stack([a / (1.0 + t * t), np.zeros(len(x))], axis=1),
                      np.stack([2.0 * x[:, 0], np.ones(len(x))], axis=1)], axis=1)
        return f, J

    return fun


def test_mixed_accept_and_reject_iterations_keep_one_system_bits():
    # row 2 has its trial step rejected in iterations where rows 0 and 1
    # take theirs, and other iterations accept every row: both update
    # paths must give each row the bits of its solve alone
    c = np.array([[3.0, 2.0], [0.5, 1.0], [2.0, 0.5]])
    x0 = np.array([[3.0, 0.0], [1.2, 0.3], [-1.0, 1.0]])
    calls = []
    fun = arctan_systems(c)

    def logged(x, rows):
        f, J = fun(x, rows)
        calls.append((rows.copy(), np.einsum("si,si->s", f, f)))
        return f, J

    sol = levenberg_marquardt(logged, x0, max_nfev=100)
    cost = dict(zip(*calls[0]))
    outcomes = []  # (rows accepting, rows rejecting) of each iteration
    for rows, new in calls[1:]:
        accept = {r for r, value in zip(rows, new) if value < cost[r]}
        cost.update({r: value for r, value in zip(rows, new) if r in accept})
        outcomes.append((accept, set(rows) - accept))
    assert any(accept and reject for accept, reject in outcomes)
    assert any(len(accept) > 1 and not reject for accept, reject in outcomes)
    for s in range(len(c)):
        one = levenberg_marquardt(arctan_systems(c[s:s + 1]), x0[s:s + 1], max_nfev=100)
        assert np.array_equal(sol.x[s], one.x[0]), s
        assert sol.nfev[s] == one.nfev[0], s
    assert np.max(np.abs(fun(sol.x, np.arange(3))[0])) <= 1e-15


def exponential_fit(seed, ulps=None):
    """Residuals a exp(b t) - y of an exponential fit to 40 noisy samples
    y (each moved by ``ulps`` units in the last place) and their
    Jacobians, for the rows (a, b) of x."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 40)
    y = 1.5 * np.exp(-0.8 * t) + rng.normal(scale=0.01, size=40)
    if ulps is not None:
        y = y + ulps * np.spacing(y)

    def fun(x, rows):
        e = np.exp(x[:, 1:] * t)
        return x[:, :1] * e - y, np.stack([e, x[:, :1] * t * e], axis=2)

    return fun


FIT_STARTS = np.array([[1.0, 0.0], [3.0, -2.0]])


def test_rectangular_solve_stops_at_the_round_off_floor():
    # the minimum has |f| of order 0.06, so J^T f never falls to LM_GTOL:
    # the search ends once the model predicts a decrease of |f|^2 below
    # its rounding, with f orthogonal to the columns of J, and on the
    # same evaluation count under last-bit changes of the samples
    fun = exponential_fit(41)
    sol = levenberg_marquardt(fun, FIT_STARTS, max_nfev=100)
    f, J = fun(sol.x, None)
    cosine = (np.abs(np.einsum("sij,si->sj", J, f))
              / (np.linalg.norm(J, axis=1) * np.linalg.norm(f, axis=1)[:, None]))
    assert np.all(cosine <= 1e-7)
    assert np.all(sol.nfev <= 12)
    rng = np.random.default_rng(42)
    counts = []
    for _ in range(10):
        fun = exponential_fit(41, rng.integers(-4, 5, 40))
        counts.append(levenberg_marquardt(fun, FIT_STARTS, max_nfev=100).nfev)
    counts = np.array(counts)
    assert np.all(counts.max(axis=0) - counts.min(axis=0) <= 1)


def test_rectangular_solve_agrees_with_minpack():
    optimize = pytest.importorskip("scipy.optimize")
    fun = exponential_fit(43)
    sol = levenberg_marquardt(fun, FIT_STARTS, max_nfev=100)
    for x0, x in zip(FIT_STARTS, sol.x):
        ref = optimize.least_squares(lambda z: fun(z[None], None)[0][0], x0,
                                     jac=lambda z: fun(z[None], None)[1][0],
                                     method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        cost = float(np.sum(fun(x[None], None)[0] ** 2))
        assert abs(cost - 2.0 * ref.cost) <= 1e-12 * cost
        assert np.all(np.abs(x - ref.x) <= 1e-7 * np.abs(ref.x))
