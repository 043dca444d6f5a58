"""The scalar root kernel and lazy access to scipy's least-squares solver.

``find_root`` is the package's one scalar root finder: boundary
crossings, inverse slopes, height partners and bracketed angle searches
all go through it.  ``least_squares`` forwards to scipy and imports
``scipy.optimize`` on first use, because that import costs most of the
time of ``import billiardlab`` and only three solves need it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

EPS = np.finfo(float).eps
ROOT_MAX_ITER = 200


def find_root(f, lo, hi, df=None, x0=None, xtol=0.0, f_lo=None, f_hi=None):
    """Root of a scalar function that changes sign on [lo, hi].

    Safeguarded Newton: with a derivative ``df`` the Newton step from
    the current iterate is taken when it lands inside the sign-change
    bracket and at least halves the previous step; otherwise, and
    always without ``df``, the bracket is bisected.  The search starts
    at ``x0`` when it lies inside the bracket, else at the midpoint, and
    stops once the step or the bracket is within xtol + 2 eps |x|.
    ``f_lo`` and ``f_hi`` may pass known values at the ends, or any
    value of the same sign.  A function without a sign change on the
    bracket, or one that does not converge in ROOT_MAX_ITER steps,
    raises ConvergenceError.
    """
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ConvergenceError(f"no sign change on [{lo:.17g}, {hi:.17g}]",
                               iterations=0, residual=min(abs(f_lo), abs(f_hi)))
    neg, pos = (lo, hi) if f_lo < 0.0 else (hi, lo)
    inside = x0 is not None and min(lo, hi) < x0 < max(lo, hi)
    x = x0 if inside else 0.5 * (lo + hi)
    prev_step = abs(hi - lo)
    for _ in range(ROOT_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
        tol = xtol + 2.0 * EPS * abs(x)
        if abs(pos - neg) <= tol:
            return x
        x_new = None
        if df is not None:
            d = df(x)
            if d != 0.0:
                x_new = x - fx / d
                # converged even if it rounds onto the bracket end that x
                # became (the rounded residual at the root has either sign)
                if abs(x_new - x) <= tol:
                    return x_new
                if not (min(neg, pos) < x_new < max(neg, pos)
                        and abs(x_new - x) <= 0.5 * prev_step):
                    x_new = None
        if x_new is None:
            x_new = 0.5 * (neg + pos)
        step = abs(x_new - x)
        if step <= tol or x_new == x:
            return x_new
        prev_step, x = step, x_new
    raise ConvergenceError(f"root search did not converge near {x:.17g}",
                           iterations=ROOT_MAX_ITER, residual=abs(fx))


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)
