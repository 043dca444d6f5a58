"""The root kernel and a batched Levenberg-Marquardt kernel.

``find_root`` is the package's one root finder: boundary crossings,
inverse slopes, height partners and bracketed angle searches all go
through it, one scalar bracket at a time or an array of brackets (one
per row) in one solve.  ``levenberg_marquardt`` solves S nonlinear
least-squares problems together, one row each, with one batched linear
solve per iteration and exact Jacobians from the caller: the
closed-orbit search solves all its multistarts with it and the
projectivity test fits its harmonic homology.  Each kernel takes one
callback, which returns the value and its derivative from one evaluation
at the point: (value, slope) for ``find_root``, (residuals, Jacobians)
for ``levenberg_marquardt``.  The package needs nothing but numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

EPS = np.finfo(float).eps
ROOT_MAX_ITER = 200
# levenberg_marquardt: a row has converged once max |J^T f| <= LM_GTOL or its
# next step is below LM_XTOL * (LM_XTOL + |x|), tolerances at round-off; the
# first damping is LM_DAMPING times the squared column norms of J
LM_GTOL = 1e-15
LM_XTOL = 1e-15
LM_DAMPING = 1e-3


def _dot(a, b):
    """Inner products along the last axis, as np.dot gives them for two
    vectors; b may be one vector against the rows of a.  numpy's matmul
    takes the same BLAS kernel for each row of a stack as for a single
    vector, so every row gets the bits of its one-vector product."""
    if a.ndim == 1:
        return a @ b
    return (a[:, None, :] @ b[..., :, None])[:, 0, 0]


def find_root(f, lo, hi, x0=None, xtol=0.0, f_lo=None, f_hi=None):
    """Root of a scalar function that changes sign on [lo, hi], or of each
    row of an array of such brackets.

    ``f(x)`` returns (value, slope) at x from one evaluation.  Safeguarded
    Newton: the Newton step from the current iterate is taken when it
    lands inside the sign-change bracket and at least halves the previous
    step; otherwise, and always on a zero slope (a function without a
    derivative passes 0), the bracket is bisected.  The search starts
    at ``x0`` when it lies inside the bracket, else at the midpoint, and
    stops once the step or the bracket is within xtol + 2 eps |x|.
    ``f_lo`` and ``f_hi`` may pass known values at the ends, or any
    value of the same sign.  A function without a sign change on the
    bracket, or one that does not converge in ROOT_MAX_ITER steps,
    raises ConvergenceError.  A Newton step rejected after one of at most
    sqrt(tol |x|) that did not halve |f| marks the noise of f: it stops there.

    Array brackets (``lo`` or ``hi`` of ndim 1; ``f_lo``, ``f_hi``, ``x0``
    and ``xtol`` per row or shared) are solved together, with f called
    elementwise as f(x, rows) -> (values, slopes) on the rows still
    searching.  Each row gets the bits of its scalar solve; a failing row
    raises.
    """
    if getattr(lo, "ndim", 0) or getattr(hi, "ndim", 0):  # np.ndim, without its cost on a float
        return _find_roots(f, lo, hi, x0, xtol, f_lo, f_hi)
    f_lo = f(lo)[0] if f_lo is None else f_lo
    f_hi = f(hi)[0] if f_hi is None else f_hi
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
    prev_step, newton = abs(hi - lo), False
    for _ in range(ROOT_MAX_ITER):
        fx, d = f(x)
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
        if d != 0.0:
            x_new = x - fx / d
            # converged even if it rounds onto the bracket end that x
            # became (the rounded residual at the root has either sign)
            if abs(x_new - x) <= tol:
                return x_new
            if not (min(neg, pos) < x_new < max(neg, pos)
                    and abs(x_new - x) <= 0.5 * prev_step):
                x_new = None
        if (x_new is None and newton and abs(fx) >= 0.5 * f_prev
                and prev_step * prev_step <= tol * abs(x)):
            return x  # the noise floor of f
        newton, f_prev = x_new is not None, abs(fx)
        if x_new is None:
            x_new = 0.5 * (neg + pos)
        step = abs(x_new - x)
        if step <= tol or x_new == x:
            return x_new
        prev_step, x = step, x_new
    raise ConvergenceError(f"root search did not converge near {x:.17g}",
                           iterations=ROOT_MAX_ITER, residual=abs(fx))


def _find_roots(f, lo, hi, x0, xtol, f_lo, f_hi):
    """find_root over rows: the scalar loop, run on the compressed arrays
    of the rows that are still searching."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    every = np.arange(lo.size)
    f_lo = f(lo, every)[0] if f_lo is None else np.broadcast_to(f_lo, lo.shape)
    f_hi = f(hi, every)[0] if f_hi is None else np.broadcast_to(f_hi, lo.shape)
    root = np.where(f_lo == 0.0, lo, hi)  # rows that start on a root
    rows = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    bad = rows[(f_lo[rows] < 0.0) == (f_hi[rows] < 0.0)]
    if bad.size:
        i = bad[0]
        raise ConvergenceError(f"no sign change on [{lo[i]:.17g}, {hi[i]:.17g}]", iterations=0,
                               residual=min(abs(f_lo[i]), abs(f_hi[i])))
    lo, hi, left = lo[rows], hi[rows], f_lo[rows] < 0.0
    neg, pos = np.where(left, lo, hi), np.where(left, hi, lo)
    x0 = np.broadcast_to(np.nan if x0 is None else x0, root.shape)[rows]
    x = np.where((np.minimum(lo, hi) < x0) & (x0 < np.maximum(lo, hi)), x0, 0.5 * (lo + hi))
    prev_step, xtol = abs(hi - lo), np.broadcast_to(xtol, root.shape)[rows]
    half_f = np.full(rows.shape, np.inf)  # |f| / 2 after a Newton step, else inf
    for _ in range(ROOT_MAX_ITER):
        if not rows.size:
            return root
        fx, d = f(x, rows)
        low = fx < 0.0
        neg, pos = np.where(low, x, neg), np.where(low, pos, x)
        tol = xtol + 2.0 * EPS * abs(x)
        done = (fx == 0.0) | (abs(pos - neg) <= tol)
        afx = abs(fx)
        x_n = x - fx / np.where(d != 0.0, d, np.nan)  # no Newton step on a zero slope
        dx = abs(x_n - x)
        take = ((np.minimum(neg, pos) < x_n) & (x_n < np.maximum(neg, pos))
                & (dx <= 0.5 * prev_step))
        newton = (dx <= tol) | take  # a converged or an accepted Newton step
        x_new = np.where(newton, x_n, 0.5 * (neg + pos))
        floor = afx >= half_f  # the noise floor of f ends at x, as done rows do
        if floor.any():
            done |= floor & ~newton & (prev_step * prev_step <= tol * abs(x))
        half_f = np.where(take, 0.5 * afx, np.inf)
        step = abs(x_new - x)
        end = done | (step <= tol)
        if end.any():
            np.copyto(x_new, x, where=done)
            root[rows[end]] = x_new[end]
            keep = ~end
            rows, x_new, neg, pos, xtol, step, fx, half_f = (
                a[keep] for a in (rows, x_new, neg, pos, xtol, step, fx, half_f))
        x, prev_step = x_new, step
    if rows.size:
        raise ConvergenceError(f"root search did not converge near {x[0]:.17g}",
                               iterations=ROOT_MAX_ITER, residual=float(np.max(abs(fx))))
    return root


@dataclass
class RowSolution:
    """Solutions of levenberg_marquardt, one row per system: the final
    points and the residual evaluations each row took."""

    x: np.ndarray
    nfev: np.ndarray


def levenberg_marquardt(fun, x0, max_nfev):
    """Least-squares solutions of S systems f_s(x_s) = 0 of k residuals in
    n <= k unknowns (zeros when the systems are square), solved together:
    row s of the (S, n) array x0 starts system s.

    ``fun(x, rows)`` returns, from one evaluation, the (len(rows), k)
    residual rows f_s(x_s) of the systems ``rows`` at the rows of x, with
    a non-finite row for a point outside the domain, and their
    (len(rows), k, n) Jacobians.  Each iteration makes one call, on the
    systems still searching, and one batched n x n linear solve for the damped
    Gauss-Newton steps (J^T J + lam D^2) p = -J^T f, with the scaling D
    of More (1978) (the largest column norms of J met so far).  A step
    that lowers the cost |f|^2 is taken and lam shrinks by Nielsen's
    rule; otherwise lam grows.  A system leaves the search once
    max |J^T f| <= LM_GTOL; once its next step would lower |f|^2 by at
    most k eps |f|^2 on the linear model, the rounding of the k-term sum
    |f|^2 (the round-off floor of a minimum where f does not vanish);
    once its next step is below LM_XTOL * (LM_XTOL + |x|); after
    ``max_nfev`` residual evaluations; or at once if f(x0) is not
    finite; a singular damped matrix (a converged row whose damping fell
    below round-off) gives a zero step, which stops it.  Every operation
    acts on one row at a time, so a row gets the bits of its one-system
    solve.
    """
    x = np.array(x0, dtype=float)
    nfev = np.ones(len(x), dtype=int)
    rows = np.arange(len(x))
    f, J = fun(x, rows)
    rows = rows[np.isfinite(f).all(axis=1)]
    if not rows.size:
        return RowSolution(x, nfev)
    xr, f, J = x[rows], f[rows], J[rows]
    k, n = f.shape[1], x.shape[1]
    d2 = None
    lam, nu = np.full(len(rows), LM_DAMPING), np.full(len(rows), 2.0)
    cost = _dot(f, f)
    evals = 1  # residual evaluations so far of each system still searching
    while True:
        Jt = np.swapaxes(J, -1, -2)
        A = Jt @ J
        g = (Jt @ f[:, :, None])[:, :, 0]
        col2 = A.reshape(len(A), n * n)[:, ::n + 1]  # squared column norms of J
        d2 = np.where(col2 > 0.0, col2, 1.0) if d2 is None else np.maximum(d2, col2)
        damping = lam[:, None] * d2
        M = A.copy()
        M.reshape(len(M), n * n)[:, ::n + 1] += damping
        try:
            p = -np.linalg.solve(M, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # a singular row takes no step, so it stops below
            p = np.zeros_like(g)
            for i in range(len(M)):
                try:
                    p[i] = -np.linalg.solve(M[i], g[i, :, None])[:, 0]
                except np.linalg.LinAlgError:
                    pass
        # predicted decrease of |f|^2 on the linear model: p^T (lam D^2 p - g)
        predicted = _dot(p, damping * p - g)
        stop = ((abs(g) <= LM_GTOL).all(axis=1)
                | (predicted <= k * EPS * cost)
                | (np.sqrt(_dot(p, p)) <= LM_XTOL * (LM_XTOL + np.sqrt(_dot(xr, xr))))
                | (evals >= max_nfev))
        if stop.any():
            x[rows[stop]], nfev[rows[stop]] = xr[stop], evals
            keep = ~stop
            rows, xr, f, J, p = rows[keep], xr[keep], f[keep], J[keep], p[keep]
            d2, lam, nu, cost, predicted = (d2[keep], lam[keep], nu[keep], cost[keep],
                                            predicted[keep])
            if not rows.size:
                break
        x_new = xr + p
        f_new, J_new = fun(x_new, rows)
        evals += 1
        cost_new = _dot(f_new, f_new)
        good = cost_new < cost  # False for a non-finite cost
        every = good.all()  # the usual iteration: every row takes its step
        rho = (cost - cost_new) / predicted
        if not every:
            rho = np.where(good, rho, 0.0)
        shrunk = lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        if every:
            lam, nu = shrunk, np.full(len(rows), 2.0)
            xr, f, J, cost = x_new, f_new, J_new, cost_new
        else:
            lam = np.where(good, shrunk, lam * nu)
            nu = np.where(good, 2.0, 2.0 * nu)
            xr = np.where(good[:, None], x_new, xr)
            f = np.where(good[:, None], f_new, f)
            J = np.where(good[:, None, None], J_new, J)
            cost = np.where(good, cost_new, cost)
    return RowSolution(x, nfev)
