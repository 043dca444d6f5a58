"""Truncated Taylor series arithmetic, jet extraction, and asymptotic fits.

Everything here is exact polynomial algebra on truncated coefficient
arrays; no symbolic dependencies.  A ``Taylor1D`` holds coefficients of
sum_k c[k] t^k around a base point, so c[k] = f^(k)(x0)/k!.  Every
operation is a closed recurrence on the coefficients, not an iteration
to convergence: series reversion is Lagrange inversion (one reciprocal and n - 1
truncated products at order n), and sin and cos of a series come as a
pair from one recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndistinguishableError, PrecisionError
from .solvers import EPS

JET_ORDER = 5  # truncation order of boundary and tangent-frame jets
FIT_FLOOR = 1e3 * EPS  # fit_power_law: least |y| fitted (round-off guard)
FIT_MIN_POINTS = 3  # fit_power_law: fewest points fitted


class Taylor1D:
    """Univariate truncated Taylor series with dense float coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, value, order):
        """Series of t |-> value + t."""
        c = np.zeros(order + 1)
        c[0] = value
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def value(self):
        return float(self.c[0])

    def derivative_values(self):
        """Return [f, f', f'', ...] up to the truncation order."""
        k = np.arange(len(self.c))
        return self.c * np.array([math.factorial(int(j)) for j in k])

    def _coerce(self, other):
        if isinstance(other, Taylor1D):
            return other
        return Taylor1D.constant(float(other), self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Taylor1D(self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Taylor1D(-self.c)

    def __sub__(self, other):
        other = self._coerce(other)
        return Taylor1D(self.c - other.c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor1D):
            return Taylor1D(self.c * float(other))
        n = len(self.c)
        return Taylor1D(np.convolve(self.c, other.c)[:n])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Taylor1D):
            return Taylor1D(self.c / float(other))
        return self * other.recip()

    def __rtruediv__(self, other):
        return self.recip() * float(other)

    def recip(self):
        c = self.c
        if c[0] == 0.0:
            raise ZeroDivisionError("reciprocal of series with zero constant term")
        n = len(c)
        r = np.zeros(n)
        r[0] = 1.0 / c[0]
        for k in range(1, n):
            r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
        return Taylor1D(r)

    def sqrt(self):
        c = self.c
        if c[0] <= 0.0:
            raise ValueError("sqrt requires positive constant term")
        n = len(c)
        s = np.zeros(n)
        s[0] = math.sqrt(c[0])
        for k in range(1, n):
            acc = c[k] - np.dot(s[1:k], s[k - 1 : 0 : -1])
            s[k] = acc / (2.0 * s[0])
        return Taylor1D(s)

    def diff(self):
        """Series of the derivative, one order shorter (padded with 0)."""
        n = len(self.c)
        d = np.zeros(n)
        if n > 1:
            d[: n - 1] = self.c[1:] * np.arange(1, n)
        return Taylor1D(d)

    def exp(self):
        u = self.c
        n = len(u)
        e = np.zeros(n)
        e[0] = math.exp(u[0])
        ju = np.arange(1, n) * u[1:]  # j u[j], j = 1..n-1
        for k in range(n - 1):
            e[k + 1] = np.dot(ju[: k + 1], e[k::-1]) / (k + 1)
        return Taylor1D(e)

    def log(self):
        u = self.c
        if u[0] <= 0.0:
            raise ValueError("log requires positive constant term")
        d = (self.diff() * self.recip()).c
        out = np.zeros(len(u))
        out[0] = math.log(u[0])
        out[1:] = d[:-1] / np.arange(1, len(u))
        return Taylor1D(out)

    def pow(self, alpha):
        """Real power of a series with positive constant term."""
        return (self.log() * float(alpha)).exp()

    def _sin_cos_nilpotent(self):
        # self must have zero constant term; returns (sin self, cos self)
        v = self.c
        n = len(v)
        s = np.zeros(n)
        co = np.zeros(n)
        co[0] = 1.0
        jv = np.arange(1, n) * v[1:]  # j v[j], j = 1..n-1
        for k in range(n - 1):
            s[k + 1] = np.dot(jv[: k + 1], co[k::-1]) / (k + 1)
            co[k + 1] = -np.dot(jv[: k + 1], s[k::-1]) / (k + 1)
        return Taylor1D(s), Taylor1D(co)

    def sin_cos(self):
        """(sin self, cos self) from one recurrence: with a = c[0] and v the
        rest, sin(a + v) = sin v cos a + cos v sin a and cos(a + v) =
        cos v cos a - sin v sin a, where sin v and cos v of the series v
        without constant term come together from (sin v)' = v' cos v and
        (cos v)' = -v' sin v."""
        a0 = self.c[0]
        v = Taylor1D(np.concatenate(([0.0], self.c[1:])))
        sv, cv = v._sin_cos_nilpotent()
        ca, sa = math.cos(a0), math.sin(a0)
        return sv * ca + cv * sa, cv * ca - sv * sa

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def compose(self, inner):
        """self(inner(t)); inner must have zero constant term."""
        if abs(inner.c[0]) > 0.0:
            raise ValueError("composition requires inner series with zero constant")
        out = Taylor1D.constant(self.c[-1], self.order)
        for k in range(len(self.c) - 2, -1, -1):
            out = out * inner + self.c[k]
        return out

    def invert(self):
        """Compositional inverse; requires c[0] = 0 and c[1] != 0.

        Lagrange inversion: with h(t) = t / f(t) (one reciprocal of
        f(t) / t), the inverse series has b_1 = h_0 and
        b_k = [t^(k-1)] h^k / k for k >= 2, so order n takes one
        reciprocal and n - 1 truncated products.
        """
        c = self.c
        if c[0] != 0.0:
            raise ValueError("inversion requires zero constant term")
        if c[1] == 0.0:
            raise ValueError("inversion requires non-vanishing linear term")
        h = Taylor1D(np.append(c[1:], 0.0)).recip()
        b = np.zeros(len(c))
        b[1] = h.c[0]
        hk = h
        for k in range(2, len(c)):
            hk = hk * h
            b[k] = hk.c[k - 1] / k
        return Taylor1D(b)


def taylor_from_derivatives(derivs):
    """Coefficients c[k] = f^(k)/k! from a list of derivative values."""
    derivs = np.asarray(derivs, dtype=float)
    fact = np.array([math.factorial(k) for k in range(len(derivs))], dtype=float)
    return Taylor1D(derivs / fact)


def graph_jet_from_parametric(x_series, y_series):
    """Graph coefficients of y as a function of x from parametric jets.

    ``x_series`` must vanish at t=0 with nonzero speed; ``y_series`` must
    vanish to first order (tangent frame).  Returns the coefficient array
    ``k`` with y = sum_{m>=2} k[m] x^m, same truncation order.
    """
    t_of_x = x_series.invert()
    h = y_series.compose(t_of_x)
    k = h.c.copy()
    k[:2] = 0.0
    return k


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials (total-degree truncated)
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse polynomial in several variables, truncated by total degree.

    Terms are stored as {exponent tuple: coefficient}.  Only the handful
    of operations the germ machinery needs are provided.
    """

    def __init__(self, nvars, terms=None, max_degree=5):
        self.nvars = int(nvars)
        self.max_degree = int(max_degree)
        self.terms = {}
        if terms:
            for alpha, coef in terms.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != self.nvars:
                    raise ValueError("exponent tuple of wrong length")
                if sum(alpha) <= self.max_degree and coef != 0.0:
                    self.terms[alpha] = self.terms.get(alpha, 0.0) + float(coef)

    def copy(self):
        return MPoly(self.nvars, dict(self.terms), self.max_degree)

    def coeff(self, alpha):
        return self.terms.get(tuple(alpha), 0.0)

    def __add__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return MPoly(self.nvars, out, max(self.max_degree, other.max_degree))

    def __sub__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) - c
        return MPoly(self.nvars, out, max(self.max_degree, other.max_degree))

    def scale(self, s):
        return MPoly(self.nvars, {a: c * s for a, c in self.terms.items()},
                     self.max_degree)

    def __mul__(self, other):
        out = {}
        md = max(self.max_degree, other.max_degree)
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                g = tuple(i + j for i, j in zip(a, b))
                if sum(g) <= md:
                    out[g] = out.get(g, 0.0) + ca * cb
        return MPoly(self.nvars, out, md)

    def partial(self, i):
        out = {}
        for a, c in self.terms.items():
            if a[i] > 0:
                b = list(a)
                b[i] -= 1
                out[tuple(b)] = out.get(tuple(b), 0.0) + c * a[i]
        return MPoly(self.nvars, out, self.max_degree)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for a, c in self.terms.items():
            term = c
            for xi, ai in zip(x, a):
                if ai:
                    term *= xi ** ai
            total += term
        return total

    def restrict_to_axis(self, i=0):
        """1D coefficient array of the restriction to the i-th axis."""
        deg = self.max_degree
        out = np.zeros(deg + 1)
        for a, c in self.terms.items():
            if all(aj == 0 for j, aj in enumerate(a) if j != i):
                out[a[i]] += c
        return out


# ---------------------------------------------------------------------------
# Finite-difference stencils
# ---------------------------------------------------------------------------

def stencil_weights(nodes, order):
    """Weights w with sum_j w_j f(x_j) ~ f^(order)(0) for given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    if m <= order:
        raise ValueError("need more nodes than the derivative order")
    V = np.vander(nodes, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(V, rhs)


# ---------------------------------------------------------------------------
# Power-law fits  log|y| = log|C| + k log t
# ---------------------------------------------------------------------------

def fit_power_law(ts, ys):
    """Least-squares exponent/coefficient of a decay |y| ~ |C| t^k on a grid.

    Only the leading run of the grid is fitted: from the largest t down,
    the points with |y| at least FIT_FLOOR (round-off guard), the sign of
    the first point and |y| below that of the previous point.  The first
    point that breaks the run has reached the noise floor of whatever
    computed y, so it and every smaller t are dropped, and a run shorter
    than FIT_MIN_POINTS raises PrecisionError.  If every point sits below
    100 machine epsilons the two maps are treated as identical and
    IndistinguishableError is raised.
    """
    order = np.argsort(-np.asarray(ts, dtype=float))
    t = np.asarray(ts, dtype=float)[order]
    y = np.asarray(ys, dtype=float)[order]
    if np.all(np.abs(y) < 100.0 * EPS):
        raise IndistinguishableError(
            "difference below 100 eps on the whole grid; maps indistinguishable")
    ay = np.abs(y)
    run = ((ay >= FIT_FLOOR) & (np.sign(y) == np.sign(y[0]))
           & np.concatenate([[True], ay[1:] < ay[:-1]]))
    n = len(run) if run.all() else int(np.argmin(run))
    if n < FIT_MIN_POINTS:
        raise PrecisionError(
            f"only {n} leading grid points above the noise floor")
    A = np.column_stack([np.log(t[:n]), np.ones(n)])
    sol, *_ = np.linalg.lstsq(A, np.log(ay[:n]), rcond=None)
    k, logc = sol
    return float(k), float(np.sign(y[0]) * math.exp(logc))


def dyadic_grid(j_min=4, j_max=12):
    """Grid t = 2^-j, j = j_min..j_max, descending in t."""
    return 2.0 ** (-np.arange(j_min, j_max + 1, dtype=float))
