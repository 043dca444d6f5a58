"""Osculating conics and quadrics, affine curvature, sextactic points.

The planar theory works on curve germs y = h(x) in a tangent frame (the
curve touches the x-axis at the origin and curves upward); the ambient
theory constructs the osculating quadric of a hypersurface germ along a
planar section in the normalized chart where the section conic is the
parabola x_n = x_1^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import GraphGerm, PlanarGerm
from .errors import (
    ConvexityViolationError,
    DegenerateDataError,
    DomainError,
    FrameNormalizationError,
    IndistinguishableError,
    PreconditionError,
    PrecisionError,
    SamplePlanError,
)
from .jets import (
    JET_ORDER,
    MPoly,
    Taylor1D,
    fit_power_law,
    graph_jet_from_parametric,
    taylor_from_derivatives,
)
from .solvers import EPS, _dot, find_root

QUINTIC_PROBE = 0.04  # fifth_order_gap: unit-chart abscissa of the samples


# ---------------------------------------------------------------------------
# Quadric hypersurfaces as normalized homogeneous quadratic forms
# ---------------------------------------------------------------------------

class ConicQuadric:
    """Quadric in R^d stored as a symmetric matrix on (x, 1) coordinates.

    Normalized to unit Frobenius norm with the first nonzero entry of the
    row-major upper triangle positive, so equal quadrics have equal
    matrices.
    """

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError("quadric matrix must be square")
        M = 0.5 * (M + M.T)
        norm = np.linalg.norm(M)
        if norm == 0.0:
            raise DegenerateDataError("zero quadric")
        M = M / norm
        iu = np.triu_indices(M.shape[0])
        flat = M[iu]
        nz = np.nonzero(np.abs(flat) > 1e-12)[0]
        if len(nz) and flat[nz[0]] < 0.0:
            M = -M
        self.matrix = M

    @property
    def ambient_dim(self):
        return self.matrix.shape[0] - 1

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        xh = np.concatenate([x, [1.0]]) if x.ndim == 1 else np.concatenate(
            [x, np.ones((len(x), 1))], axis=1)
        if xh.ndim == 1:
            return float(xh @ self.matrix @ xh)
        return np.einsum("ki,ij,kj->k", xh, self.matrix, xh)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        xh = np.concatenate([x, [1.0]])
        return 2.0 * (self.matrix @ xh)[:-1]

    def unit_normal(self, x):
        """Unit normal at a point of the quadric, oriented downward (last
        component not positive)."""
        g = self.gradient(x)
        n = g / np.linalg.norm(g)
        if n[-1] > 0.0:
            n = -n
        return n

    def pullback(self, M):
        """Quadric of the preimage under the homogeneous point map M."""
        M = np.asarray(M, dtype=float)
        return ConicQuadric(M.T @ self.matrix @ M)

    def transform(self, M):
        """Quadric of the image under the homogeneous point map M."""
        return self.pullback(np.linalg.inv(np.asarray(M, dtype=float)))

    def restrict_to_plane(self, keep):
        """Section by the coordinate plane spanned by the kept variables."""
        idx = list(keep) + [self.ambient_dim]
        return ConicQuadric(self.matrix[np.ix_(idx, idx)])

    def distance_to(self, other):
        return float(np.linalg.norm(self.matrix - other.matrix))


def conic_from_graph_coefficients(a, b, c):
    """Conic a x^2 + b xy + c y^2 - y = 0 (through 0, tangent to x-axis)."""
    M = np.array([[a, b / 2.0, 0.0],
                  [b / 2.0, c, -0.5],
                  [0.0, -0.5, 0.0]])
    return ConicQuadric(M)


class ConicGraphBranch:
    """Branch y = h(x) of a conic through the origin tangent to the x-axis.

    Evaluation is the stable closed-form quadratic solve.  The first two
    derivatives are closed forms from implicit differentiation; higher
    ones come from truncated-Taylor Newton on the implicit equation
    (``jet``), so none of them carries differencing noise.
    """

    def __init__(self, conic: ConicQuadric):
        if conic.ambient_dim != 2:
            raise DomainError("graph branch is defined for planar conics only")
        M = conic.matrix
        if abs(M[2, 2]) > 1e-12:
            raise DomainError("conic does not pass through the origin")
        if abs(M[0, 2]) > 1e-12:
            raise DomainError("conic is not tangent to the x-axis at the origin")
        self.axx = M[0, 0]
        self.axy = M[0, 1]
        self.ayy = M[1, 1]
        self.by = M[1, 2]
        if abs(self.by) < 1e-14:
            raise DegenerateDataError("conic is singular at the origin")
        self.conic = conic
        self.radius = self._domain_radius()

    def _domain_radius(self):
        # 0.9 times the largest interval |x| < r where the branch is real:
        # D(x) = (axy x + by)^2 - ayy axx x^2 has D(0) = by^2 > 0 and a quarter
        # discriminant ayy axx by^2, and its root of least magnitude is by^2 / q,
        # q = -(b + sign(b) sqrt(ayy axx) |by|), b = axy by (none if q = 0)
        s, b = self.ayy * self.axx, self.axy * self.by
        q = -(b + math.copysign(math.sqrt(s) * abs(self.by), b)) if s >= 0.0 else 0.0
        radius = abs(self.by * self.by / q) if q != 0.0 else math.inf
        return 0.9 * min(radius, 1e6)

    def h(self, x):
        x = np.asarray(x, dtype=float)
        # ayy y^2 + 2(axy x + by) y + axx x^2 = 0, branch with y(0) = 0
        p = self.axy * x + self.by
        disc = p * p - self.ayy * self.axx * x * x
        root = np.sign(self.by) * np.sqrt(disc)
        return -self.axx * x * x / (p + root)

    def jet(self, x, order=5):
        """[h, h', ..., h^(order)] at x by implicit Taylor Newton."""
        xj = Taylor1D.variable(float(x), order)
        y = Taylor1D.constant(float(self.h(np.asarray(x))), order)
        for _ in range(order + 2):
            F = (self.ayy * y * y + (xj * self.axy + self.by) * y * 2.0
                 + self.axx * xj * xj)
            Fy = y * (2.0 * self.ayy) + (xj * self.axy + self.by) * 2.0
            y = y - F / Fy
        return y.derivative_values()

    def derivative(self, x, order=1):
        """h^(order) at x; orders 1 and 2 by implicit differentiation of
        ayy y^2 + 2(axy x + by) y + axx x^2 = 0, higher ones from ``jet``."""
        if order not in (1, 2):
            return self.jet(x, order)[order]
        x = np.asarray(x, dtype=float)
        y = self.h(x)
        D = self.ayy * y + self.axy * x + self.by
        d1 = -(self.axx * x + self.axy * y) / D
        if order == 1:
            return d1
        return -(self.axx + 2.0 * self.axy * d1 + self.ayy * d1 * d1) / D


# ---------------------------------------------------------------------------
# Partner-point solvers shared with the projectivity module
# ---------------------------------------------------------------------------

def _curve_range(curve):
    r = getattr(curve, "radius", None)
    return 0.95 * r if r else 0.75


def slope_point(curve, t):
    """The x with h'(x) = t (h' is strictly increasing near the origin),
    for one t or for each t of an array in one row solve."""
    X = _curve_range(curve)
    t = np.asarray(t, dtype=float)
    x = find_root(lambda x, i: (curve.derivative(x, 1) - t.flat[i], curve.derivative(x, 2)),
                  np.full(t.size, -X), X)
    return x.reshape(t.shape)[()]


def height_partner(curve, x0):
    """The point on the opposite branch with the same height as x0, for
    one x0 or for each x0 of an array in one row solve."""
    X = _curve_range(curve)
    x0 = np.asarray(x0, dtype=float)
    start = x0.reshape(-1)
    target = curve.h(start)
    # a row at x0 = 0 starts on its root: f(lo = 0) = h(0) - h(0) = 0
    right = start > 0.0
    x = find_root(lambda x, i: (curve.h(x) - target[i], curve.derivative(x, 1)),
                  np.where(right, -X, 0.0), np.where(right, 0.0, X), x0=-start)
    return x.reshape(x0.shape)[()]


def height_match(curve_a, curve_b, x):
    """The zeta ~ x with h_a(zeta) = h_b(x) (same branch as x)."""
    x = float(x)
    if x == 0.0:
        return 0.0
    target = float(curve_b.h(np.asarray(x)))
    X = _curve_range(curve_a)
    lo, hi = (0.0, X) if x > 0 else (-X, 0.0)
    return find_root(lambda s: (curve_a.h(s) - target, curve_a.derivative(s, 1)), lo, hi, x0=x)


# ---------------------------------------------------------------------------
# Osculating conic, affine curvature, sextactic points
# ---------------------------------------------------------------------------

def _in_tangent_frame(xs, ys):
    """(k, T, N): graph coefficients k of a parametric jet through the
    origin in its frame of unit tangent T and N = T turned by +90 degrees."""
    speed = math.hypot(xs.c[1], ys.c[1])
    T = np.array([xs.c[1], ys.c[1]]) / speed
    N = np.array([-T[1], T[0]])
    xloc = xs * T[0] + ys * T[1]
    yloc = xs * N[0] + ys * N[1]
    return graph_jet_from_parametric(xloc, yloc), T, N


def tangent_frame_jets(curve, x):
    """Graph coefficients (to JET_ORDER) in the tangent frame at (x, h(x)).

    Returns k with y_loc = sum_{m >= 2} k[m] x_loc^m; the local frame is
    (T, N) with T the unit tangent and N the inward (upward) normal, so
    k[2] > 0 for convex arcs.
    """
    jet = curve.jet(np.asarray(x), JET_ORDER) if hasattr(curve, "jet") else None
    if jet is None:
        raise DomainError("curve object does not expose jets")
    # parametric jets of t -> (t, h(x + t)) re-expressed in the tangent frame
    xs = Taylor1D.variable(0.0, JET_ORDER)
    ys = taylor_from_derivatives(jet)
    ys.c[0] = 0.0
    return _in_tangent_frame(xs, ys)[0]


def osculating_conic(curve, at_x=0.0):
    """The unique conic with the same 4-jet as the curve at the point.

    Returned in the coordinates of the tangent frame at the point (for
    at_x = 0 on a germ this is the germ frame itself).
    """
    if at_x == 0.0 and isinstance(curve, PlanarGerm):
        k = curve.coeffs
        k2, k3, k4 = k[2], (k[3] if len(k) > 3 else 0.0), (k[4] if len(k) > 4 else 0.0)
    else:
        kk = tangent_frame_jets(curve, at_x)
        k2, k3, k4 = kk[2], kk[3], kk[4]
    if k2 <= 1e-12:
        raise DegenerateDataError("osculating conic needs positive curvature")
    a = k2
    b = k3 / k2
    c = (k4 - k3 * k3 / k2) / (k2 * k2)
    return conic_from_graph_coefficients(a, b, c)


def conic_quintic_coefficient(a, b, c):
    """x^5 coefficient of the graph branch of a x^2 + b xy + c y^2 - y = 0."""
    return a * b ** 3 + 3.0 * a * a * b * c


def fifth_order_gap(curve, conic: ConicQuadric):
    """Coefficient c of the x^5 discrepancy between curve and conic.

    The gap is reported in the unit-curvature chart h ~ x^2/2 (under the
    chart zoom h(x) -> h(lambda x)/lambda^2 it transforms as
    c -> lambda^3 c).  The value comes from the exact 5-jets; sampled
    discrepancies at two scales cross-check it by Richardson
    extrapolation (at QUINTIC_PROBE and its half), and a disagreement
    beyond 5 percent raises PrecisionError.
    """
    branch = ConicGraphBranch(conic)
    jet_curve = curve.jet(np.asarray(0.0), 5)
    jet_conic = branch.jet(0.0, 5)
    scale = max(1.0, np.max(np.abs(jet_curve[:5])))
    if np.max(np.abs(jet_curve[:5] - jet_conic[:5])) > 1e-7 * scale:
        raise PreconditionError("conic does not match the curve 4-jet")
    lam = jet_curve[2]  # curvature = homothety ratio to the unit chart
    gap = (jet_curve[5] - jet_conic[5]) / math.factorial(5) / lam ** 4

    def delta_normalized(x):
        x_raw = x / lam
        return lam * (float(curve.h(np.asarray(x_raw)))
                      - float(branch.h(np.asarray(x_raw))))

    d1 = delta_normalized(QUINTIC_PROBE)
    d2 = delta_normalized(QUINTIC_PROBE / 2.0)
    if max(abs(d1), abs(d2)) < 100.0 * EPS and abs(gap) < 1e3 * EPS:
        return 0.0
    c1 = d1 / QUINTIC_PROBE ** 5
    c2 = d2 / (QUINTIC_PROBE / 2.0) ** 5
    extrapolated = 2.0 * c2 - c1
    # the sampled estimates carry an O(probe^2) sixth-order bias; compare
    # them to the jet value at the scale of their own spread
    budget = 0.05 * max(abs(gap), 2.0 * abs(c1 - c2), 1e3 * EPS / QUINTIC_PROBE ** 5)
    if abs(extrapolated - gap) > budget:
        raise PrecisionError(
            f"quintic gap cross-check failed: jets {gap:.6e}, "
            f"samples {c1:.6e}/{c2:.6e}")
    return float(gap)


def affine_curvature_from_jet(d2, d3, d4, d5):
    """Affine curvature and its affine-arclength derivative from y-jets.

    For a graph y(x) with derivatives d2..d5 at the point:
      k      = (3 d2 d4 - 5 d3^2) / (9 d2^(8/3)),
      dk/ds  = (9 d2^2 d5 - 45 d2 d3 d4 + 40 d3^3) / (27 d2^4).
    Conics have dk/ds identically zero.
    """
    if d2 <= 0.0:
        raise DomainError("affine curvature needs positive Euclidean curvature")
    k = (3.0 * d2 * d4 - 5.0 * d3 * d3) / (9.0 * d2 ** (8.0 / 3.0))
    dk = (9.0 * d2 * d2 * d5 - 45.0 * d2 * d3 * d4 + 40.0 * d3 ** 3) / (27.0 * d2 ** 4)
    return k, dk


def affine_curvature(curve, x=0.0):
    """Affine curvature and its derivative along the curve at x.

    Jets are taken in the tangent frame at the point, so the result is
    invariant under rotating the ambient coordinates.
    """
    k = tangent_frame_jets(curve, x)
    d2, d3, d4, d5 = (2.0 * k[2], 6.0 * k[3], 24.0 * k[4], 120.0 * k[5])
    return affine_curvature_from_jet(d2, d3, d4, d5)


def is_sextactic(curve, tol=1e-9):
    """Whether the osculating conic at x = 0 has contact above order five.

    Returns (flag, gap) with the gap measured in the unit-curvature
    chart of the tangent frame at the point.
    """
    if isinstance(curve, PlanarGerm):
        local = curve
    else:
        k = tangent_frame_jets(curve, 0.0)
        local = PlanarGerm(k[:6], radius=_curve_range(curve))
    conic = osculating_conic(local)
    gap = fifth_order_gap(local, conic)
    return bool(abs(gap) <= tol), gap


def germ_at(body, theta, with_frame=False):
    """Tangent-frame germ of a 2D body boundary at boundary parameter theta.

    The body must expose ``position_jet`` (JET_ORDER jets); the germ opens
    toward the interior (positive curvature coefficient).  With
    ``with_frame`` the base point and the (tangent, inward normal) frame
    are returned too.
    """
    xs, ys = body.position_jet(float(theta))
    x0, y0 = xs.c[0], ys.c[0]
    xs = xs - x0
    ys = ys - y0
    k, T, N = _in_tangent_frame(xs, ys)
    if k[2] < 0.0:
        k = -k
        N = -N
    germ = PlanarGerm(k, radius=0.5 * body.bounding_radius())
    if with_frame:
        return germ, np.array([x0, y0]), T, N
    return germ


def sextactic_scan(body, thetas, tol=1e-9):
    """Affine-curvature derivative and sextactic flags along a 2D boundary.

    Returns (dk_values, flags); sign changes of the derivative bracket
    the sextactic points.
    """
    dks = []
    flags = []
    for theta in np.asarray(thetas, dtype=float):
        germ = germ_at(body, theta)
        _, dk = affine_curvature(germ, 0.0)
        dks.append(dk)
        flags.append(abs(dk) <= tol)
    return np.asarray(dks), np.asarray(flags)


# ---------------------------------------------------------------------------
# Planar section frames and conic fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarSectionFrame:
    """Plane through a base point with orthonormal in-plane axes."""

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float)
        a = np.asarray(self.e1, dtype=float)
        b = np.asarray(self.e2, dtype=float)
        if abs(np.dot(a, a) - 1.0) > 1e-10 or abs(np.dot(b, b) - 1.0) > 1e-10 \
                or abs(np.dot(a, b)) > 1e-10:
            raise DomainError("section frame must be orthonormal")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "e1", a)
        object.__setattr__(self, "e2", b)


def fit_conic_2d(points):
    """Homogeneous least-squares conic fit; returns (quadric, rms residual).

    Points are centered and scaled to unit size first, so the residual is
    effectively normalized by the section diameter.
    """
    P = np.asarray(points, dtype=float)
    if len(P) < 6:
        raise SamplePlanError("conic fitting needs at least 6 points")
    center = P.mean(axis=0)
    scale = float(np.max(np.linalg.norm(P - center, axis=1)))
    if scale == 0.0:
        raise DegenerateDataError("all section points coincide")
    Q = (P - center) / scale
    x, y = Q[:, 0], Q[:, 1]
    A = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    coeffs = vt[-1]
    res = float(np.sqrt(np.mean((A @ coeffs) ** 2)))
    axx, axy, ayy, bx, by, c0 = coeffs
    M_local = np.array([[axx, axy / 2.0, bx / 2.0],
                        [axy / 2.0, ayy, by / 2.0],
                        [bx / 2.0, by / 2.0, c0]])
    # undo the normalization: x_local = (x - cx)/s
    T = np.array([[1.0 / scale, 0.0, -center[0] / scale],
                  [0.0, 1.0 / scale, -center[1] / scale],
                  [0.0, 0.0, 1.0]])
    return ConicQuadric(T.T @ M_local @ T), res


def section_points(body, frame: PlanarSectionFrame, n_samples):
    """Points of the planar section sampled by rays inside the plane."""
    o = frame.origin
    f_o = float(body.implicit(o))
    if f_o >= 0.0:  # cast the rays from an interior point of the section instead
        if body.dim == 2:
            o = body.interior_point()
        elif body.dim == 3:
            # the plane <x, n> = <o, n> meets the segment between the support
            # points of -n and n, which lies inside the body, at that height
            n = np.cross(frame.e1, frame.e2)
            lo, hi = body.gauss_inverse(-n), body.gauss_inverse(n)
            t = float((o - lo) @ n) / float((hi - lo) @ n)
            if not 0.0 < t < 1.0:
                raise DomainError("plane does not meet the body")
            o = lo + t * (hi - lo)
        else:
            raise DomainError("section frame origin must lie inside the body")
        f_o = float(body.implicit(o))
    cs = np.array([(math.cos(phi), math.sin(phi))
                   for phi in np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)])
    w = cs[:, :1] * frame.e1 + cs[:, 1:] * frame.e2
    x = o + body._exit(np.broadcast_to(o, w.shape), w, f_o)[:, None] * w - frame.origin
    return np.stack([_dot(x, frame.e1), _dot(x, frame.e2)], axis=-1)


def planar_section_conic_residual(body, frame: PlanarSectionFrame, n_samples=64):
    """RMS residual of the best conic through a planar section of the body."""
    pts = section_points(body, frame, n_samples)
    _, res = fit_conic_2d(pts)
    return res


# ---------------------------------------------------------------------------
# Osculating quadric along a planar section (normalized chart)
# ---------------------------------------------------------------------------

def osculating_quadric_along_curve(germ: GraphGerm):
    """Osculating quadric of a hypersurface germ along its x_1-section.

    The germ must be in the normalized chart: x_n = h(x_1, .., x_{n-1})
    with h = x_1^2 + x_1 sum c_j x_j + <A xhat, xhat> + higher terms and
    no x_1^3 term (the section is then 4-jet tangent to the parabola
    x_n = x_1^2).  The quadric is
        x_1^2 + x_1 sum c_j x_j + <A xhat, xhat> - x_n (1 + sum d_j x_j) = 0
    with d_j = minus the x_1^2 x_j coefficient of h; it shares the
    tangent plane and second fundamental form at the origin and matches
    the 2-jet of the normal field along the section.
    """
    nv = germ.nvars
    if nv < 1:
        raise DomainError("germ must have at least one tangential variable")
    e1 = tuple([2] + [0] * (nv - 1))
    if abs(germ.coeff(e1) - 1.0) > 1e-10:
        raise FrameNormalizationError(
            "normalized chart requires a unit x_1^2 coefficient")
    e3 = tuple([3] + [0] * (nv - 1))
    if abs(germ.coeff(e3)) > 1e-10:
        raise FrameNormalizationError(
            "germ has an x_1^3 term; its section is not 4-jet tangent "
            "to the parabola")
    n = germ.dim
    c = np.zeros(nv)            # coefficients of x_1 x_j, j = 2..n-1
    d = np.zeros(nv)            # denominator coefficients, d_j = -s_j
    A = np.zeros((nv - 1, nv - 1))
    for j in range(1, nv):
        alpha = [0] * nv
        alpha[0], alpha[j] = 1, 1
        c[j] = germ.coeff(tuple(alpha))
        alpha[0] = 2
        d[j] = -germ.coeff(tuple(alpha))
    for i in range(1, nv):
        for j in range(i, nv):
            alpha = [0] * nv
            alpha[i] += 1
            alpha[j] += 1
            coef = germ.coeff(tuple(alpha))
            A[i - 1, j - 1] = coef if i == j else coef / 2.0
            A[j - 1, i - 1] = A[i - 1, j - 1]
    if nv > 1 and np.min(np.linalg.eigvalsh(A)) <= 1e-12:
        raise ConvexityViolationError(
            "transverse quadratic form is degenerate; the real osculating "
            "quadric construction breaks down")
    M = np.zeros((n + 1, n + 1))
    M[0, 0] = 1.0
    for j in range(1, nv):
        M[0, j] = M[j, 0] = c[j] / 2.0
        M[n - 1, j] = M[j, n - 1] = -d[j] / 2.0
    M[1:nv, 1:nv] += A
    M[n - 1, n] = M[n, n - 1] = -0.5
    return ConicQuadric(M)


def quadric_graph_germ(quadric: ConicQuadric, order=5, radius=0.5):
    """Graph germ x_n = h(x') of a quadric in the normalized chart.

    Inverts x_1^2 + x_1 <c, xhat> + <A xhat, xhat> = x_n (1 + <d, xhat>)
    as a polynomial truncated at the given total degree.
    """
    n = quadric.ambient_dim
    nv = n - 1
    if abs(quadric.matrix[n - 1, n]) < 1e-14:
        raise FrameNormalizationError("quadric has no linear x_n term")
    M = quadric.matrix / (-2.0 * quadric.matrix[n - 1, n])
    if abs(M[n - 1, n - 1]) > 1e-12 or abs(M[n, n]) > 1e-12:
        raise FrameNormalizationError(
            "quadric is not in graph-solvable normalized form")
    numer_terms = {}
    denom_terms = {tuple([0] * nv): 1.0}
    for i in range(nv):
        for j in range(i, nv):
            coef = M[i, j] if i == j else 2.0 * M[i, j]
            if coef != 0.0:
                alpha = [0] * nv
                alpha[i] += 1
                alpha[j] += 1
                numer_terms[tuple(alpha)] = coef
        lin = 2.0 * M[i, n]
        if lin != 0.0:
            raise FrameNormalizationError("quadric has in-plane linear terms")
    for j in range(nv):
        dj = -2.0 * M[n - 1, j]
        if j == 0:
            if abs(dj) > 1e-12:
                raise FrameNormalizationError("quadric denominator involves x_1")
            continue
        if dj != 0.0:
            alpha = [0] * nv
            alpha[j] = 1
            denom_terms[tuple(alpha)] = dj
    numer = MPoly(nv, numer_terms, max_degree=order)
    L = MPoly(nv, {a: v for a, v in denom_terms.items() if sum(a) > 0},
              max_degree=order)
    inv = MPoly(nv, {tuple([0] * nv): 1.0}, max_degree=order)
    power = MPoly(nv, {tuple([0] * nv): 1.0}, max_degree=order)
    for k in range(1, order + 1):
        power = power * L
        if not power.terms:
            break
        inv = inv + power.scale((-1.0) ** k)
    h = numer * inv
    return GraphGerm(nv, h.terms, radius=radius, require_convex=False)


@dataclass(frozen=True)
class NormalGapFit:
    """Power-law fits of the normal-field gap along the section."""

    exponent: float
    coefficient: float
    angle_exponent: float
    angle_coefficient: float


def normal_field_gap(germ: GraphGerm, quadric: ConicQuadric, grid):
    """Decay of the normal-field gap between germ and quadric sections.

    For each x_1 on the grid the germ section point zeta with matching
    height is found, and both the full normal-vector gap
    |n_quadric(x_1) - n_germ(zeta)| and the in-plane azimuth gap
    psi_germ(zeta) - psi_quadric(x_1) are fitted as powers of x_1.
    """
    grid = np.asarray(grid, dtype=float)
    section = germ.section_along_axis(0)
    parabola = PlanarGerm([0.0, 0.0, 1.0], radius=getattr(section, "radius", 1.0))
    nv = germ.nvars
    vec_gaps = np.zeros(len(grid))
    ang_gaps = np.zeros(len(grid))
    for i, x1 in enumerate(grid):
        zeta = height_match(section, parabola, x1)
        p_gamma = np.zeros(nv + 1)
        p_gamma[0] = x1
        p_gamma[-1] = x1 * x1
        n_gamma = quadric.unit_normal(p_gamma)
        x_beta = np.zeros(nv)
        x_beta[0] = zeta
        n_beta = germ.graph_normal(x_beta)
        vec_gaps[i] = float(np.linalg.norm(n_gamma - n_beta))
        psi_gamma = math.atan2(n_gamma[-1], n_gamma[0])
        psi_beta = math.atan2(n_beta[-1], n_beta[0])
        ang_gaps[i] = psi_beta - psi_gamma
    k_vec, c_vec = fit_power_law(grid, vec_gaps)
    try:
        k_ang, c_ang = fit_power_law(grid, ang_gaps)
    except IndistinguishableError:
        k_ang, c_ang = float("nan"), 0.0
    return NormalGapFit(k_vec, c_vec, k_ang, c_ang)
