"""Smooth strictly convex bodies with high-order boundary jets.

Every body exposes an implicit function F (negative inside, zero on the
boundary), its gradient and Hessian, and a handful of geometric queries:
exterior normals, the inverse Gauss map, chords, support functions and
their Hessians, gauge Hessians and polar duals.  Closed-form paths are
provided wherever the representation allows.  Every line crossing of the
base class (chords, ``line_intersections``, ``last_intersection``) is one
ray exit, ``ConvexBody._exit``, which each body overrides with its own
structure: the quadratic formula for ellipsoids, the root of the convex
line polynomial for even superellipses, the pulled-back ray for linear
images, the normal angle on the exit arc for support bodies and the polar
angle on the swept arc for radial bodies.  Fractional superellipses deflate
the root at a boundary start from their power sum, started at the root of
its Taylor model; their interior starts and the generic PolarBody take the
base exit: one ``solvers.find_root`` on the exact bracket from the ray's
start to the padded bounding sphere.
``polar_dual`` is in closed form for every library body, so only the
polars of user-defined bodies are PolarBody.  A support body h takes its
F = h_polar - 1 from the normal-angle solve of its polar, the radial 1/h.
The Finsler Legendre law of an indicatrix is the chord transport of
normals ``_chord_normal`` of its figuratrix, the polar: in closed form
when the indicatrix is an ellipsoid.

Row forms: ``implicit``, ``implicit_grad``, ``gauss_inverse``,
``support_point``, ``support`` and ``exterior_normal`` take one vector or
an (N, d) array of rows, and so do the closed-orbit search's
``_boundary_in_direction``, ``implicit_hess`` and ``support_hess``, and
``gauge_hess`` (a polar body's support Hessian);
``chord_second_intersections`` and ``_exit`` solve N rays at once
(tangential chords flagged in a mask).
Every body writes each query once over rows, a single vector being the
one-row case: a root solve is one ``find_root`` over rows, whose callback
indexes the rows still searching, so one vector takes the kernel's scalar
path.  A row's bits do not depend on the other rows of the call: each
closed-orbit multistart is solved as if alone, each chord as if alone.

Bodies are immutable after construction and all queries are pure
functions of (body, arguments), so instances are safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryMembershipError,
    ConvergenceError,
    ConvexityViolationError,
    DegenerateChordError,
    DomainError,
    OriginNotInteriorError,
)
from .jets import JET_ORDER, MPoly, Taylor1D
from .solvers import EPS, _dot, find_root

# tolerances used by the generic solvers
TANGENCY_FRACTION = 1e-6
BOUNDARY_TOL = 1e-8
# F at a boundary point that an exit returned: the root kernel resolves its t
# to 2 eps t, t <= 2.2 R, so F there reads down to about -4.4 eps R |F'|
# (-17 to -32 eps max(1, R) on the bounce points of Superellipse(4) and its
# linear images in reflect orbits).  As a boundary start such a point moves
# the next exit by no more than that.
BOUNDARY_ROUNDING = 32 * EPS
SYMMETRY_TOL = 1e-9  # mirror_symmetric, relative to the bounding radius
# generic volume in space: Gauss-Legendre nodes in cos(polar angle), and
# twice as many equally spaced azimuths
VOLUME_NODES = 64
# the angle grid on which the planar series bodies tabulate their series: the
# convexity checks and the planar areas (the periodic trapezoid rule, exact
# for trigonometric polynomials of degree below 360)
_GRID = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)


# Row helpers (with ``solvers._dot``).  numpy's matmul takes the same BLAS
# kernel for each row of a stack as for a single vector, so these give every
# row the bits that the one-vector expression (np.dot, M @ v) gives it.

def _apply(M, v):
    """M @ v for one vector or for each row of v."""
    if v.ndim == 1:
        return M @ v
    return (M @ v[:, :, None])[:, :, 0]


def _unit(v):
    """v / |v| for one vector, or for each row of an (N, d) array."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(_dot(v, v))
    if v.ndim > 1:
        n = n[:, None]
        zero = not n.all()
    else:
        zero = n == 0.0  # a scalar: cheaper than all()
    if zero:
        raise DomainError("zero vector has no direction")
    return v / n


def _increasing_cubic_root(c1, c2, c3, c4):
    """The one real root of the increasing cubic c1 + c2 t + c3 t^2 + c4 t^3
    (or of each row's) by Cardano: s = w - p / (3 w) for s^3 + p s + q, w
    the cube root of the larger term.  Rows take ``math.cbrt`` too (numpy's
    rounds differently), so a row gets the bits of its one-cubic call."""
    A, B = c3 / c4, c2 / c4
    p = B - A * A / 3.0
    q = (2.0 / 27.0 * A * A - B / 3.0) * A + c1 / c4
    D = 0.25 * q * q + p * p * p / 27.0
    if getattr(q, "ndim", 0):
        w = -0.5 * q - np.copysign(np.sqrt(np.maximum(D, 0.0)), q)
        w = np.array([math.cbrt(r) for r in w.tolist()])
    else:
        w = math.cbrt(-0.5 * q - math.copysign(math.sqrt(max(D, 0.0)), q))
    return w - p / (3.0 * (w + (w == 0.0))) - A / 3.0  # w = 0 only where p = q = 0


def _halley_slope(g, g1, g2):
    """g1 (1 - g g2 / (2 g1^2)), kept >= g1 / 2: returned as the slope of g,
    it makes the root kernel's Newton step Halley's (at most twice the
    Newton step); g1 = 0 gives slope 0."""
    q = g1 * g1
    return g1 * np.maximum(0.5, 1.0 - 0.5 * g * g2 / (q + (q == 0.0)))


def _even_interior_start(c, x0, hi):
    """The start of an even superellipse's exit from an interior point, for
    the coefficients c_0, ..., c_m of its line polynomial P (or rows of
    them) and x0, the root of c_1 + c_2 t + c_3 t^2.  For m = 4, one Newton
    step on P from Cardano's root of (P - c_0) / t (the exit of the level set
    of the start) where it lands in (0, hi); else x0 where it lies in
    (0, hi); else, as on a ray that leaves at once near the boundary, the
    root x1 of c_0 + c_1 t + c_2 t^2 (about -c_0 / c_1 there) where
    x1 < hi / 2; else x0, for the kernel's midpoint (near the centre, where
    c_2 is small, x1 overshoots)."""
    c0, c1, c2 = c[0], c[1], c[2]
    q = c1 * c1 - 4.0 * c0 * c2
    den = c1 + (q * (q > 0.0)) ** 0.5
    x1 = -2.0 * c0 / (den + (den == 0.0))
    # choices by arithmetic masks (exact for these finite starts, and
    # cheaper than where on one vector)
    use = ((x0 <= 0.0) | (x0 >= hi)) & (x1 < 0.5 * hi)
    x0 = use * x1 + (1.0 - use) * x0
    if len(c) == 5:
        tc = _increasing_cubic_root(c1, c2, c[3], c[4])
        slope = c1 + tc * (2.0 * c2 + tc * (3.0 * c[3] + tc * 4.0 * c[4]))  # P'(tc)
        x4 = tc - c0 / (slope + (slope == 0.0))
        use = (x4 > 0.0) & (x4 < hi)
        x0 = use * x4 + (1.0 - use) * x0
    return x0


def unit_vector(angles, dim):
    """Point of S^(dim-1) from one angle (2D) or (azimuth, polar) (3D)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if dim == 2:
        return np.array([math.cos(angles[0]), math.sin(angles[0])])
    if dim == 3:
        az, pol = angles[0], angles[1]
        s = math.sin(pol)
        return np.array([math.cos(az) * s, math.sin(az) * s, math.cos(pol)])
    raise DomainError(f"no angle chart for dimension {dim}")


def rot90(v):
    """Counterclockwise quarter turn in the plane (of v or of each row)."""
    return v[..., ::-1] * np.array([-1.0, 1.0])


def tangent_frame(u):
    """Deterministic orthonormal basis of the hyperplane orthogonal to u."""
    u = _unit(u)
    n = len(u)
    if n == 2:
        return rot90(u).reshape(1, 2)
    M = np.eye(n)
    idx = int(np.argmax(np.abs(u)))
    M[:, [0, idx]] = M[:, [idx, 0]]
    M[:, 0] = u
    q, _ = np.linalg.qr(M)
    frame = q[:, 1:].T
    return frame


@dataclass(frozen=True)
class OrientedLine:
    """Base point plus unit direction; the phase-space element of billiards."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "direction", _unit(self.direction))

    def at(self, t):
        return self.point + t * self.direction


class ConvexBody:
    """Base class: generic algorithms over the implicit representation."""

    dim = None

    # -- representation interface ------------------------------------------

    def implicit(self, x):
        raise NotImplementedError

    def implicit_grad(self, x):
        raise NotImplementedError

    def implicit_hess(self, x):
        raise NotImplementedError

    def gauss_inverse(self, u):
        """Boundary point whose exterior normal is u (or each row's)."""
        raise NotImplementedError

    def bounding_radius(self):
        raise NotImplementedError

    def diameter(self):
        return 2.0 * self.bounding_radius()

    def interior_point(self):
        return np.zeros(self.dim)

    # -- membership and normals --------------------------------------------

    def contains(self, x):
        return bool(self.implicit(np.asarray(x, dtype=float)) < 0.0)

    def _require_boundary(self, p, f=None, grad=None):
        """p, once every point (one or (N, d) rows) is checked to be on the
        boundary; the first one that is not raises.  A caller that has F(p)
        and its gradient may pass them."""
        p = np.asarray(p, dtype=float)
        r = np.abs(self.implicit(p) if f is None else f)
        bound = BOUNDARY_TOL * max(1.0, self.bounding_radius())
        if (r > bound).any():  # the bound scales by max(1, |grad F|) >= 1
            g = self.implicit_grad(p) if grad is None else grad
            off = r > bound * np.maximum(1.0, np.sqrt((g * g).sum(-1)))
            if off.any():
                i = np.flatnonzero(off)[0]
                raise BoundaryMembershipError(
                    f"point {p.reshape(-1, self.dim)[i]} not on boundary "
                    f"(residual {np.ravel(r)[i]:.3e})")
        return p

    def _boundary_grad(self, p):
        """(p, grad F(p)) once p (or each row) is checked to be on the boundary."""
        p = self._require_boundary(p)
        return p, self.implicit_grad(p)

    def exterior_normal(self, p):
        """Unit exterior normal at a boundary point (or at each row)."""
        return _unit(self._boundary_grad(p)[1])

    def second_fundamental_form(self, p):
        """Symmetric matrix of the second fundamental form in an
        orthonormal tangent frame; raises if not positive definite."""
        p, g = self._boundary_grad(p)
        H = self.implicit_hess(p)
        frame = tangent_frame(g)
        II = frame @ H @ frame.T / np.linalg.norm(g)
        II = 0.5 * (II + II.T)
        if np.min(np.linalg.eigvalsh(II)) <= 0.0:
            raise ConvexityViolationError(
                f"second fundamental form not positive definite at {p}")
        return II

    # -- inverse Gauss map ---------------------------------------------------

    def _boundary_in_direction(self, s):
        """Boundary intersection of the ray from the interior point along s
        (or along each row)."""
        s = _unit(s)
        c = self.interior_point()
        t = self._exit(np.broadcast_to(c, s.shape), s, float(self.implicit(c)))
        return c + np.expand_dims(t, -1) * s

    # -- support function ----------------------------------------------------

    def support(self, u):
        """h(u) = max over the body of <x, u> (1-homogeneous in u)."""
        u = np.asarray(u, dtype=float)
        return _dot(self.gauss_inverse(_unit(u)), u)

    def support_point(self, u):
        """The boundary point attaining the support value in direction u."""
        return self.gauss_inverse(u)

    def gauge_hess(self, x):
        """Hessian at x != 0 of the gauge g of the body (g = 1 on the
        boundary, 1-homogeneous, so the Hessian at x is that at the
        boundary point p on its ray times |p| / |x|): Q^T H Q / <grad F, p>
        at p, with H the Hessian of F, Q = I - p nu^T and
        nu = grad F / <grad F, p> (the gauge's gradient)."""
        x = np.asarray(x, dtype=float)
        p = self._boundary_in_direction(x)
        grad = self.implicit_grad(p)
        gp = _dot(grad, p)[..., None, None]
        Q = np.eye(self.dim) - p[..., :, None] * (grad[..., None, :] / gp)
        G = np.swapaxes(Q, -1, -2) @ self.implicit_hess(p) @ Q / gp
        return G * (np.sqrt(_dot(p, p)) / np.sqrt(_dot(x, x)))[..., None, None]

    # -- chords and line intersections ---------------------------------------

    def chord_second_intersection(self, a, d):
        """Second boundary point on the chord through a in direction d.

        The parameter sign is chosen so the chord enters the body; a
        tangential chord (|t| below the tangency threshold) raises
        DegenerateChordError.
        """
        a, g = self._boundary_grad(a)
        d = _unit(d)
        return self._chord_end(a, d, float(np.dot(g, d)))

    def chord_second_intersections(self, a, d):
        """Row form of chord_second_intersection over (N, dim) base points a
        and directions d (one direction or one per row).

        Returns (b, tangential): tangential rows are flagged in the mask
        instead of raising, and keep b = a.  Generic chords are one row
        ``_exit``; the closed forms also take a single chord (the one-row case).
        """
        a, g = self._boundary_grad(a)
        d = np.broadcast_to(_unit(d), a.shape)
        return self._chord_end(a, d, _dot(g, d))

    def _chord_end(self, a, d, g):
        """chord_second_intersection(s) from the boundary point a, or rows,
        along the unit d, where g = <normal at a, d> (one per row): the chord
        enters the body along -sign(g) d, so F < 0 just after a."""
        if a.ndim == 1:
            sign = -1.0 if g > 0.0 else 1.0
            t = sign * self._exit(a, sign * d, -1.0)
            if abs(t) < TANGENCY_FRACTION * self.diameter():
                raise DegenerateChordError(
                    f"chord at {a} along {d} is tangential (|t|={abs(t):.2e})")
            return a + t * d
        sign = np.where(g > 0.0, -1.0, 1.0)
        t = sign * self._exit(a, sign[:, None] * d, -1.0)
        tangential = abs(t) < TANGENCY_FRACTION * self.diameter()
        return np.where(tangential[:, None], a, a + t[:, None] * d), tangential

    def _chord_normal(self, u, d):
        """The exterior normal at the far end of the chord along the unit d
        from the boundary point a = gauss_inverse(u) of unit normal u, or for
        each row of u: the parallel-chord transport of normals, whose chord
        takes its sign from <u, d>.  A tangential chord raises
        DegenerateChordError for one vector; a tangential row maps to itself."""
        a = self._require_boundary(self.gauss_inverse(u))
        if u.ndim == 1:
            return self.exterior_normal(self._chord_end(a, d, float(u @ d)))
        b, tangential = self._chord_end(a, d, _dot(u, d))
        out = u.copy()
        if not tangential.all():
            out[~tangential] = self.exterior_normal(b[~tangential])
        return out

    def _sphere_chord(self, p, v):
        """Parameters (t0 < t1) where the line p + t v, or each row's line,
        meets the bounding sphere padded to radius^2 = 1.1 R^2."""
        b = _dot(p, v)
        disc = b * b + 1.1 * self.bounding_radius() ** 2 - _dot(p, p)
        if (disc <= 0.0).any():
            raise DomainError("line misses the body")
        r = np.sqrt(disc)
        return -b - r, -b + r

    def _exit(self, p, v, f_p):
        """The t > 0 at which the ray p + t v leaves the body, or the t of
        each row of (N, d) arrays p and v.

        f_p < 0 is F(p) for an interior p, or -1 for a boundary p that v
        enters (F < 0 just past p even when the rounded F(p) is positive).
        The body is the sublevel set of F, so F is quasiconvex along the
        ray: negative up to the exit, positive beyond it out to the padded
        bounding sphere at T.  One root solve on the bracket (0, T] starts
        from the Newton step at T, which for a convex F lies in the bracket
        and descends onto the exit (the midpoint where the slope at T is
        not positive).  A ray that never leaves raises ConvergenceError.
        """
        T = self._sphere_chord(p, v)[1]
        x = p + T[..., None] * v
        f_hi, slope = self.implicit(x), _dot(self.implicit_grad(x), v)
        if (f_hi < 0.0).any():
            raise ConvergenceError("ray never leaves the body")
        with np.errstate(divide="ignore", invalid="ignore"):
            x0 = T - f_hi / slope  # outside (0, T) for a slope <= 0 or not finite
        xtol = EPS * self.bounding_radius()
        if p.ndim == 1:
            def jet(t):
                x = p + t * v
                return float(self.implicit(x)), float(self.implicit_grad(x) @ v)

            return find_root(jet, 0.0, float(T), x0=float(x0), xtol=xtol, f_lo=f_p,
                             f_hi=float(f_hi))

        def jets(t, i):
            x = p[i] + t[:, None] * v[i]
            return self.implicit(x), _dot(self.implicit_grad(x), v[i])

        return find_root(jets, 0.0, T, x0=x0, xtol=xtol, f_lo=f_p, f_hi=f_hi)

    def _inside_on(self, p, v):
        """(t, f) with f < 0 standing for F at the point p + t v of the line:
        (0, F(p)) for an interior p, (0, -1) for a boundary p (the deflated
        start of ``_exit``, which leaves at once along a v that does not
        enter), else the minimum of F along the line; a line that misses
        the body raises DomainError.  A p whose F rounds below zero by at
        most BOUNDARY_ROUNDING max(1, R), as at the bounce points that
        exits return, is a boundary p."""
        f = float(self.implicit(p))
        scale = max(1.0, self.bounding_radius())
        if f < -BOUNDARY_ROUNDING * scale:
            return 0.0, f
        if f <= BOUNDARY_TOL * scale:
            return 0.0, -1.0
        # a thin body can lie between any sampled points, and F is quasiconvex
        # along the line, so its minimum is where the slope of F changes sign
        t0, t1 = self._sphere_chord(p, v)
        try:
            tm = find_root(lambda t: (float(self.implicit_grad(p + t * v) @ v),
                                      float(v @ self.implicit_hess(p + t * v) @ v)), t0, t1)
        except ConvergenceError:
            tm = t0  # F has no interior minimum on the segment
        fm = float(self.implicit(p + tm * v))
        if fm >= 0.0:
            raise DomainError("line misses the body")
        return tm, fm

    def line_intersections(self, line: OrientedLine):
        """Entry and exit parameters (t_enter < t_exit) of an oriented line."""
        p, v = line.point, line.direction
        t, f = self._inside_on(p, v)
        q = p + t * v
        return t - self._exit(q, -v, f), t + self._exit(q, v, f)

    def last_intersection(self, line: OrientedLine):
        """Last boundary point met by the oriented line (its exit point)."""
        p, v = line.point, line.direction
        t, f = self._inside_on(p, v)
        q = p + t * v
        return q + self._exit(q, v, f) * v

    # -- volume ---------------------------------------------------------------

    def volume(self):
        """Generic volume: boundary quadrature in 2D; in 3D the quadrature
        of V = (1/3) integral of rho^3 over the sphere of directions, rho
        the radial function from the interior point (VOLUME_NODES)."""
        if self.dim == 2:
            thetas = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
            pts = self.gauss_inverse(np.stack([np.cos(thetas), np.sin(thetas)], axis=1))
            # inscribed-polygon area has an O(N^-2) defect; extrapolate it out
            fine = Polygon2D._signed_area(pts)
            coarse = Polygon2D._signed_area(pts[::2])
            return (4.0 * fine - coarse) / 3.0
        if self.dim != 3:
            raise DomainError("generic volume implemented for dimensions 2 and 3")
        z, w = np.polynomial.legendre.leggauss(VOLUME_NODES)
        phi = np.linspace(0.0, 2.0 * math.pi, 2 * VOLUME_NODES, endpoint=False)
        z, phi = np.meshgrid(z, phi, indexing="ij")
        r = np.sqrt(1.0 - z * z)
        s = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1).reshape(-1, 3)
        x = self._boundary_in_direction(s) - self.interior_point()
        rho3 = np.sqrt(_dot(x, x)).reshape(z.shape) ** 3
        return float(w @ rho3.mean(axis=1)) * 2.0 * math.pi / 3.0


# ---------------------------------------------------------------------------
# Concrete bodies
# ---------------------------------------------------------------------------

class Ellipsoid(ConvexBody):
    """Body {<Ax, x> <= 1} for symmetric positive definite A."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError("ellipsoid matrix must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise DomainError("ellipsoid matrix must be symmetric")
        w = np.linalg.eigvalsh(A)
        if w[0] <= 0.0:
            raise ConvexityViolationError("ellipsoid matrix must be positive definite")
        self.A = 0.5 * (A + A.T)
        self.A_inv = np.linalg.inv(self.A)
        self.dim = A.shape[0]
        self._radius = 1.0 / math.sqrt(w[0])

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.A, x) - 1.0

    def implicit_grad(self, x):
        return 2.0 * np.asarray(x, dtype=float) @ self.A

    def implicit_hess(self, x):
        H = 2.0 * self.A
        return H if np.ndim(x) == 1 else np.broadcast_to(H, np.shape(x)[:-1] + H.shape)

    def bounding_radius(self):
        return self._radius

    def gauss_inverse(self, u):
        u = _unit(u)
        w = _apply(self.A_inv, u)
        return w / np.sqrt(_dot(w, u))[..., None]

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(_dot(u @ self.A_inv, u))

    def support_hess(self, u):
        u = np.asarray(u, dtype=float)
        w = _apply(self.A_inv, u)
        h = np.sqrt(_dot(u, w))[..., None, None]
        return self.A_inv / h - w[..., :, None] * w[..., None, :] / h ** 3

    def _boundary_in_direction(self, s):
        s = np.asarray(s, dtype=float)
        return s / np.sqrt(_dot(s @ self.A, s))[..., None]

    def _exit(self, p, v, f_p):
        # the larger root of F(p + t v) = a t^2 + 2 b t + c (c = 0 from the boundary)
        Av = _apply(self.A, v)
        a, b, c = _dot(v, Av), _dot(p, Av), _dot(p, _apply(self.A, p)) - 1.0
        c = np.where((f_p == -1.0) & (c > -0.5), 0.0, c)
        s = np.sqrt(b * b - a * c)
        return (np.where(b > 0.0, -c, s - b) / np.where(b > 0.0, b + s, a))[()]

    def _chord_normal(self, u, d):
        # from a = A^-1 u / s, s = sqrt<u, A^-1 u>, the chord along d has
        # t = -2 <u, d> / (s <d, A d>), and the normal at its end is
        # A (a + t d) = (u - 2 <u, d> / <d, A d> A d) / s: the projective
        # reflection with the transversal field A d
        Ad = self.A @ d
        c = 2.0 * _dot(u, d) / _dot(d, Ad)
        tangential = abs(c) / np.sqrt(_dot(u, _apply(self.A_inv, u))) < (
            TANGENCY_FRACTION * self.diameter())
        if u.ndim == 1:
            if tangential:
                raise DegenerateChordError(f"chord along {d} from the normal {u} is tangential")
            return _unit(u - c * Ad)
        return np.where(tangential[:, None], u, _unit(u - c[:, None] * Ad))

    def line_intersections(self, line: OrientedLine):
        p, v = line.point, line.direction
        qa = float(v @ self.A @ v)
        qb = float(p @ self.A @ v)
        qc = float(p @ self.A @ p) - 1.0
        disc = qb * qb - qa * qc
        if disc <= 0.0:
            raise DomainError("line misses the ellipsoid")
        r = math.sqrt(disc)
        return (-qb - r) / qa, (-qb + r) / qa

    def last_intersection(self, line: OrientedLine):
        return line.at(self.line_intersections(line)[1])

    def volume(self):
        unit_ball = math.pi ** (self.dim / 2.0) / math.gamma(self.dim / 2.0 + 1.0)
        return unit_ball / math.sqrt(float(np.linalg.det(self.A)))

    def position_jet(self, theta):
        """JET_ORDER Taylor jets of the Gauss-angle boundary parametrization."""
        if self.dim != 2:
            raise DomainError("position_jet is a planar parametrization")
        t = Taylor1D.variable(float(theta), JET_ORDER)
        s, c = t.sin_cos()
        wx = c * self.A_inv[0, 0] + s * self.A_inv[0, 1]
        wy = c * self.A_inv[1, 0] + s * self.A_inv[1, 1]
        scale = (wx * c + wy * s).sqrt().recip()
        return wx * scale, wy * scale


def Ball(radius=1.0, dim=2):
    """Euclidean ball as an Ellipsoid instance."""
    return Ellipsoid(np.eye(dim) / radius ** 2)


class Superellipse(ConvexBody):
    """Body {sum |x_i / a_i|^m <= 1} with exponent m > 1.

    Smooth and strictly convex away from the coordinate axis points,
    where the curvature vanishes for m > 2 and is infinite for 1 < m < 2;
    all queries are valid at the points where they are made (the standing
    positive-definiteness hypothesis is checked per query).
    """

    def __init__(self, exponent=4.0, semiaxes=None, dim=2):
        self.m = float(exponent)
        if self.m <= 1.0:
            raise DomainError("superellipse exponent must exceed 1")
        if semiaxes is None:
            semiaxes = np.ones(dim)
        self.a = np.asarray(semiaxes, dtype=float)
        if np.any(self.a <= 0.0):
            raise DomainError("semiaxes must be positive")
        self.dim = len(self.a)
        # farthest point: Lagrange gives |x| = (sum a_i^(2m/(m-2)))^((m-2)/2m)
        # for m > 2; for m <= 2 the maximum sits on the longest axis
        if self.m > 2.0:
            expo = 2.0 * self.m / (self.m - 2.0)
            reach = float(np.sum(self.a ** expo)) ** ((self.m - 2.0) / (2.0 * self.m))
        else:
            reach = float(np.max(self.a))
        self._radius = max(reach, float(np.max(self.a))) * 1.0001
        # even integer exponents: F along a line is a polynomial, whose
        # coefficients are binomial sums over the axes
        self._even = self.m.is_integer() and self.m >= 2 and int(self.m) % 2 == 0
        if self._even:
            m = int(self.m)
            self._binomial = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
        else:
            # binom(m, k), k = 1..4: the Taylor coefficients of |1 + x|^m
            self._binomial = np.cumprod([(self.m - k) / (k + 1.0) for k in range(4)]).tolist()
            self._ones = np.ones(self.dim)

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(np.abs(x / self.a) ** self.m, axis=-1) - 1.0

    def implicit_grad(self, x):
        x = np.asarray(x, dtype=float)
        y = x / self.a
        return (self.m / self.a) * np.sign(y) * np.abs(y) ** (self.m - 1.0)

    def implicit_hess(self, x):
        x = np.asarray(x, dtype=float)
        y = np.abs(x / self.a)
        if self.m < 2.0:
            # infinite on the axes, where the curvature is; the floor on
            # |y_i| keeps it finite (and large)
            y = np.maximum(y, EPS)
        diag = self.m * (self.m - 1.0) / self.a ** 2 * y ** (self.m - 2.0)
        return diag[..., None] * np.eye(self.dim)

    def bounding_radius(self):
        return self._radius

    def gauss_inverse(self, u):
        # grad F at p is proportional to u componentwise; invert the odd power
        u = _unit(u)
        w = self.a * np.sign(u) * np.abs(self.a * u) ** (1.0 / (self.m - 1.0))
        scale = (abs(w / self.a) ** self.m).sum(-1, keepdims=True) ** (1.0 / self.m)
        return w / scale

    def support(self, u):
        u = np.asarray(u, dtype=float)
        q = self.m / (self.m - 1.0)
        # kept as an array, one vector takes the same (array) power as the rows
        h = (abs(self.a * u) ** q).sum(-1, keepdims=True) ** (1.0 / q)
        return h[..., 0][()]

    def support_hess(self, u):
        # h = ||y||_q with y = a u and q = m / (m - 1); for m > 2 the Hessian
        # is infinite at the flat normals (y_i = 0), where the floor on |y_i|
        # keeps it finite
        q = self.m / (self.m - 1.0)
        y = self.a * np.asarray(u, dtype=float)
        ay = np.abs(y)
        h = (ay ** q).sum(-1, keepdims=True) ** (1.0 / q)
        sig = np.sign(y) * ay ** (q - 1.0)
        diag = np.maximum(ay, EPS * h) ** (q - 2.0) * h ** q
        H = ((q - 1.0) * h[..., None] ** (1.0 - 2.0 * q)
             * (diag[..., None] * np.eye(self.dim) - sig[..., :, None] * sig[..., None, :]))
        return H * np.outer(self.a, self.a)

    def _boundary_in_direction(self, s):
        s = np.asarray(s, dtype=float)
        # one vector takes the scalar power, rows the array power (they round
        # differently, and the one-vector callers keep their bits)
        if s.ndim == 1:
            return s / float(np.sum(np.abs(s / self.a) ** self.m)) ** (1.0 / self.m)
        return s / (abs(s / self.a) ** self.m).sum(-1, keepdims=True) ** (1.0 / self.m)

    def volume(self):
        g = math.gamma(1.0 + 1.0 / self.m)
        gn = math.gamma(1.0 + self.dim / self.m)
        return float(np.prod(2.0 * self.a)) * g ** self.dim / gn

    def _exit(self, p, v, f_p):
        """For an even m, F(p + t v) = P(t) = sum_k c_k t^k is convex: the exit
        is the one root on (0, 2.2 R] of the increasing P(t) / t, from -inf if
        p is inside (t P' - P >= -c_0), from c_1 from the boundary (f_p = -1
        off the centre, where F = -1 too, or a rounded c_0 >= 0), which c_0 = 0
        deflates; c_1 >= 0 leaves at once.  The search starts at the root of
        c_1 + c_2 t + c_3 t^2, or for m = 4 from the boundary at the real root
        of the cubic P(t) / t (Cardano's), which one or two steps polish; an
        interior start starts at ``_even_interior_start``.  A fractional m
        answers a boundary start the same way, with the root at t = 0 deflated
        from the power sum (``_deflated_exit``), and an interior start by the
        base exit."""
        if not self._even:
            if p.ndim == 1 and f_p != -1.0:
                return super()._exit(p, v, f_p)
            am = np.abs(p / self.a) ** self.m
            on = (f_p == -1.0) & (am.sum(-1) > 0.5)  # the centre has F = -1 too
            if p.ndim == 1:
                return self._deflated_exit(p, v, am) if on else super()._exit(p, v, f_p)
            if on.all():
                return self._deflated_exit(p, v, am)
            t, off = np.empty(len(p)), ~on
            t[off] = super()._exit(p[off], v[off], np.broadcast_to(f_p, on.shape)[off])
            if on.any():
                t[on] = self._deflated_exit(p[on], v[on], am[on])
            return t
        m = int(self.m)
        k = np.arange(m + 1)
        c = (self._binomial * (p / self.a)[..., None] ** (m - k)
             * (v / self.a)[..., None] ** k).sum(-2)
        c = c.tolist() if p.ndim == 1 else list(c.T)  # floats for the scalar kernel
        c[0] -= 1.0
        deflate = ((f_p == -1.0) & (c[0] > -0.5)) | (c[0] >= 0.0)
        c[0] = c[0] - c[0] * deflate
        c1, c2, c3 = c[1], c[2], c[3] if m > 2 else 0.0
        q = c2 * c2 - 4.0 * c1 * c3
        den = c2 + (q * (q > 0.0)) ** 0.5  # 0 only where c_1 = 0 too: x0 = 0
        x0 = -2.0 * c1 / (den + (den == 0.0))
        hi = 2.2 * self._radius
        if p.ndim == 1:
            if deflate:
                x0 = _increasing_cubic_root(c1, c2, c3, c[4]) if m == 4 else x0
            else:
                x0 = _even_interior_start(c, x0, hi)
        else:
            if m == 4 and deflate.any():
                x0 = np.where(deflate, _increasing_cubic_root(c1, c2, c3, c[4]), x0)
            if not deflate.all():
                x0 = np.where(deflate, x0, _even_interior_start(c, x0, hi))
        f_lo = np.where(deflate, np.minimum(c1, 0.0), f_p)
        coeffs = c[::-1]  # c_m, ..., c_0
        if p.ndim > 1:
            hi, coeffs = np.full(len(p), hi), np.array(coeffs)

        def jet(t, rows=None):
            *poly, c0 = coeffs if rows is None else coeffs[:, rows]
            value, slope = poly[0], 0.0
            for ck in poly[1:]:
                slope = slope * t + value
                value = value * t + ck
            r = c0 / t
            return value + r, slope - r / t

        return find_root(jet, 0.0, hi, x0=x0, f_lo=f_lo[()], f_hi=1.0)

    def _deflated_exit(self, p, v, am):
        """The exit of the ray p + t v from the boundary point p (or of each
        row's), fractional m, with am = |y|^m, y = p / a.

        The root at t = 0 is deflated: G(t) = (sum |y + t w|^m - sum |y|^m) / t,
        w = v / a, is the secant slope of a convex function, so it increases
        from g = <grad F(p), v> (g >= 0 leaves at once) and has one root on
        (0, T], T the exit from the padded bounding sphere.  Its terms are
        |y_i|^m expm1(m log1p(s_i t)), s_i = w_i / y_i = v_i / p_i (log1p of
        |1 + s_i t| - 1 past the axis), free of the cancellation that F itself
        suffers on a short chord; a y_i with |y_i|^m below 1e-200 lies on the
        axis and adds |t w_i|^m.  The solve starts at the root t0 of the
        Taylor model g + k t + q t^2 of G where the cubic term c t^3 shifts
        that root by at most a tenth, s_i t0 stays within 1 (the series
        converges) and 1.5 t0 <= T; elsewhere (long chords, flat or axis
        points) at the kernel's step from T, where a negative G raises
        ConvergenceError (a ray that never leaves).  The kernel's steps are
        Halley's."""
        m = self.m
        axis = am < 1e-200
        on_axis = axis.any()
        s = v / np.where(axis, self.a, p) if on_axis else v / p  # w / y, or w on the axis
        ams = am * s
        ams2 = ams * s
        g, k, q, c = (_dot(ams, self._ones), _dot(ams2, self._ones), _dot(ams2, s),
                      _dot(ams2, s * s))  # sum am s^j, j = 1..4
        one = p.ndim == 1
        if one:
            g, k, q, c = float(g), float(k), float(q), float(c)
            if g >= 0.0:
                return 0.0
        b1, b2, b3, b4 = self._binomial
        g, k, q, c = b1 * g, b2 * k, b3 * q, b4 * c

        def jet(t, rows=None):
            # G and its Halley slope, from the power sum phi:
            # G' = (phi' - G) / t and G'' = (phi'' - 2 G') / t
            if rows is None:
                r, A, B, C, ax = t * s, am, ams, ams2, axis
            else:
                r, A, B, C, ax = t[:, None] * s[rows], am[rows], ams[rows], ams2[rows], axis[rows]
            r2 = np.maximum(np.maximum(r, -2.0 - r), EPS - 1.0)  # |1 + r| - 1
            e = np.expm1(m * np.log1p(r2))
            u = np.copysign(1.0 + r2, 1.0 + r)  # 1 + r, kept off 0
            w1 = (e + 1.0) / u  # sign(1 + r) |1 + r|^(m - 1)
            N, N1, N2 = _dot(A, e), _dot(B, w1), _dot(C, w1 / u)
            if on_axis:  # s_i t = t w_i there
                z = (np.abs(r * ax) ** m).sum(-1)
                N, N1, N2 = N + z, N1 + z / t, N2 + z / (t * t)
            G = N / t
            G1 = (m * N1 - G) / t
            G2 = (m * (m - 1.0) * N2 - 2.0 * G1) / t
            return G, _halley_slope(G, G1, G2)

        hi = self._sphere_chord(p, v)[1]
        sqrt = math.sqrt if one else np.sqrt
        disc = k * k - 4.0 * g * q
        root = sqrt(disc * (disc > 0.0))
        den = k + root
        t0 = -2.0 * g / (den + (den == 0.0))
        trust = ((disc > 0.0) & (abs(c) * t0 * t0 <= 0.1 * root)
                 & (np.abs(s).max(-1) * t0 <= 1.0) & (1.5 * t0 <= hi))
        if on_axis:
            trust = trust & ~(axis & (v != 0.0)).any(-1)
        xtol = EPS * self._radius
        if one:
            hi, x0, f_hi = float(hi), t0, 1.0
            if not trust:
                f_hi, d = jet(hi)
                if f_hi < 0.0:
                    raise ConvergenceError("ray never leaves the body")
                x0 = hi - f_hi / (d + (d == 0.0))
            return find_root(jet, 0.0, hi, x0=x0, xtol=xtol, f_lo=min(g, 0.0), f_hi=f_hi)
        x0, f_hi, i = t0.copy(), np.ones(len(p)), np.flatnonzero(~trust)
        if i.size:
            f_hi[i], d = jet(hi[i], i)
            if (f_hi[i] < 0.0).any():
                raise ConvergenceError("ray never leaves the body")
            x0[i] = hi[i] - f_hi[i] / (d + (d == 0.0))
        return find_root(jet, 0.0, hi, x0=x0, xtol=xtol, f_lo=np.minimum(g, 0.0), f_hi=f_hi)

    def position_jet(self, theta):
        """JET_ORDER Taylor jets of the Gauss-angle boundary parametrization.

        Valid away from the axis directions, where the normal components
        vanish and the fractional power loses smoothness.
        """
        if self.dim != 2:
            raise DomainError("position_jet is a planar parametrization")
        t = Taylor1D.variable(float(theta), JET_ORDER)
        comps = t.sin_cos()[::-1]  # (cos, sin)
        if any(abs(c.value) < 1e-8 for c in comps):
            raise DomainError("superellipse jets degenerate on the axes")
        ws = []
        for u_i, a_i in zip(comps, self.a):
            s = 1.0 if u_i.value > 0 else -1.0
            ws.append((u_i * (s * a_i)).pow(1.0 / (self.m - 1.0)) * (s * a_i))
        # sum |w_i/a_i|^m, with signs handled through the positive base
        total = Taylor1D.constant(0.0, JET_ORDER)
        for w_i, a_i in zip(ws, self.a):
            s = 1.0 if w_i.value > 0 else -1.0
            total = total + (w_i * (s / a_i)).pow(self.m)
        scale = total.pow(-1.0 / self.m)
        return ws[0] * scale, ws[1] * scale


class TrigSeries:
    """f(theta) = c_0 + sum_k (c_k cos k theta + s_k sin k theta).

    The radial function of RadialBody2D and the support function of
    SupportBody2D; ``jet`` gives f, f' and f'' from one cos/sin pass, and
    ``table`` holds that jet on the angle grid ``_GRID``.
    """

    def __init__(self, cos_coeffs, sin_coeffs=()):
        cc = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
        sc = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
        n = max(len(cc), len(sc))
        self.cc = np.concatenate([cc, np.zeros(n - len(cc))])
        self.sc = np.concatenate([sc, np.zeros(n - len(sc))])
        k = np.arange(n, dtype=float)
        # columns: f, f', f'' as combinations of cos k theta and sin k theta
        self._on_cos = np.stack([self.cc, k * self.sc, -k * k * self.cc], axis=1)
        self._on_sin = np.stack([self.sc, -k * self.cc, -k * k * self.sc], axis=1)
        self._k = k
        self.table = self.jet(_GRID)

    def jet(self, theta):
        """(f, f', f'') at theta (vectorized).  A stack of one-row products,
        so every angle of an array gets the bits of its one-angle call."""
        kt = np.asarray(theta, dtype=float)[..., None, None] * self._k
        out = (np.cos(kt) @ self._on_cos + np.sin(kt) @ self._on_sin)[..., 0, :]
        return out[..., 0][()], out[..., 1][()], out[..., 2][()]  # scalars at one angle

    def __call__(self, theta, order=0):
        """d^order/dtheta^order of f at theta, for order 0, 1 or 2."""
        return self.jet(theta)[order]

    def odd_total(self):
        """Sum of the magnitudes of the odd harmonics: 0 exactly when
        f(theta + pi) = f(theta)."""
        return float(np.abs(self.cc[1::2]).sum() + np.abs(self.sc[1::2]).sum())


class ReciprocalSeries:
    """g = 1 / f for a positive TrigSeries f, with the jet
    (1/f, -f'/f^2, (2 f'^2 - f f'') / f^3) taken from f's jet.

    The radial function 1/h of the polar of a support body h, and the
    support function 1/r of the polar of a radial body r.  Its table on
    ``_GRID`` comes from f's table, so a polar costs no new series pass.
    """

    def __init__(self, f: TrigSeries):
        self.f = f
        self.table = self._from_jet(*f.table)

    @staticmethod
    def _from_jet(f, f1, f2):
        g = 1.0 / f
        return g, -f1 * g * g, (2.0 * f1 * f1 - f * f2) * (g * g * g)

    def jet(self, theta):
        """(g, g', g'') at theta (vectorized, with f's row bits)."""
        return self._from_jet(*self.f.jet(theta))

    __call__ = TrigSeries.__call__

    def odd_total(self):
        # 1/f is symmetric under theta -> theta + pi exactly when f is
        return self.f.odd_total()


def _series(coeffs, sin_coeffs):
    """A series object given in place of coefficient lists, or the
    TrigSeries of the lists."""
    if isinstance(coeffs, (TrigSeries, ReciprocalSeries)):
        return coeffs
    return TrigSeries(coeffs, sin_coeffs)


def _reciprocal(series):
    """The series 1 / series: a reciprocal's own TrigSeries, which keeps
    its bits, or the ReciprocalSeries of a TrigSeries."""
    return series.f if isinstance(series, ReciprocalSeries) else ReciprocalSeries(series)


class RadialBody2D(ConvexBody):
    """Planar body with trigonometric-polynomial radial function.

    r(theta) = cos_coeffs[0] + sum_k cos_coeffs[k] cos(k theta)
                             + sum_k sin_coeffs[k] sin(k theta),
    or a series object (TrigSeries, or the ReciprocalSeries 1/h of a
    polar) given in place of cos_coeffs.  Exact theta-derivatives to any
    order make 5-jets of the boundary available without differencing noise.
    """

    dim = 2

    def __init__(self, cos_coeffs, sin_coeffs=()):
        self.radial = _series(cos_coeffs, sin_coeffs)
        rs, r1, r2 = self.radial.table
        if np.min(rs) <= 0.0:
            raise DomainError("radial function must be positive")
        self._radius = float(np.max(rs)) * 1.0001
        if np.min(self._curvature(rs, r1, r2)) <= 0.0:
            raise ConvexityViolationError("radial body is not convex")

    def boundary_point(self, theta):
        r = self.radial(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def boundary_curvature(self, theta):
        return self._curvature(*self.radial.jet(theta))

    @staticmethod
    def _curvature(r, r1, r2):
        q = r * r + r1 * r1  # q sqrt(q), not q ** 1.5: a scalar power rounds differently
        return (r * r + 2 * r1 * r1 - r * r2) / (q * np.sqrt(q))

    def position_jet(self, theta):
        """JET_ORDER Taylor jets of the parametrized boundary at theta."""
        t = Taylor1D.variable(theta, JET_ORDER)
        recip = isinstance(self.radial, ReciprocalSeries)
        series = self.radial.f if recip else self.radial
        cc, sc = series.cc, series.sc
        r = Taylor1D.constant(cc[0], JET_ORDER)
        sin, cos = t.sin_cos()  # t * 1.0 has the bits of t: k = 1 takes this pair
        for k in range(1, len(cc)):
            sin_k, cos_k = (sin, cos) if k == 1 else (t * float(k)).sin_cos()
            r = r + cos_k * cc[k] + sin_k * sc[k]
        if recip:
            r = r.recip()
        return r * cos, r * sin

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x, axis=-1)
        theta = np.arctan2(x[..., 1], x[..., 0])
        return rho - self.radial(theta)

    def implicit_grad(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(_dot(x, x))[..., None]
        e_r = x / rho
        r1 = self.radial(np.arctan2(x[..., 1], x[..., 0]), 1)[..., None]
        return e_r - (r1 / rho) * rot90(e_r)

    def implicit_hess(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(_dot(x, x))[..., None]
        _, r1, r2 = self.radial.jet(np.arctan2(x[..., 1], x[..., 0]))
        e_r = x / rho
        e_t = rot90(e_r)
        tt = e_t[..., :, None] * e_t[..., None, :]
        rt = e_r[..., :, None] * e_t[..., None, :]
        rho = rho[..., None]
        return (tt / rho - (r2[..., None, None] / (rho * rho)) * tt
                + (r1[..., None, None] / (rho * rho)) * (rt + np.swapaxes(rt, -1, -2)))

    def bounding_radius(self):
        return self._radius

    def volume(self):
        # (1/2) integral of r^2, by the trapezoid rule on the table
        r = self.radial.table[0]
        return math.pi * float(np.mean(r * r))

    def _boundary_in_direction(self, s):
        s = _unit(s)
        return self.radial(np.arctan2(s[..., 1], s[..., 0]))[..., None] * s

    def _exit(self, p, v, f_p):
        """Exit of the ray p + t v (|v| = 1) at r(phi) e(phi).

        Off the line through the origin along v, the polar angle of p + t v
        moves monotonically from phi_p = arg p toward arg v, over the arc of
        length L < pi oriented by sigma = sign(p x v); on it the offset
        s(phi) = <r e - p, nu> (nu = rot90(v)), of slope <r' e + r e_perp, nu>,
        changes sign once: sigma s rises from < 0 to sigma s(arg v) = |p x v|,
        an exact bracket in tau = sigma (phi - phi_p).  A start within the
        boundary tolerance (whatever f_p says: a rounded boundary point may
        come as an interior one) deflates the root at phi_p, solving
        (s - s(phi_p)) / sin(tau / 2): the exit of the parallel ray through
        the boundary point r(phi_p) e(phi_p), at most the tolerance away; if
        v does not enter there, the ray leaves at once.  On the origin line
        the exit is r e at arg v.  So f_p is not needed.
        """
        px, py, vx, vy = p[..., 0], p[..., 1], v[..., 0], v[..., 1]
        phi_p, phi_v = np.arctan2(py, px), np.arctan2(vy, vx)
        c = px * vy - py * vx  # p x v = -<p, nu>
        sigma = np.sign(c)
        r, r1, r2 = self.radial.jet(phi_p)
        cos, sin = np.cos(phi_p), np.sin(phi_p)
        en, ev = sin * vx - cos * vy, cos * vx + sin * vy  # <e, nu>, <e, v>
        pp, b = px * px + py * py, px * vx + py * vy
        on = np.sqrt(pp) - r >= -BOUNDARY_TOL * max(1.0, self._radius)
        slope = r1 * en + r * ev  # s'(phi_p) = sqrt(r^2 + r'^2) <n, v>, n the unit normal
        leaves = on & (slope >= 0.0)
        # masks by arithmetic (exact, and cheaper than where on one vector);
        # angles mod 2 pi from differences in (-2 pi, 2 pi), as np.mod rounds them
        w, lw = on * 1.0, leaves * 1.0
        length = sigma * (phi_v - phi_p)
        length = length + 2.0 * math.pi * (length < 0.0)
        # an arc rounded below 0 wraps to nearly 2 pi; p on the origin line has none
        solve = (length > 0.0) & (length < 1.5 * math.pi) & ~leaves
        # start at the exit through the osculating circle at a boundary start,
        # else through the circle of radius r(phi_p) about the origin
        t0 = (w * (-2.0 * slope * (r * r + r1 * r1) / (r * r + 2.0 * r1 * r1 - r * r2))
              + (1.0 - w) * (np.sqrt(abs(b * b + r * r - pp)) - b))
        tau0 = sigma * (np.arctan2(py + t0 * vy, px + t0 * vx) - phi_p)
        tau0 = tau0 + 2.0 * math.pi * (tau0 < 0.0)
        args = (phi_p, sigma, c, vx, vy, w * sigma * (r * en + c), w)
        phi = lw * phi_p + (1.0 - lw) * phi_v
        if p.ndim == 1:
            if solve:
                phi = phi_p + sigma * self._exit_angle(args, 0.0, length, tau0)
        elif solve.any():
            i = np.flatnonzero(solve)
            phi[i] = phi_p[i] + sigma[i] * self._exit_angle(
                [a[i] for a in args], np.zeros(len(i)), length[i], tau0[i])
        r = self.radial(phi)
        return (r * np.cos(phi) - px) * vx + (r * np.sin(phi) - py) * vy

    def _exit_angle(self, args, lo, hi, tau0):
        """The tau of _exit's sign change on [lo, hi] (of the deflated
        offset where w = 1), one root solve over rows."""
        def offset(tau, rows=None):
            # g = gap / den, with its Halley slope from g' and g''
            phi_p, sigma, c, vx, vy, s0, w = args if rows is None else [a[rows] for a in args]
            phi = phi_p + sigma * tau
            r, r1, r2 = self.radial.jet(phi)
            cos, sin = np.cos(phi), np.sin(phi)
            en, ev = sin * vx - cos * vy, cos * vx + sin * vy
            gap, d1 = sigma * (r * en + c) - s0, r1 * en + r * ev
            d2 = sigma * ((r2 - r) * en + 2.0 * r1 * ev)
            sn, cs = np.sin(0.5 * tau), np.cos(0.5 * tau)
            den = w * sn + (1.0 - w)
            g = gap / den
            g1 = d1 / den - w * 0.5 * g * cs / den
            g2 = d2 / den - w * (d1 * cs / den - 0.25 * gap - 0.5 * g * cs * cs / den) / den
            return g, _halley_slope(g, g1, g2)

        return find_root(offset, lo, hi, x0=tau0, f_lo=-1.0, f_hi=1.0)

    def _gauss_angle(self, u):
        """Polar angle of the boundary point whose exterior normal points
        along u (or along each row)."""
        # the normal azimuth theta - arctan(r'/r) is strictly increasing in
        # theta for convex bodies and within pi/2 of theta, so the window
        # target +- pi/2 brackets the root: gap < 0 below it, > 0 above it
        target = np.arctan2(u[..., 1], u[..., 0])

        def gap(theta, i=...):
            r, r1, r2 = self.radial.jet(theta)
            return (theta - np.arctan2(r1, r) - target[i],
                    1.0 - (r2 * r - r1 * r1) / (r * r + r1 * r1))

        return find_root(gap, target - math.pi / 2, target + math.pi / 2, f_lo=-1.0, f_hi=1.0)

    def gauss_inverse(self, u):
        u = _unit(u)
        p = self.boundary_point(self._gauss_angle(u))
        e = _unit(self.implicit_grad(p)) - u
        res = np.sqrt(_dot(e, e))
        if np.max(res, initial=0.0) > 1e-9:
            raise ConvergenceError("radial gauss_inverse failed", residual=float(np.max(res)))
        return p

    def support_hess(self, u):
        # t t^T / (kappa |u|), t the unit tangent and kappa the curvature at
        # the support point (1 / kappa = h + h'' in the normal angle)
        u = np.asarray(u, dtype=float)
        n = np.sqrt(_dot(u, u))[..., None]
        t = rot90(u) / n
        kappa = self.boundary_curvature(self._gauss_angle(u))[..., None]
        return t[..., :, None] * t[..., None, :] / (kappa * n)[..., None]


class SupportBody2D(ConvexBody):
    """Planar body given by a trigonometric-polynomial support function.

    h(theta) = cos_coeffs[0] + sum_k (cos_coeffs[k] cos k theta +
    sin_coeffs[k] sin k theta), or a series object (TrigSeries, or the
    ReciprocalSeries 1/r of a polar) given in place of cos_coeffs;
    requires h + h'' > 0 (positive curvature radius), which is checked on
    a fine grid at construction.  F = h_polar - 1 (the gauge minus one),
    from one row solve of the polar 1/h for the normal angle arg x.
    """

    dim = 2

    def __init__(self, cos_coeffs, sin_coeffs=()):
        self.h = _series(cos_coeffs, sin_coeffs)
        h, _, h2 = self.h.table
        if np.min(h) <= 0.0:
            raise OriginNotInteriorError("support function must be positive")
        if np.min(h + h2) <= 0.0:
            raise ConvexityViolationError("support body has h + h'' <= 0")
        self._radius = float(np.max(h)) * 1.0001
        # the gauge of the body is the support function of its polar, which
        # polar_dual returns
        self._polar = RadialBody2D(_reciprocal(self.h))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(_dot(u, u)) * self.h(np.arctan2(u[..., 1], u[..., 0]))

    def support_point(self, u):
        u = _unit(u)
        h, h1, _ = self.h.jet(np.arctan2(u[..., 1], u[..., 0]))
        return h[..., None] * u + h1[..., None] * rot90(u)

    def support_hess(self, u):
        u = np.asarray(u, dtype=float)
        h, _, h2 = self.h.jet(np.arctan2(u[..., 1], u[..., 0]))
        n = np.sqrt(_dot(u, u))[..., None]
        t = rot90(u) / n
        return (h + h2)[..., None, None] * (t[..., :, None] * t[..., None, :]) / n[..., None]

    def gauss_inverse(self, u):
        return self.support_point(u)

    def implicit(self, x):
        # F = gauge - 1: the gauge is 1-homogeneous, so <x, grad> by Euler
        x = np.asarray(x, dtype=float)
        return _dot(x, self.implicit_grad(x)) - 1.0

    def implicit_grad(self, x):
        # the gradient of the polar's support function at x is its support
        # point: the polar boundary point whose normal angle is arg x
        x = np.asarray(x, dtype=float)
        return self._polar.boundary_point(self._polar._gauss_angle(x))

    def implicit_hess(self, x):
        return self._polar.support_hess(x)

    def _boundary_grad(self, p):
        # the boundary check takes F = <p, grad F> - 1 from the one gradient:
        # one normal-angle solve of the polar, not one for F and one for grad F
        p = np.asarray(p, dtype=float)
        g = self.implicit_grad(p)
        return self._require_boundary(p, _dot(p, g) - 1.0, g), g

    def bounding_radius(self):
        return self._radius

    def volume(self):
        # (1/2) integral of h^2 - h'^2, by the trapezoid rule on the table
        h, h1, _ = self.h.table
        return math.pi * float(np.mean(h * h - h1 * h1))

    def _exit(self, p, v, f_p=None):
        """Exit of the line through p along v at x(theta) = h u + h' u_perp: on
        |theta - phi_v| <= pi/2, <x - p, nu> (nu = rot90(v)) rises with slope
        (h + h'') <u, v> from -h(-nu) - <p, nu> to h(nu) - <p, nu>, an exact
        bracket.  Without it a line (f_p None) misses the body; a ray from a
        point of the body (f_p given) touches it, up to rounding."""
        nu, phi = rot90(v), np.arctan2(v[..., 1], v[..., 0])
        c, lo, hi = _dot(p, nu), phi - 0.5 * math.pi, phi + 0.5 * math.pi
        s_lo, s_hi = -self.h(lo) - c, self.h(hi) - c
        if f_p is None and np.any((s_lo > 0.0) | (s_hi < 0.0)):
            raise DomainError("line misses the body")

        def offset(theta, rows=...):
            h, h1, h2 = self.h.jet(theta)
            cos, sin = np.cos(theta), np.sin(theta)
            un = cos * nu[..., 0][rows] + sin * nu[..., 1][rows]
            uv = cos * v[..., 0][rows] + sin * v[..., 1][rows]
            return h * un + h1 * uv - c[rows], (h + h2) * uv

        theta = find_root(offset, lo, hi, f_lo=np.minimum(s_lo, 0.0), f_hi=np.maximum(s_hi, 0.0))
        return _dot(self.support_point(np.stack([np.cos(theta), np.sin(theta)], -1)) - p, v)

    def last_intersection(self, line: OrientedLine):
        # the exit needs no interior point of the line
        return line.at(self._exit(line.point, line.direction))


class LinearImageBody(ConvexBody):
    """Image B(K) of a body K under an invertible linear map B."""

    def __init__(self, base: ConvexBody, B):
        self.base = base
        self.B = np.asarray(B, dtype=float)
        self.B_inv = np.linalg.inv(self.B)
        self.dim = base.dim
        self._radius = base.bounding_radius() * float(
            np.linalg.norm(self.B, ord=2))

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.implicit(_apply(self.B_inv, x))

    def implicit_grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.implicit_grad(_apply(self.B_inv, x)) @ self.B_inv

    def implicit_hess(self, x):
        H = self.base.implicit_hess(_apply(self.B_inv, np.asarray(x, dtype=float)))
        return self.B_inv.T @ H @ self.B_inv

    def bounding_radius(self):
        return self._radius

    def gauss_inverse(self, u):
        return _apply(self.B, self.base.gauss_inverse(_unit(_unit(u) @ self.B)))

    def support(self, u):
        return self.base.support(np.asarray(u, dtype=float) @ self.B)

    def support_hess(self, u):
        H = self.base.support_hess(_apply(self.B.T, np.asarray(u, dtype=float)))
        return self.B @ H @ self.B.T

    def _boundary_in_direction(self, s):
        s = np.asarray(s, dtype=float)
        return _apply(self.B, self.base._boundary_in_direction(_apply(self.B_inv, s)))

    def _exit(self, p, v, f_p):
        # the ray is the image of the ray from B^-1 p along w = B^-1 v in K
        w = _apply(self.B_inv, v)
        n = np.sqrt(_dot(w, w))
        return self.base._exit(_apply(self.B_inv, p), w / np.expand_dims(n, -1), f_p) / n

    def volume(self):
        return abs(float(np.linalg.det(self.B))) * self.base.volume()


class PolarBody(ConvexBody):
    """Polar dual {x : h_K(x) <= 1} of a body K containing the origin."""

    def __init__(self, base: ConvexBody):
        if not base.contains(np.zeros(base.dim)):
            raise OriginNotInteriorError("polar dual needs the origin inside")
        self.base = base
        self.dim = base.dim
        # the hull of the base's nearer boundary points on +-e_i (at distances
        # r_i) lies in the base and has inradius >= 1 / sqrt(sum r_i^-2), a
        # lower bound on h_base; its reciprocal bounds the polar's reach
        r = [min(np.linalg.norm(base._boundary_in_direction(s * e)) for s in (1.0, -1.0))
             for e in np.eye(self.dim)]
        self._radius = math.sqrt(sum(1.0 / ri ** 2 for ri in r))

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        origin = ~np.any(x, axis=-1)
        # the base's support takes no zero vector; the origin reads -1
        h = self.base.support(np.where(origin[..., None], 1.0, x))
        return np.where(origin, -1.0, h - 1.0)[()]

    def implicit_grad(self, x):
        # gradient of the support function is the touching point of the base
        return self.base.support_point(np.asarray(x, dtype=float))

    def implicit_hess(self, x):
        return self.base.support_hess(x)

    def support_hess(self, u):
        # the support function of the polar is the gauge of the base
        return self.base.gauge_hess(u)

    def _boundary_in_direction(self, s):
        s = np.asarray(s, dtype=float)
        return s / np.asarray(self.base.support(s))[..., None]

    def gauss_inverse(self, u):
        # Legendre involutivity: the polar boundary point with exterior
        # normal u is n(p)/<n(p), p> for p the base boundary point on the
        # ray of u
        u = _unit(u)
        p = self.base._boundary_in_direction(u)
        n = _unit(self.base.implicit_grad(p))
        return n / _dot(n, p)[..., None]

    def bounding_radius(self):
        return self._radius * 1.001


class Polygon2D:
    """Convex polygon (vertices counterclockwise, origin inside).

    Admitted only for polar duality and volume computations; it is not a
    smooth ConvexBody and cannot be used in reflection operations.
    """

    dim = 2

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or len(V) < 3:
            raise DomainError("polygon needs at least three planar vertices")
        if self._signed_area(V) < 0.0:
            V = V[::-1]
        self.vertices = V

    @staticmethod
    def _signed_area(V):
        x, y = V[:, 0], V[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        return 0.5 * float(np.sum(x * yn - xn * y))

    def volume(self):
        return abs(self._signed_area(self.vertices))

    def support(self, u):
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def polar(self):
        """Polar dual polygon: each edge <a, x> = 1 maps to the vertex a."""
        V = self.vertices
        W = np.roll(V, -1, axis=0)
        duals = []
        for v, w in zip(V, W):
            M = np.stack([v, w])
            try:
                a = np.linalg.solve(M, np.ones(2))
            except np.linalg.LinAlgError as exc:
                raise OriginNotInteriorError(
                    "polygon edge line passes through the origin") from exc
            duals.append(a)
        return Polygon2D(np.asarray(duals))


# ---------------------------------------------------------------------------
# Hypersurface germs
# ---------------------------------------------------------------------------

class PlanarGerm:
    """Planar curve germ y = h(x) with polynomial Taylor data to order >= 5.

    Coefficients are of the monomial expansion h(x) = sum c[k] x^k with
    c[0] = c[1] = 0 and c[2] > 0 (tangent to the x-axis at the origin,
    curving upward).
    """

    def __init__(self, coeffs, radius=1.0):
        c = np.asarray(coeffs, dtype=float)
        if len(c) < 3:
            c = np.concatenate([c, np.zeros(3 - len(c))])
        if abs(c[0]) > 0 or abs(c[1]) > 0:
            raise DomainError("germ must vanish to first order at the origin")
        if c[2] <= 0.0:
            raise ConvexityViolationError("germ quadratic part must be positive")
        self.coeffs = c
        self.radius = float(radius)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def h(self, x):
        return np.polyval(self.coeffs[::-1], np.asarray(x, dtype=float))

    def derivative(self, x, order=1):
        c = np.polyder(np.poly1d(self.coeffs[::-1]), order)
        return np.polyval(c, np.asarray(x, dtype=float))

    def jet(self, x, order=5):
        """[h, h', ..., h^(order)] at x."""
        return np.array([self.h(x) if k == 0 else self.derivative(x, k)
                         for k in range(order + 1)], dtype=float)

    def second_fundamental_form(self):
        """Curvature at the origin (the 1x1 second fundamental form)."""
        return np.array([[2.0 * self.coeffs[2]]])

    def rescaled(self, lam):
        """Unit-curvature-preserving chart zoom h(x) -> h(lam x)/lam^2."""
        k = np.arange(len(self.coeffs), dtype=float)
        return PlanarGerm(self.coeffs * lam ** (k - 2.0), self.radius / lam)


class GraphGerm:
    """Hypersurface germ x_n = h(x_1, ..., x_{n-1}) with Taylor data.

    ``terms`` maps exponent tuples of length n-1 to coefficients, total
    degree at most 5; the constant and linear parts must vanish and the
    quadratic part must be positive definite.
    """

    def __init__(self, nvars, terms, radius=1.0, require_convex=True):
        self.nvars = int(nvars)
        self.poly = MPoly(self.nvars, terms, max_degree=5)
        self.radius = float(radius)
        for alpha, c in self.poly.terms.items():
            if sum(alpha) <= 1 and c != 0.0:
                raise DomainError("germ must vanish to first order at the origin")
        Q = self.quadratic_form()
        if require_convex and np.min(np.linalg.eigvalsh(Q)) <= 0.0:
            raise ConvexityViolationError("germ quadratic part must be positive definite")

    @property
    def dim(self):
        return self.nvars + 1

    def quadratic_form(self):
        """Symmetric matrix Q with quadratic part = <Qx, x>."""
        n = self.nvars
        Q = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                c = self.poly.coeff(tuple(alpha))
                Q[i, j] = c if i == j else 0.5 * c
        return Q

    def second_fundamental_form(self):
        """Second fundamental form at the origin (tangent frame = axes)."""
        return 2.0 * self.quadratic_form()

    def h(self, x):
        return self.poly.eval(np.asarray(x, dtype=float))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([self.poly.partial(i).eval(x) for i in range(self.nvars)])

    def coeff(self, alpha):
        return self.poly.coeff(alpha)

    def section_along_axis(self, i=0):
        """Planar germ of the intersection with the (x_i, x_n) plane."""
        return PlanarGerm(self.poly.restrict_to_axis(i), self.radius)

    def graph_normal(self, x):
        """Downward-oriented unit normal (grad h, -1)/norm at x."""
        g = self.gradient(x)
        v = np.concatenate([g, [-1.0]])
        return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Duality operations
# ---------------------------------------------------------------------------

def legendre_point(body: ConvexBody, v):
    """Legendre image D(v) = n(v)/<n(v), v> of a boundary point.

    D(v) is orthogonal to the tangent plane at v and satisfies
    <D(v), v> = 1; under the Euclidean identification this is the Gauss
    map rescaled by a positive function.
    """
    v = np.asarray(v, dtype=float)
    n = body.exterior_normal(v)
    s = float(np.dot(n, v))
    if s <= 0.0:
        raise OriginNotInteriorError(
            "Legendre transform needs the origin strictly inside the body")
    return n / s


def polar_dual(body):
    """Polar dual body {y : <x, y> <= 1 for every x in the body}, in
    closed form for every library body.

    The support function of the polar is the gauge of the body and its
    radial function is 1 / h (Schneider, *Convex Bodies*): a radial body
    r maps to the support body 1/r, a support body h to the radial body
    1/h (as ReciprocalSeries, whose polar hands back the original series,
    so the second polar has the body's class and bits), and a linear image
    B K to B^-T K polar.  Ellipsoids map to the inverse matrix,
    superellipses to the dual exponent, polygons to the dual polygon and
    a PolarBody to its base.  Other ConvexBody subclasses get the generic
    PolarBody, whose queries go through the base's support function.

    The polar is built on the first call and kept with the body (bodies
    are immutable), so later calls return that same object; threads that
    ask at once may each build one, all equal."""
    polar = getattr(body, "_polar", None)
    if polar is None:
        polar = body._polar = _build_polar(body)
    return polar


def _build_polar(body):
    if isinstance(body, Ellipsoid):
        return Ellipsoid(body.A_inv)
    if isinstance(body, Superellipse):
        q = body.m / (body.m - 1.0)
        # dual norm of a weighted m-norm is the weighted q-norm
        return Superellipse(exponent=q, semiaxes=1.0 / body.a)
    if isinstance(body, Polygon2D):
        return body.polar()
    if isinstance(body, RadialBody2D):
        return SupportBody2D(_reciprocal(body.radial))
    if isinstance(body, LinearImageBody):
        return LinearImageBody(polar_dual(body.base), body.B_inv.T)
    if isinstance(body, PolarBody):
        return body.base
    if not body.contains(np.zeros(body.dim)):
        raise OriginNotInteriorError("polar dual needs the origin inside")
    return PolarBody(body)


def mirror_symmetric(body: ConvexBody, tol_points=32):
    """Check central symmetry.  Ellipsoids and superellipses are symmetric
    by construction; radial and support bodies are when the odd harmonics
    of their series total at most SYMMETRY_TOL times the bounding radius;
    a linear image or a polar is when its base is.  For other bodies,
    tol_points sampled support values at +-u agree to SYMMETRY_TOL."""
    if isinstance(body, (Ellipsoid, Superellipse)):
        return True
    if isinstance(body, (LinearImageBody, PolarBody)):
        return mirror_symmetric(body.base, tol_points)
    if isinstance(body, (RadialBody2D, SupportBody2D)):
        series = body.radial if isinstance(body, RadialBody2D) else body.h
        return series.odd_total() <= SYMMETRY_TOL * body.bounding_radius()
    rng = np.random.default_rng(11)
    for _ in range(tol_points):
        u = _unit(rng.normal(size=body.dim))
        if abs(body.support(u) - body.support(-u)) > SYMMETRY_TOL * body.bounding_radius():
            return False
    return True


# ---------------------------------------------------------------------------
# Body definition files
# ---------------------------------------------------------------------------

class BodyFileError(ValueError):
    """Raised with a line number when a body definition cannot be parsed."""


def parse_body_text(text):
    """Parse the key/value body definition grammar (see README)."""
    data = {}
    germ_terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BodyFileError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("c[") and key.endswith("]"):
            inside = key[2:-1]
            try:
                alpha = tuple(int(tok) for tok in inside.split(","))
            except ValueError as exc:
                raise BodyFileError(f"line {lineno}: bad germ index '{key}'") from exc
            try:
                germ_terms[alpha] = float(value)
            except ValueError as exc:
                raise BodyFileError(f"line {lineno}: bad number '{value}'") from exc
        else:
            data[key] = (value, lineno)
    return data, germ_terms


def _get(data, key, conv, default=None, required=False):
    if key not in data:
        if required:
            raise BodyFileError(f"missing required key '{key}'")
        return default
    value, lineno = data[key]
    try:
        return conv(value)
    except ValueError as exc:
        raise BodyFileError(f"line {lineno}: bad value for '{key}'") from exc


def _floats(s):
    return np.array([float(tok) for tok in s.replace(",", " ").split()])


def body_from_text(text):
    """Build a body from definition text; raises BodyFileError on errors."""
    data, germ_terms = parse_body_text(text)
    kind = _get(data, "kind", str, required=True)
    if kind == "ellipsoid":
        dim = _get(data, "dim", int, required=True)
        A = _get(data, "matrix", _floats, required=True)
        if len(A) != dim * dim:
            raise BodyFileError("matrix length does not match dim^2")
        return Ellipsoid(A.reshape(dim, dim))
    if kind == "ball":
        dim = _get(data, "dim", int, default=2)
        r = _get(data, "radius", float, default=1.0)
        return Ball(r, dim)
    if kind == "superellipse":
        dim = _get(data, "dim", int, default=2)
        m = _get(data, "exponent", float, default=4.0)
        semi = _get(data, "semiaxes", _floats, default=np.ones(dim))
        return Superellipse(exponent=m, semiaxes=semi)
    if kind == "radial":
        cc = _get(data, "fourier_cos", _floats, required=True)
        sc = _get(data, "fourier_sin", _floats, default=np.zeros(1))
        return RadialBody2D(cc, sc)
    if kind == "support":
        cc = _get(data, "fourier_cos", _floats, required=True)
        sc = _get(data, "fourier_sin", _floats, default=np.zeros(1))
        return SupportBody2D(cc, sc)
    if kind == "polygon":
        v = _get(data, "vertices", _floats, required=True)
        if len(v) % 2:
            raise BodyFileError("vertices must be an even list of floats")
        return Polygon2D(v.reshape(-1, 2))
    if kind == "graph_germ":
        dim = _get(data, "dim", int, default=2)
        radius = _get(data, "radius_of_validity", float, default=1.0)
        if not germ_terms:
            raise BodyFileError("graph_germ needs c[...] coefficient entries")
        nvars = dim - 1
        if nvars == 1:
            order = max(a[0] for a in germ_terms)
            coeffs = np.zeros(max(order + 1, 6))
            for alpha, c in germ_terms.items():
                if len(alpha) != 1:
                    raise BodyFileError("planar germ uses single-index c[i] entries")
                coeffs[alpha[0]] = c
            return PlanarGerm(coeffs, radius)
        terms = {}
        for alpha, c in germ_terms.items():
            if len(alpha) != nvars:
                raise BodyFileError(
                    f"germ index arity {len(alpha)} does not match dim-1 = {nvars}")
            terms[alpha] = c
        return GraphGerm(nvars, terms, radius)
    raise BodyFileError(f"unknown body kind '{kind}'")


def load_body(path):
    with open(path, "r", encoding="utf-8") as fh:
        return body_from_text(fh.read())
