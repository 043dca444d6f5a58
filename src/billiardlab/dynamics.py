"""Orbit iteration, minimal-action closed orbits, capacities, Mahler products.

Orbit segments are measured with the support function of the reflecting
body T: the length of the step q -> q' is h_T(q' - q), evaluated on the
directed chord.  The minimal action of a closed orbit over all bounce
counts is the capacity estimate for the product body.

Closed orbits are zeros of the action gradient over m-tuples of boundary
points.  Each point moves in a radial chart of K (the boundary point on
the ray of a unit direction), and a trust-region least-squares solver
finds the zeros with the exact Jacobian, assembled from the gradient and
Hessian of F_K and the support Hessian of T; nothing is differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    ConvexBody,
    Ellipsoid,
    OrientedLine,
    Polygon2D,
    _unit,
    mirror_symmetric,
    polar_dual,
    tangent_frame,
    unit_vector,
)
from .errors import DomainError, GrazingError, PreconditionError
from .reflection import GRAZING_ANGLE, t_billiard_reflect
from .solvers import least_squares

ORBIT_MAX_NFEV = 500  # residual evaluations per closed_orbit_search solve


def finsler_length(T: ConvexBody, dq):
    """Length of a directed chord in the T-billiard action functional."""
    return T.support(np.asarray(dq, dtype=float))


@dataclass
class Orbit:
    """Bounce points on dK with directions, segment lengths, and action."""

    points: np.ndarray
    directions: np.ndarray
    lengths: np.ndarray
    action: float
    closed: bool = False
    status: str = "ok"
    # closed-orbit search: the reflection-law defect max_i |P_i(t_{i-1} - t_i)|
    # (P_i the tangent projection of K at vertex i, t_i the touching point of
    # T for segment i)
    stationarity: float | None = None


@dataclass(frozen=True)
class KTSegment:
    """One straight piece of the lifted orbit: q moves or p moves."""

    kind: str  # "q" or "p"
    q_start: np.ndarray
    p_start: np.ndarray
    q_end: np.ndarray
    p_end: np.ndarray


@dataclass
class KTOrbit:
    """Alternating q/p motion in the product phase space."""

    segments: list[KTSegment] = field(default_factory=list)
    status: str = "ok"

    def q_polygon(self):
        """Vertices of the q-projection (the billiard bounce points)."""
        return np.array([s.q_end for s in self.segments if s.kind == "q"])


def iterate_t_billiard(K: ConvexBody, T: ConvexBody, line: OrientedLine, steps):
    """Iterate the T-billiard map, recording bounce points and lengths.

    Grazing incidence truncates the orbit and marks its status.
    """
    points = []
    directions = [line.direction]
    current = line
    status = "ok"
    for _ in range(int(steps)):
        try:
            current = t_billiard_reflect(K, T, current)
        except GrazingError:
            status = "grazing"
            break
        points.append(current.point)
        directions.append(current.direction)
    points = np.asarray(points).reshape(-1, K.dim)
    lengths = np.array([finsler_length(T, points[i + 1] - points[i])
                        for i in range(len(points) - 1)])
    closed = False
    if len(points) >= 3:
        tol = 1e-9 * K.diameter()
        gaps = np.linalg.norm(points[1:] - points[0], axis=1)
        closed = bool(np.any(gaps < tol))
    return Orbit(points, np.asarray(directions), lengths,
                 float(np.sum(lengths)), closed=closed, status=status)


def lift_kt_orbit(K: ConvexBody, T: ConvexBody, line: OrientedLine, steps):
    """Lift a billiard trajectory to the alternating orbit in (q, p) space.

    q moves along the exterior normal of dT at the current p; when q
    reaches dK, p moves along the interior normal of dK at the bounce
    point until it reaches dT again.
    """
    if not K.contains(line.point):
        raise PreconditionError("lifted orbit starts at an interior point of K")
    orbit = KTOrbit()
    q = np.asarray(line.point, dtype=float)
    p = T.gauss_inverse(line.direction)
    for _ in range(int(steps)):
        direction = T.exterior_normal(p)
        try:
            q_next = K.last_intersection(OrientedLine(q, direction))
            n_K = K.exterior_normal(q_next)
            if float(np.dot(direction, n_K)) <= GRAZING_ANGLE:
                raise GrazingError("grazing in lifted orbit")
            p_next = T.chord_second_intersection(p, n_K)
        except GrazingError:
            orbit.status = "grazing"
            break
        orbit.segments.append(KTSegment("q", q, p, q_next, p))
        orbit.segments.append(KTSegment("p", q_next, p, q_next, p_next))
        q, p = q_next, p_next
    return orbit


# ---------------------------------------------------------------------------
# Closed orbits by stationarity of the action
# ---------------------------------------------------------------------------

def _sphere_chart(phi, frame):
    """s = frame @ unit_vector(phi) with its first derivatives S (columns,
    one per angle) and second derivatives S2[a, b] in the angles."""
    if len(phi) == 1:
        c, s = math.cos(phi[0]), math.sin(phi[0])
        u = np.array([c, s])
        U = np.array([[-s], [c]])
        U2 = -u[None, None, :]
    else:
        ca, sa = math.cos(phi[0]), math.sin(phi[0])
        cp, sp = math.cos(phi[1]), math.sin(phi[1])
        u = np.array([ca * sp, sa * sp, cp])
        U = np.array([[-sa * sp, ca * cp], [ca * sp, sa * cp], [0.0, -sp]])
        u_ap = np.array([-sa * cp, ca * cp, 0.0])
        U2 = np.array([[[-ca * sp, -sa * sp, 0.0], u_ap], [u_ap, -u]])
    return frame @ u, frame @ U, U2 @ frame.T


class _StationaritySystem:
    """Gradient of the action sum h_T(q_{i+1} - q_i) in radial charts of K,
    and its exact Jacobian.

    Vertex i is q_i = rho_K(s_i) s_i, the boundary point on the ray of
    s_i = frames[i] @ unit_vector(phi_i) from the origin (inside every
    body).  With nu = grad F / <grad F, q>, the chart derivative is
    J = rho (I - q nu^T) S, S = ds/dphi; it needs only the gradient of F, so
    it stays regular at flat points.  The gradient block of vertex i is
    J_i^T w_i with w_i = t_{i-1} - t_i and t_i = grad h_T(q_{i+1} - q_i).
    """

    def __init__(self, K, T, frames):
        self.K, self.T, self.frames = K, T, frames
        self.min_gap = 1e-9 * K.diameter()
        self._x = None

    def evaluate(self, x):
        """Vertices, charts and gradient at x; kept until x changes, since
        the solver asks for the Jacobian at the point it just evaluated."""
        if self._x is not None and np.array_equal(x, self._x):
            return
        K, T = self.K, self.T
        m = len(self.frames)
        phis = np.asarray(x, dtype=float).reshape(m, -1)
        self.charts = [_sphere_chart(phi, R) for phi, R in zip(phis, self.frames)]
        self.qs = np.array([K._boundary_in_direction(s) for s, _, _ in self.charts])
        self.rhos = np.linalg.norm(self.qs, axis=1)
        self.grads = np.array([K.implicit_grad(q) for q in self.qs])
        self.nus = self.grads / np.einsum("ij,ij->i", self.grads, self.qs)[:, None]
        self.Js = [rho * (S - np.outer(q, nu @ S)) for (_, S, _), rho, q, nu
                   in zip(self.charts, self.rhos, self.qs, self.nus)]
        self.diffs = self.qs[(np.arange(m) + 1) % m] - self.qs
        self.degenerate = bool(np.any(np.linalg.norm(self.diffs, axis=1) < self.min_gap))
        if not self.degenerate:
            touch = np.array([T.support_point(d) for d in self.diffs])
            self.ws = touch[np.arange(m) - 1] - touch
            self.rs = np.array([J.T @ w for J, w in zip(self.Js, self.ws)])
        self._x = np.array(x, dtype=float)

    def residual(self, x):
        self.evaluate(x)
        if self.degenerate:
            return np.full(np.size(x), 1e3)
        return self.rs.ravel()

    def jacobian(self, x):
        """Block-cyclic Hessian of the action in the chart angles.

        Blocks: J_i^T (H_{i-1} + H_i) J_i plus the chart curvature term on
        the diagonal, -J_i^T H_i J_{i+1} and -J_i^T H_{i-1} J_{i-1} off it,
        with H_i the support Hessian of T at q_{i+1} - q_i.
        """
        self.evaluate(x)
        m = len(self.frames)
        k = self.Js[0].shape[1]
        jac = np.zeros((m * k, m * k))
        if self.degenerate:
            return jac
        Hs = [self.T.support_hess(d) for d in self.diffs]
        for i in range(m):
            prev, nxt = (i - 1) % m, (i + 1) % m
            J, w, r, q, nu, rho = (self.Js[i], self.ws[i], self.rs[i], self.qs[i],
                                   self.nus[i], self.rhos[i])
            S, S2 = self.charts[i][1:]
            a = S.T @ nu
            wq = float(w @ q)
            # second derivative of the chart s -> s / g_K(s) contracted with
            # w: the gauge Hessian of K, the nu-coupling term and the
            # curvature of the angle chart itself
            ar = rho * np.outer(a, r)
            G = self.K._gauge_hess_at(q, self.grads[i])
            curv = (-rho * rho * wq * (S.T @ G @ S)
                    - ar - ar.T + S2 @ (rho * (w - wq * nu)))
            rows = slice(i * k, (i + 1) * k)
            jac[rows, rows] += J.T @ (Hs[prev] + Hs[i]) @ J + curv
            jac[rows, nxt * k:(nxt + 1) * k] -= J.T @ Hs[i] @ self.Js[nxt]
            jac[rows, prev * k:(prev + 1) * k] -= J.T @ Hs[prev] @ self.Js[prev]
        return jac

    def reflection_defect(self):
        """max_i |P_i (t_{i-1} - t_i)|, P_i the projection onto the tangent
        plane of K at q_i: zero exactly when every vertex obeys the
        T-billiard reflection law."""
        ns = self.grads / np.linalg.norm(self.grads, axis=1)[:, None]
        tangential = self.ws - np.einsum("ij,ij->i", self.ws, ns)[:, None] * ns
        return float(np.max(np.linalg.norm(tangential, axis=1)))


def _seed_charts(K, angles_list):
    """Radial charts through the boundary points with Gauss angles
    ``angles_list``: (frames, initial angles).

    In the plane the chart is the global angle; in space each vertex gets
    an (azimuth, polar) chart centered on its seed direction, at (0, pi/2),
    far from the chart's poles.
    """
    dirs = [_unit(K.gauss_point(a)) for a in angles_list]
    if K.dim == 2:
        frames = [np.eye(2)] * len(dirs)
        x0 = np.array([math.atan2(s[1], s[0]) for s in dirs])
    else:
        frames = [np.column_stack([s, tangent_frame(s).T]) for s in dirs]
        x0 = np.tile([0.0, math.pi / 2.0], len(dirs))
    return frames, x0


def closed_orbit_search(K: ConvexBody, T: ConvexBody, m, multistarts=32,
                        seed=0):
    """Minimal-action closed m-bounce orbit of the T-billiard in K.

    Closed orbits are the stationary polygons of the action
    sum h_T(q_{i+1} - q_i) over m-tuples of boundary points; stationarity
    at each vertex is exactly the T-billiard reflection law.  Each vertex
    moves in a radial chart of K (the boundary point on the ray of a unit
    direction), and the stationarity system is solved by scipy's
    trust-region reflective least squares (exact Jacobian, ORBIT_MAX_NFEV)
    from uniform and perturbed multistart polygons (boundary points with
    equally spaced exterior normals).  Degenerate polygons (consecutive
    points closer than the distinctness threshold) are rejected, and the
    least action among the orbits whose reflection-law defect
    (``Orbit.stationarity``) is within 1e-8 * scale * diam(K) is
    returned; if there is none, the orbit with the smallest defect is
    returned with status "stagnated".
    """
    if m < 2:
        raise DomainError("closed orbits need at least two bounces")
    n_angles = K.dim - 1
    rng = np.random.default_rng(seed)
    scale = max(T.support(unit_vector(np.zeros(n_angles), K.dim)), 1.0)
    tol_stationary = 1e-8 * scale * K.diameter()

    seeds = []
    for s in range(multistarts):
        offset = 2.0 * math.pi * s / multistarts
        base = offset + 2.0 * math.pi * np.arange(m) / m
        if n_angles == 1:
            seeds.append(base)
        else:
            polar = rng.uniform(0.3, math.pi - 0.3, size=m)
            seeds.append(np.column_stack([base, polar]).ravel())
        if s >= multistarts // 2:
            seeds[-1] = seeds[-1] + rng.normal(scale=0.3, size=m * n_angles)

    best = None
    best_key = None
    best_found = None
    for idx, seed_theta in enumerate(seeds):
        frames, x0 = _seed_charts(K, seed_theta.reshape(m, n_angles))
        system = _StationaritySystem(K, T, frames)
        # Trust-region reflective rather than scipy's MINPACK "lm": with an
        # exact, nearly singular Jacobian (m = 2 with T the polar of K, where
        # every antipodal pair is stationary) "lm" reads uninitialized memory
        # and its iterates change from call to call.  The default gtol (on
        # |J^T f|) would stop with reflection-law defects near 1e-9.
        sol = least_squares(system.residual, x0, jac=system.jacobian, method="trf",
                            max_nfev=ORBIT_MAX_NFEV, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        system.evaluate(sol.x)
        if system.degenerate:
            continue
        qs = system.qs
        lengths = _lengths_of(T, qs)
        action = float(sum(lengths))
        stat = system.reflection_defect()
        candidate = Orbit(qs, _directions_of(qs), lengths,
                          action, closed=True, status="ok", stationarity=stat)
        if best_found is None or stat < best_found.stationarity:
            best_found = candidate
        if stat > tol_stationary:
            continue
        key = (round(action / (1e-9 * scale)), idx)
        if best is None or key < best_key:
            best, best_key = candidate, key
    if best is None:
        if best_found is None:
            raise DomainError("no admissible closed polygon found")
        best_found.status = "stagnated"
        return best_found
    return best


def _directions_of(qs):
    m = len(qs)
    return np.array([_unit(qs[(i + 1) % m] - qs[i]) for i in range(m)])


def _lengths_of(T, qs):
    m = len(qs)
    return np.array([finsler_length(T, qs[(i + 1) % m] - qs[i])
                     for i in range(m)])


@dataclass
class CapacityReport:
    """Minimal action over bounce counts, with the per-m table."""

    value: float
    best_orbit: Orbit
    table: list  # rows (m, action, stationarity)


def capacity_estimate(K: ConvexBody, T: ConvexBody, m_max, multistarts=32,
                      seed=0):
    """Capacity of K x T as the minimal action over closed T-billiard
    orbits with 2..m_max bounces."""
    if m_max < 2:
        raise DomainError("m_max must be at least 2")
    table = []
    best = None
    for m in range(2, int(m_max) + 1):
        orbit = closed_orbit_search(K, T, m, multistarts=multistarts, seed=seed)
        table.append((m, orbit.action, orbit.stationarity))
        if orbit.status == "ok" and (best is None or orbit.action < best.action):
            best = orbit
    if best is None:
        raise DomainError("no closed orbit found for any bounce count")
    return CapacityReport(best.action, best, table)


# ---------------------------------------------------------------------------
# Volume products
# ---------------------------------------------------------------------------

def mahler_product(K):
    """vol(K) * vol(K polar) for a centrally symmetric body.

    Exact for ellipsoids, superellipses and polygons; quadrature or
    quasi-Monte Carlo otherwise.
    """
    if isinstance(K, Polygon2D):
        return K.volume() * K.polar().volume()
    if isinstance(K, Ellipsoid):
        unit_ball = math.pi ** (K.dim / 2.0) / math.gamma(K.dim / 2.0 + 1.0)
        return unit_ball ** 2
    if not mirror_symmetric(K):
        raise DomainError("Mahler product needs a centrally symmetric body")
    return K.volume() * polar_dual(K).volume()


def viterbo_ratio(K: ConvexBody, T: ConvexBody, m_max=5, **kw):
    """Exploration quantity capacity^n / (n! vol(K) vol(T))."""
    n = K.dim
    if T.dim != n:
        raise DomainError("bodies must share their dimension")
    cap = capacity_estimate(K, T, m_max, **kw).value
    return cap ** n / (math.factorial(n) * K.volume() * T.volume())
