"""Orbit iteration, minimal-action closed orbits, capacities, Mahler products.

Orbit segments are measured with the support function of the reflecting
body T: the length of the step q -> q' is h_T(q' - q), evaluated on the
directed chord.  The minimal action of a closed orbit over all bounce
counts is the capacity estimate for the product body.
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
    Superellipse,
    _unit,
    mirror_symmetric,
    polar_dual,
    unit_vector,
)
from .errors import DomainError, GrazingError, PreconditionError
from .reflection import t_billiard_reflect
from .solvers import least_squares


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
    stationarity: float | None = None

    def n_bounces(self):
        return len(self.points)


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
            if float(np.dot(direction, n_K)) <= 1e-6:
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

def _action_and_gradient(K, T, thetas, m, n_angles, fd_step=1e-6):
    """Action of the closed polygon and its gradient in boundary angles.

    The gradient uses the support-function envelope: the derivative of
    h_T(q' - q) in q is minus the touching point of T, paired with the
    finite-difference velocity of the boundary chart.
    """
    qs = np.array([K.gauss_point(thetas[i * n_angles:(i + 1) * n_angles])
                   for i in range(m)])
    diffs = qs[(np.arange(m) + 1) % m] - qs
    norms = np.linalg.norm(diffs, axis=1)
    if np.any(norms < 1e-9 * K.diameter()):
        return None, None, qs
    action = float(sum(T.support(d) for d in diffs))
    touch = np.array([T.support_point(d) for d in diffs])
    grad = np.zeros_like(thetas)
    for i in range(m):
        block = slice(i * n_angles, (i + 1) * n_angles)
        for a in range(n_angles):
            th = thetas[block].copy()
            th[a] += fd_step
            q_plus = K.gauss_point(th)
            th[a] -= 2.0 * fd_step
            q_minus = K.gauss_point(th)
            dq = (q_plus - q_minus) / (2.0 * fd_step)
            grad[i * n_angles + a] = float(
                np.dot(touch[i - 1] - touch[i], dq))
    return action, grad, qs


def closed_orbit_search(K: ConvexBody, T: ConvexBody, m, multistarts=32,
                        seed=0, max_iter=500):
    """Minimal-action closed m-bounce orbit of the T-billiard in K.

    Closed orbits are the stationary polygons of the action
    sum h_T(q_{i+1} - q_i) over m-tuples of boundary points; stationarity
    at each vertex is exactly the T-billiard reflection law.  The
    stationarity system is solved by Levenberg-Marquardt from uniform
    and antipodal multistart seeds, degenerate polygons (consecutive
    points closer than the distinctness threshold) are rejected, and the
    least action among the surviving orbits is returned.
    """
    if m < 2:
        raise DomainError("closed orbits need at least two bounces")
    n_angles = K.dim - 1
    rng = np.random.default_rng(seed)
    scale = max(T.support(unit_vector(np.zeros(n_angles), K.dim)), 1.0)
    tol_stationary = 1e-8 * scale * K.diameter()

    def residual(thetas):
        action, grad, _ = _action_and_gradient(K, T, thetas, m, n_angles)
        if action is None:
            return np.full(m * n_angles, 1e3)
        return grad

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
        sol = least_squares(residual, seed_theta, method="lm",
                            max_nfev=max_iter, xtol=1e-15, ftol=1e-15)
        action, grad, qs = _action_and_gradient(K, T, sol.x, m, n_angles)
        if action is None:
            continue
        stat = float(np.max(np.abs(grad)))
        candidate = Orbit(qs, _directions_of(qs), _lengths_of(T, qs),
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
    if isinstance(K, Superellipse):
        return K.volume() * polar_dual(K).volume()
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
