"""Orbit iteration, minimal-action closed orbits, capacities, Mahler products.

The T-billiard orbit is the q-projection of the (K, T) lift, and one
bounce loop, ``reflection._bounces``, gives both: an ellipsoid T
transports the direction in closed form, any other T carries the end of
its chord.  Orbit segments are measured with the support function of the
reflecting body T: the length of the step q -> q' is h_T(q' - q),
evaluated on the directed chord.  The minimal action of a closed orbit
over all bounce counts is the capacity estimate for the product body.

Closed orbits are zeros of the action gradient over m-tuples of boundary
points.  Each point moves in a radial chart of K (the boundary point on
the ray of a unit direction), and a batched Levenberg-Marquardt solver
(``solvers.levenberg_marquardt``, imported here as ``least_squares``)
finds the zeros of all multistart polygons in one call, with exact
Jacobians assembled from the gradient and Hessian of F_K and the support
Hessian of T; nothing is differenced.  2-bounce orbits are seeded from
a scan of the reduced action h_T(d) + h_T(-d) over the chords d on the
boundary of the difference body K - K.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    ConvexBody,
    OrientedLine,
    Polygon2D,
    _unit,
    mirror_symmetric,
    polar_dual,
    tangent_frame,
    unit_vector,
)
from .errors import DomainError, GrazingError, PreconditionError
from .reflection import _bounces, _require_same_dimension
from .solvers import _dot, levenberg_marquardt as least_squares

ORBIT_MAX_NFEV = 500  # residual evaluations per closed_orbit_search polygon
# radial directions of K scanned for the 2-bounce seeds, by dimension
TWO_GON_SCAN = {2: 256, 3: 512}


def finsler_length(T: ConvexBody, dq):
    """Length of a directed chord in the T-billiard action functional (or
    of each row of an (N, d) array of chords)."""
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


def _require_steps(steps):
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
        raise DomainError(f"steps must be a non-negative integer, not {steps!r}")
    return int(steps)


def iterate_t_billiard(K: ConvexBody, T: ConvexBody, line: OrientedLine, steps):
    """Iterate the T-billiard map, recording bounce points and lengths.

    The orbit is the q-projection of ``lift_kt_orbit``.  Grazing incidence
    truncates the orbit and marks its status.
    """
    steps = _require_steps(steps)
    _require_same_dimension(K, T, line)
    points = []
    directions = [line.direction]
    status = "ok"
    try:
        for _, (q, _, v, _) in zip(range(steps), _bounces(K, T, line, None)):
            points.append(q)
            directions.append(v)
    except GrazingError:
        status = "grazing"
    points = np.asarray(points).reshape(-1, K.dim)
    lengths = finsler_length(T, points[1:] - points[:-1])
    closed = False
    if len(points) >= 3:
        tol = 1e-9 * K.diameter()
        gaps = points[1:] - points[0]
        closed = bool((np.sqrt((gaps * gaps).sum(1)) < tol).any())  # np.linalg.norm's |gap|
    return Orbit(points, np.asarray(directions), lengths,
                 float(lengths.sum()), closed=closed, status=status)


def lift_kt_orbit(K: ConvexBody, T: ConvexBody, line: OrientedLine, steps):
    """Lift a billiard trajectory to the alternating orbit in (q, p) space.

    q moves along the exterior normal of dT at the current p; when q
    reaches dK, p moves along the interior normal of dK at the bounce
    point until it reaches dT again.  The q-polygon is the
    ``iterate_t_billiard`` orbit, bit for bit; for an ellipsoid T, p is the
    ``gauss_inverse`` of each direction.
    """
    steps = _require_steps(steps)
    _require_same_dimension(K, T, line)
    if not K.contains(line.point):
        raise PreconditionError("lifted orbit starts at an interior point of K")
    orbit = KTOrbit()
    q = np.asarray(line.point, dtype=float)
    p = T.gauss_inverse(line.direction)
    try:
        for _, (q_next, _, v, p_next) in zip(range(steps), _bounces(K, T, line, p)):
            if p_next is None:
                p_next = T.gauss_inverse(v)
            orbit.segments.append(KTSegment("q", q, p, q_next, p))
            orbit.segments.append(KTSegment("p", q_next, p, q_next, p_next))
            q, p = q_next, p_next
    except GrazingError:
        orbit.status = "grazing"
    return orbit


# ---------------------------------------------------------------------------
# Closed orbits by stationarity of the action
# ---------------------------------------------------------------------------

def _sphere_chart(phi, frames):
    """Rows u of the unit sphere at the chart angle rows phi (N, k), with
    the first derivatives U (N, d, k; a column per angle) and the second
    derivatives U2 (N, k, k, d) in the angles.  In the plane u is
    unit_vector(phi), the global angle, and ``frames`` is None; in space
    u = frame @ unit_vector(phi) in the frames (N, 3, 3)."""
    c, s = np.cos(phi), np.sin(phi)
    if phi.shape[1] == 1:
        u = np.concatenate((c, s), axis=1)
        return u, np.concatenate((-s, c), axis=1)[:, :, None], -u[:, None, None, :]
    (ca, cp), (sa, sp) = c.T, s.T
    u = np.stack([ca * sp, sa * sp, cp], axis=-1)
    U = np.zeros((len(phi), 3, 2))
    U[:, 0, 0], U[:, 1, 0] = -sa * sp, ca * sp
    U[:, 0, 1], U[:, 1, 1], U[:, 2, 1] = ca * cp, sa * cp, -sp
    U2 = np.zeros((len(phi), 2, 2, 3))
    U2[:, 0, 0, :2] = -u[:, :2]
    U2[:, 0, 1, 0], U2[:, 0, 1, 1] = -sa * cp, ca * cp
    U2[:, 1, 0] = U2[:, 0, 1]
    U2[:, 1, 1] = -u
    return ((frames @ u[:, :, None])[:, :, 0], frames @ U,
            U2 @ np.swapaxes(frames, 1, 2)[:, None])


@functools.lru_cache(maxsize=64)
def _cyclic(count, m):
    """Indices of the next and of the previous vertex of each vertex of
    ``count`` closed m-gons whose vertices are consecutive rows (read-only:
    every caller shares them)."""
    i = np.arange(count * m)
    first = i - i % m
    nxt, prv = first + (i + 1) % m, first + (i - 1) % m
    nxt.flags.writeable = prv.flags.writeable = False
    return nxt, prv


class _StationaritySystem:
    """Gradients of the action sums h_T(q_{i+1} - q_i) of S closed m-gons
    in radial charts of K, and their exact Jacobians.

    Vertex i of polygon s is q = rho_K(u) u, the boundary point on the ray
    from the origin (inside every body) along the unit vector u of its
    chart angles phi: u = unit_vector(phi) in the plane, where ``frames``
    is None, and u = frames[s, i] @ unit_vector(phi) in space.  With
    nu = grad F / <grad F, q>, the chart derivative is
    J = rho (I - q nu^T) U, U = du/dphi; it needs only the gradient of F,
    so it stays regular at flat points.  The gradient block of vertex i is
    J_i^T w_i with w_i = t_{i-1} - t_i and t_i = grad h_T(q_{i+1} - q_i).

    The polygons asked for are evaluated together: their vertices are the
    rows of one (S m, d) array, so every body query is one row call and
    the Jacobians are one (S, m k, m k) array.  Each evaluation also keeps,
    for each of its polygons, the state at that point (``x``, the vertices
    ``q``, the boundary gradients ``grad``, the touching-point differences
    ``w`` and ``degenerate``), so the orbits of a solve are read from the
    system, not evaluated again.
    """

    def __init__(self, K, T, frames, count, m):
        self.K, self.T = K, T
        self.frames = frames  # (S, m, 3, 3), one chart frame per vertex; None in the plane
        self.min_gap = 1e-9 * K.diameter()
        d = K.dim
        # the state of each polygon at its last evaluated point (NaN: none yet)
        self.x = np.full((count, m * (d - 1)), np.nan)
        self.q, self.grad, self.w = (np.empty((count, m, d)) for _ in range(3))
        self.degenerate = np.zeros(count, dtype=bool)

    def evaluate(self, x, rows):
        """Vertices, charts and gradients of the polygons ``rows`` at the
        chart angles x (a row per polygon); their state is kept on the
        system.  A polygon with consecutive vertices closer than the
        distinctness threshold is degenerate: its gradient is NaN.  Returns
        the vertex rows J, q, <grad F, q>, nu, rho, w, U, U2, the gradient
        rows, the chords q_{i+1} - q_i and the degeneracy of the polygons."""
        K = self.K
        d = K.dim
        S, m = len(rows), self.x.shape[1] // (d - 1)
        phi = x.reshape(-1, d - 1)
        frames = None if self.frames is None else self.frames[rows].reshape(-1, d, d)
        u, U, U2 = _sphere_chart(phi, frames)
        q = K._boundary_in_direction(u)
        rho = np.sqrt(_dot(q, q))
        grad = K.implicit_grad(q)
        gq = _dot(grad, q)
        nu = grad / gq[:, None]
        J = rho[:, None, None] * (U - q[:, :, None] * (nu[:, None, :] @ U))
        nxt, prv = _cyclic(S, m)
        diffs = q[nxt] - q
        degenerate = (np.sqrt(_dot(diffs, diffs)) < self.min_gap).reshape(S, m).any(axis=1)
        if degenerate.any():
            # touching points of the nondegenerate polygons only
            live = np.repeat(~degenerate, m)
            touch = self.T.support_point(diffs[live])
            w = np.full((S * m, d), np.nan)
            w[live] = touch[_cyclic(len(touch) // m, m)[1]] - touch
        else:
            touch = self.T.support_point(diffs)
            w = touch[prv] - touch
        r = (J.transpose(0, 2, 1) @ w[:, :, None])[:, :, 0]
        self.x[rows], self.degenerate[rows] = x, degenerate
        self.q[rows], self.grad[rows], self.w[rows] = (
            a.reshape(S, m, d) for a in (q, grad, w))
        return J, q, gq, nu, rho, w, U, U2, r, diffs, degenerate

    def __call__(self, x, rows):
        """Gradient rows of the action at x (NaN for degenerate polygons)
        and their Jacobians, the block-cyclic Hessians of the action in
        the chart angles.

        Blocks: J_i^T (H_{i-1} + H_i) J_i plus the chart curvature term on
        the diagonal, -J_i^T H_i J_{i+1} and -J_i^T H_{i-1} J_{i-1} off it,
        with H_i the support Hessian of T at q_{i+1} - q_i.  Degenerate
        polygons get zeros.
        """
        J, q, gq, nu, rho, w, U, U2, r, diffs, degenerate = self.evaluate(x, rows)
        S, n = len(rows), x.shape[1]
        m = len(q) // S
        some_degenerate = degenerate.any()
        if some_degenerate:
            live = np.repeat(~degenerate, m)
            J, q, gq, nu, rho, w, U, U2, r_live, diffs = (
                a[live] for a in (J, q, gq, nu, rho, w, U, U2, r, diffs))
        else:
            r_live = r
        d, k = J.shape[1:]
        Jt = J.transpose(0, 2, 1)
        a = U.transpose(0, 2, 1) @ nu[:, :, None]
        wq = _dot(w, q)
        # second derivative of the chart s -> s / g_K(s) contracted with w:
        # the gauge Hessian term -rho^2 <w, q> U^T G_K U, where
        # G_K = Q^T H_K Q / <grad F, q> with Q = I - q nu^T and J = rho Q U,
        # so it is -(<w, q> / <grad F, q>) J^T H_K J; the nu-coupling term;
        # and the curvature of the angle chart itself
        ar = rho[:, None, None] * (a * r_live[:, None, :])
        tilt = rho[:, None] * (w - wq[:, None] * nu)
        curv = ((-wq / gq)[:, None, None] * (Jt @ self.K.implicit_hess(q) @ J)
                - ar - ar.transpose(0, 2, 1) + (U2 @ tilt[:, None, :, None])[..., 0])
        H = self.T.support_hess(diffs)
        nxt, prv = _cyclic(len(H) // m, m)
        H_prev = H[prv]
        # blocks[s, i, j] is block (i, j) of polygon s; the off-diagonal
        # blocks are 0 - X, the bits of subtracting X from a zero block
        i = np.arange(m)
        i_next, i_prev = _cyclic(1, m)
        blocks = np.zeros((len(H) // m, m, m, k, k))
        blocks[:, i, i] = (Jt @ (H_prev + H) @ J + curv).reshape(-1, m, k, k)
        ahead = 0.0 - Jt @ H @ J[nxt]
        behind = Jt @ H_prev @ J[prv]
        if m == 2:  # blocks (i, i + 1) and (i, i - 1) are one block
            blocks[:, i, i_next] = (ahead - behind).reshape(-1, m, k, k)
        else:
            blocks[:, i, i_next] = ahead.reshape(-1, m, k, k)
            blocks[:, i, i_prev] = (0.0 - behind).reshape(-1, m, k, k)
        jac = blocks.transpose(0, 1, 3, 2, 4).reshape(-1, n, n)
        if some_degenerate:
            jac_live, jac = jac, np.zeros((S, n, n))
            jac[~degenerate] = jac_live
        return r.reshape(S, n), jac

    def reflection_defect(self, rows):
        """max_i |P_i (t_{i-1} - t_i)| of each polygon ``rows`` at its last
        evaluated point, P_i the projection onto the tangent plane of K at
        q_i: zero exactly when every vertex obeys the T-billiard reflection
        law."""
        d = self.K.dim
        grad, w = self.grad[rows].reshape(-1, d), self.w[rows].reshape(-1, d)
        # |v| as np.linalg.norm takes it along an axis: sqrt of the sum of v * v
        ns = grad / np.sqrt((grad * grad).sum(axis=1))[:, None]
        tangential = w - np.einsum("ij,ij->i", w, ns)[:, None] * ns
        return np.sqrt((tangential * tangential).sum(axis=1)).reshape(len(rows), -1).max(axis=1)


def _seed_charts(points):
    """Radial charts through the seed vertices ``points`` (S, m, d):
    (frames, initial angles (S, m (d - 1))).

    In the plane the chart is the global angle, which needs no frame
    (frames is None); in space each vertex gets an (azimuth, polar) chart
    centered on its direction, at (0, pi/2), far from the chart's poles,
    with frames (S, m, 3, 3): the direction and its tangent frame as
    columns.
    """
    S, m, d = points.shape
    dirs = _unit(points.reshape(-1, d))
    if d == 2:
        return None, np.array([math.atan2(y, x) for x, y in dirs.tolist()]).reshape(S, m)
    frames = np.concatenate([dirs[:, :, None], np.swapaxes(tangent_frame(dirs), 1, 2)], axis=2)
    return frames.reshape(S, m, 3, 3), np.tile([0.0, math.pi / 2.0], (S, m))


def _seed_polygons(K, m, multistarts, seed):
    """Vertices (multistarts, m, dim) of the multistart polygons: the
    boundary points of K with equally spaced exterior normals, turned by
    s / multistarts of a full turn for seed s, random polar angles in
    space, and normal perturbations of the Gauss angles (from ``seed``)
    on the second half."""
    n_angles = K.dim - 1
    rng = np.random.default_rng(seed)
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
    normals = np.array([unit_vector(a, K.dim)
                        for a in np.reshape(seeds, (-1, n_angles))])
    return K.gauss_inverse(normals).reshape(multistarts, m, K.dim)


def _scan_directions(dim):
    """The fixed grid of TWO_GON_SCAN[dim] unit directions of the 2-gon
    scan: equally spaced angles from 0 in the plane, a Fibonacci lattice
    on the sphere in space."""
    count = TWO_GON_SCAN[dim]
    j = np.arange(count)
    if dim == 2:
        angle = 2.0 * math.pi * j / count
        return np.column_stack([np.cos(angle), np.sin(angle)])
    z = 1.0 - (2.0 * j + 1.0) / count
    r = np.sqrt(1.0 - z * z)
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * j  # the golden angle
    return np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z])


def _two_gon_seeds(K, T, count):
    """Vertices (count, 2, dim) of the ``count`` 2-gons of least action
    on the scan grid, least first, each in the order (x_K(nu), x_K(-nu)).

    A closed 2-bounce orbit touches K at points of opposite exterior
    normals nu and -nu, so its chord d = x_K(-nu) - x_K(nu) lies on the
    boundary of the difference body K - K, and the least 2-bounce action
    is the minimum over nu of phi(nu) = h_T(d) + h_T(-d).  phi is
    evaluated at the normals nu of the boundary points of K on the rays
    of the scan grid: one row call each of ``_boundary_in_direction``,
    ``exterior_normal``, ``gauss_inverse`` and ``T.support`` (on +-d).
    """
    near = K._boundary_in_direction(_scan_directions(K.dim))
    far = K.gauss_inverse(-K.exterior_normal(near))
    d = far - near
    h = T.support(np.concatenate([d, -d])).reshape(2, -1)
    # Python's stable sort: numpy's argsort maps about 128 kB more of its
    # code into the process
    phi = (h[0] + h[1]).tolist()
    best = sorted(range(len(phi)), key=phi.__getitem__)[:count]
    return np.stack([near[best], far[best]], axis=1)


def _solve_seeds(K, T, points):
    """Stationary polygons from the seed polygons with vertices ``points``
    (S, m, dim), solved together by one batched Levenberg-Marquardt call:
    the final chart angles (S, m (dim - 1)) and a closed Orbit per seed,
    None for a degenerate polygon.  The orbits are read from the state the
    system kept at each polygon's last evaluated point; only a polygon
    whose last evaluation was a rejected step is evaluated again, at its
    final point."""
    S, m = points.shape[:2]
    frames, x0 = _seed_charts(points)
    system = _StationaritySystem(K, T, frames, S, m)
    x = least_squares(system, x0, max_nfev=ORBIT_MAX_NFEV).x
    # compared bit for bit: a zero of the other sign gives other vertex bits
    stale = np.flatnonzero((system.x.view(np.int64) != x.view(np.int64)).any(axis=1))
    if stale.size:
        system.evaluate(x[stale], stale)
    live = np.flatnonzero(~system.degenerate)
    qs = system.q[live]
    q = qs.reshape(-1, K.dim)
    chords = q[_cyclic(len(live), m)[0]] - q
    lengths = finsler_length(T, chords).reshape(-1, m)
    directions = _unit(chords).reshape(qs.shape)
    defects = system.reflection_defect(live)
    orbits = [None] * S
    for j, idx in enumerate(live):
        orbits[idx] = Orbit(qs[j], directions[j], lengths[j], float(sum(lengths[j])),
                            closed=True, status="ok", stationarity=float(defects[j]))
    return x, orbits


def _require_multistarts(multistarts):
    if multistarts < 1:
        raise DomainError("multistarts must be at least 1")


def closed_orbit_search(K: ConvexBody, T: ConvexBody, m, multistarts=32,
                        seed=0):
    """Minimal-action closed m-bounce orbit of the T-billiard in K.

    Closed orbits are the stationary polygons of the action
    sum h_T(q_{i+1} - q_i) over m-tuples of boundary points; stationarity
    at each vertex is exactly the T-billiard reflection law.  Each vertex
    moves in a radial chart of K (the boundary point on the ray of a unit
    direction).  The seed polygons are solved together by one batched
    Levenberg-Marquardt call (``solvers.levenberg_marquardt``, exact
    Jacobians, ORBIT_MAX_NFEV evaluations per polygon).

    For m >= 3 the ``multistarts`` seeds are the boundary points with
    equally spaced exterior normals, turned by s / multistarts of a turn
    for seed s, with the second half perturbed by normal noise drawn
    from ``seed`` (in space the polar angles are drawn from it too).

    For m = 2 the search reduces to one minimum: a 2-bounce orbit touches
    K at opposite normals nu and -nu, so its action is
    phi(nu) = h_T(d) + h_T(-d) with d = x_K(-nu) - x_K(nu) on the
    boundary of K - K.  phi is scanned on a fixed grid of TWO_GON_SCAN[n]
    radial directions of K, and the ``multistarts`` 2-gons of least phi
    are polished; ``seed`` is not used unless the polished 2-gon of least
    phi fails the stationarity gate, in which case the m >= 3 seeds are
    solved as well and the least certified action of both sets wins.

    Degenerate polygons (consecutive points closer than the
    distinctness threshold) are rejected, and the least action among the
    orbits whose reflection-law defect (``Orbit.stationarity``) is
    within 1e-8 * scale * diam(K) is returned; if there is none, the
    orbit with the smallest defect is returned with status "stagnated".
    """
    _require_same_dimension(K, T)
    if m < 2:
        raise DomainError("closed orbits need at least two bounces")
    _require_multistarts(multistarts)
    scale = max(T.support(unit_vector(np.zeros(K.dim - 1), K.dim)), 1.0)
    tol_stationary = 1e-8 * scale * K.diameter()
    seeds = (_two_gon_seeds(K, T, multistarts) if m == 2
             else _seed_polygons(K, m, multistarts, seed))
    candidates = _solve_seeds(K, T, seeds)[1]
    first = candidates[0]
    if m == 2 and (first is None or first.stationarity > tol_stationary):
        candidates += _solve_seeds(K, T, _seed_polygons(K, 2, multistarts, seed))[1]

    best = None
    best_key = None
    best_found = None
    for idx, candidate in enumerate(candidates):
        if candidate is None:
            continue
        action, stat = candidate.action, candidate.stationarity
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


@dataclass
class CapacityReport:
    """Minimal action over bounce counts, with the per-m table."""

    value: float
    best_orbit: Orbit
    table: list  # rows (m, action, stationarity)


def capacity_estimate(K: ConvexBody, T: ConvexBody, m_max=None, multistarts=32,
                      seed=0):
    """Capacity of K x T as the minimal action over closed T-billiard
    orbits with 2..m_max bounces; m_max defaults to n + 1, the most
    bounces a minimal orbit needs in R^n (Rudolf 2022)."""
    _require_same_dimension(K, T)
    m_max = K.dim + 1 if m_max is None else m_max
    if m_max < 2:
        raise DomainError("m_max must be at least 2")
    _require_multistarts(multistarts)
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

    Exact for ellipsoids, superellipses and polygons; quadrature
    otherwise (dimensions 2 and 3).
    """
    if isinstance(K, Polygon2D):
        return K.volume() * K.polar().volume()
    if not mirror_symmetric(K):
        raise DomainError("Mahler product needs a centrally symmetric body")
    return K.volume() * polar_dual(K).volume()


def viterbo_ratio(K: ConvexBody, T: ConvexBody, m_max=None, **kw):
    """Exploration quantity capacity^n / (n! vol(K) vol(T)), with the
    capacity of ``capacity_estimate`` (m_max defaults to n + 1 there)."""
    n = K.dim
    cap = capacity_estimate(K, T, m_max, **kw).value
    return cap ** n / (math.factorial(n) * K.volume() * T.volume())
