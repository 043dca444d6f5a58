"""Reflection laws in convex bodies.

Implements the parallel-chord involution of a sphere of directions, the
T-billiard reflection it induces, the Euclidean and projective-billiard
reflections, both formulations of the Minkowski-Finsler reflection law,
and the diagonal rescaling that conjugates ellipse billiards to
Euclidean ones.  All functions are pure; bodies are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import (ConvexBody, OrientedLine, _unit, legendre_point,
                     mirror_symmetric, polar_dual, rot90, unit_vector)
from .errors import (
    ConvergenceError,
    DomainError,
    GrazingError,
    SolverError,
)
from .solvers import find_root, levenberg_marquardt as least_squares

# incidence angles below this (radians, small-angle regime) are grazing
GRAZING_ANGLE = 1e-6
_PERP_TOL = 1e-13
TRANSVERSAL_MARGIN = 1e-8  # least |<field, normal>| at a projective bounce
CONCURRENCY_MAX_NFEV = 100  # _concurrency_nd: residual evaluations


@dataclass(frozen=True)
class ParallelClass:
    """A class of parallel lines, stored as a sign-normalized unit vector."""

    direction: np.ndarray

    def __post_init__(self):
        d = _unit(self.direction)
        nz = np.nonzero(np.abs(d) > 1e-14)[0]
        if len(nz) and d[nz[0]] < 0:
            d = -d
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class TransversalField:
    """Line field Q -> unit vector (up to sign), transversal by TRANSVERSAL_MARGIN."""

    func: Callable[[np.ndarray], np.ndarray]

    def at(self, q):
        return _unit(self.func(np.asarray(q, dtype=float)))


def euclidean_reflect(normal, v):
    """Mirror v across the hyperplane orthogonal to the unit normal."""
    normal = _unit(normal)
    v = np.asarray(v, dtype=float)
    return v - 2.0 * float(np.dot(v, normal)) * normal


def parallel_chord_involution(T: ConvexBody, cls: ParallelClass, u):
    """Sphere involution transporting normals of dT along chords of class cls.

    Sends the exterior normal at one end of a chord parallel to
    cls.direction to the normal at the other end; directions orthogonal
    to the class are fixed.  A near-tangential chord raises
    DegenerateChordError (callers may treat those directions as fixed).
    u may also be an (N, d) array of directions, mapped in one pass of
    the body's row forms; there the tangential rows map to themselves.
    An ellipsoid T {<Ap, p> <= 1} is answered in closed form, as the
    projective reflection u -> unit(u - 2 <u, d> / <d, A d> A d).
    """
    u = _unit(u)
    if not u.shape[-1] == len(cls.direction) == T.dim:
        raise DomainError(f"directions of dimension {u.shape[-1]} and a class of "
                          f"dimension {len(cls.direction)} for a body of dimension {T.dim}")
    return _chord_involution(T, cls.direction, u)


def _chord_involution(T, d, u):
    """parallel_chord_involution for the unit class direction d (either
    sign: the chords along d and -d are the same) and the unit u."""
    if u.ndim == 1:  # without the row bookkeeping, which each billiard bounce would pay
        if abs(float(np.dot(u, d))) < _PERP_TOL:
            return u
        return T._chord_normal(u, d)
    out = u.copy()
    live = abs(u @ d) >= _PERP_TOL
    if live.any():
        out[live] = T._chord_normal(u[live], d)
    return out


def _require_same_dimension(K, T, *lines):
    dims = [K.dim, T.dim] + [len(line.direction) for line in lines]
    if min(dims) != max(dims):
        raise DomainError(f"bodies and lines must share their dimension ({dims})")


def t_billiard_reflect(K: ConvexBody, T: ConvexBody, line: OrientedLine):
    """Reflect an oriented line off dK under the T-billiard law.

    The bounce point is the last intersection q of the line with dK; the
    outgoing direction is the parallel-chord involution of the incoming
    one, for the class of lines parallel to the normal of dK at q.  An
    ellipsoid T is answered in closed form (see parallel_chord_involution).
    """
    _require_same_dimension(K, T, line)
    q = K.last_intersection(line)
    n = K.exterior_normal(q)
    inc = float(np.dot(line.direction, n))
    if inc <= GRAZING_ANGLE:
        raise GrazingError(f"grazing incidence at {q} (sin = {inc:.2e})")
    v_out = _chord_involution(T, n, line.direction)
    if float(np.dot(v_out, n)) >= 0.0:
        raise SolverError("reflected direction does not point into the body")
    return OrientedLine(q, v_out)


def projective_billiard_reflect(point, tangent_normal, transversal, incoming: OrientedLine):
    """Projective-billiard reflection at a boundary point.

    The reflection is the affine involution fixing the tangent plane
    (through ``point`` with unit normal ``tangent_normal``) pointwise and
    acting as central symmetry on the transversal line; a line inside
    the tangent plane is returned unchanged.
    """
    q = np.asarray(point, dtype=float)
    m = _unit(tangent_normal)
    nu = _unit(transversal)
    trans = float(np.dot(nu, m))
    if abs(trans) < 1e-10:
        raise DomainError("transversal line lies in the tangent plane")
    if np.linalg.norm(incoming.point - q) > 1e-9 * max(1.0, np.linalg.norm(q)):
        # allow lines given by any base point on them
        t = float(np.dot(q - incoming.point, incoming.direction))
        if np.linalg.norm(incoming.at(t) - q) > 1e-9 * max(1.0, np.linalg.norm(q)):
            raise DomainError("incoming line does not pass through the point")
    v = incoming.direction
    w = v - 2.0 * (float(np.dot(v, m)) / trans) * nu
    return OrientedLine(q, w)


def projective_billiard_map(body: ConvexBody, field: TransversalField,
                            line: OrientedLine):
    """Projective billiard map on a convex body with a transversal field."""
    q = body.last_intersection(line)
    n = body.exterior_normal(q)
    inc = float(np.dot(line.direction, n))
    if inc <= GRAZING_ANGLE:
        raise GrazingError(f"grazing incidence at {q}")
    nu = field.at(q)
    if abs(float(np.dot(nu, n))) < TRANSVERSAL_MARGIN:
        raise DomainError("transversal field violates its margin")
    out = projective_billiard_reflect(q, n, nu, OrientedLine(q, line.direction))
    if float(np.dot(out.direction, n)) > 0.0:
        out = OrientedLine(q, -out.direction)
    return out


# ---------------------------------------------------------------------------
# Minkowski-Finsler reflection laws
# ---------------------------------------------------------------------------

def _require_symmetric(I: ConvexBody):
    if not mirror_symmetric(I, tol_points=I.dim + 1):
        raise DomainError(
            "Finsler reflection laws require a centrally symmetric indicatrix")


def _check_grazing(m, u):
    # m and u are unit vectors
    if abs(float(np.dot(m, u))) < GRAZING_ANGLE:
        raise GrazingError("incidence vector lies in the reflecting hyperplane")


def finsler_reflect_legendre(I: ConvexBody, hyperplane_normal, u):
    """Finsler reflection via the Legendre transform.

    Returns the point v on the indicatrix for which D(u) - D(v)
    annihilates the reflecting hyperplane.  D(u) and D(v) are the ends of
    the chord along the hyperplane normal of the figuratrix J (the polar
    dual), whose normals there point along u and v: the law is J's
    parallel-chord involution of u / |u| (the T-billiard reflection with
    T = J), in closed form for an ellipsoid indicatrix.
    """
    _require_symmetric(I)
    m = _unit(hyperplane_normal)
    u = I._require_boundary(u)
    u_hat = _unit(u)
    _check_grazing(m, u_hat)
    J = polar_dual(I)
    n = _chord_involution(J, m, u_hat)
    v = n / J.support(n)
    if np.sign(np.dot(m, v)) == np.sign(np.dot(m, u)):
        raise SolverError("reflected vector is on the wrong side of the hyperplane")
    return v


def finsler_reflect_concurrency(I: ConvexBody, hyperplane_normal, u):
    """Finsler reflection via the concurrent-hyperplanes law.

    Finds v on the indicatrix whose tangent hyperplane meets the tangent
    hyperplane at u inside the reflecting hyperplane (the three are
    concurrent); when the tangent plane at u is parallel to the
    reflecting hyperplane the antipode is returned.
    """
    _require_symmetric(I)
    if I.dim > 3:
        raise DomainError("concurrency law implemented for dimensions 2 and 3")
    m = _unit(hyperplane_normal)
    u = np.asarray(u, dtype=float)
    _check_grazing(m, _unit(u))
    a = legendre_point(I, u)
    a_norm = np.linalg.norm(a)
    if np.linalg.norm(a - float(np.dot(a, m)) * m) < 1e-12 * a_norm:
        return -u
    if I.dim == 2:
        return _concurrency_2d(I, m, a, u)
    return _concurrency_nd(I, m, a, u)


def _concurrency_2d(I, m, a, u):
    # point where the tangent line at u meets the reflecting line
    M = np.stack([a, m])
    p_star = np.linalg.solve(M, np.array([1.0, 0.0]))

    # the tangency angles seen from p_star are the two roots of the gap
    # <e, p*> / h(e) - 1; one of them is u itself, so deflate it: the gap /
    # sin((theta-theta_u)/2) changes sign exactly once more on the circle,
    # even when the roots nearly merge (p_star close to the boundary at
    # near-grazing incidence)
    n_u = I.exterior_normal(u)
    theta_u = float(np.arctan2(n_u[1], n_u[0]))
    last = [None, None]  # the last (theta, v): the root is usually its last iterate

    def deflated(theta):
        # as grad h(e) = v = gauss_inverse(e), the gap has the slope
        # <e', p*> / h - <e, p*> <v, e'> / h^2 with e' = rot90(e)
        e = unit_vector(theta, 2)
        v = I.gauss_inverse(e)
        last[:] = theta, v
        h, ep, e1 = float(e @ v), float(e @ p_star), rot90(e)
        g, slope = ep / h - 1.0, float(e1 @ p_star) / h - ep * float(v @ e1) / (h * h)
        s, c = math.sin(0.5 * (theta - theta_u)), math.cos(0.5 * (theta - theta_u))
        return g / s, slope / s - 0.5 * g * c / (s * s)

    try:
        theta = find_root(deflated, theta_u + 1e-4, theta_u + 2.0 * np.pi - 1e-4)
    except ConvergenceError as exc:
        raise SolverError("no transversal concurrency solution found") from exc
    v = last[1] if theta == last[0] else I.gauss_inverse(unit_vector(theta, 2))
    if np.sign(np.dot(m, v)) == np.sign(np.dot(m, u)):
        raise SolverError("concurrency solution on the wrong side")
    return v


def _concurrency_nd(I, m, a, u):
    # the plane (tangent at u) n (hyperplane) is w0 + span E, where <a, w0> = 1,
    # <m, w0> = 0 and the rows of E span the directions orthogonal to a and m
    U, sig, vt = np.linalg.svd(np.stack([a, m]))
    W = np.vstack([(U[0] / sig) @ vt[:2], vt[2:]])  # rows w0, E

    # the normal e moves in the stereographic chart from the antipode of the
    # normal n at the Euclidean reflection of u: e = ((1 - |s|^2) n + 2 F s)
    # / (1 + |s|^2) reaches the whole sphere but -n (a tangent chart only
    # reaches the hemisphere around n, and a solution may lie beyond it)
    v_seed = euclidean_reflect(m, I._boundary_in_direction(u))
    n_seed = I.exterior_normal(I._boundary_in_direction(v_seed))
    F = np.linalg.svd(n_seed[None])[2][1:].T  # orthonormal, orthogonal to n

    def residuals(s):
        # the tangent plane <e, x> = h(e) at v = gauss_inverse(e) contains
        # the plane w0 + span E: r = [<w0, e> / h - 1, E e / h]; as
        # grad h(e) = v, d(W e / h) = (W de - W e <v, de> / h) / h, with
        # de/ds = 2 (F - (n + e) s^T) / (1 + |s|^2).  Returns (r, dr/ds, v).
        q = float(s @ s)
        e = ((1.0 - q) * n_seed + 2.0 * (F @ s)) / (1.0 + q)
        v = I.gauss_inverse(e)
        h = float(e @ v)
        We = W @ e
        r = We / h
        r[0] -= 1.0
        de = 2.0 * (F - (n_seed + e)[:, None] * s) / (1.0 + q)
        return r, (W @ de - We[:, None] * (v @ de) / h) / h, v

    def system(s, rows):
        r, dr, _ = residuals(s[0])
        return r[None], dr[None]

    s = least_squares(system, np.zeros((1, 2)), max_nfev=CONCURRENCY_MAX_NFEV).x
    r, _, v = residuals(s[0])
    if not math.sqrt(float(r @ r)) <= 1e-9:
        raise SolverError("concurrency solve did not converge")
    if np.sign(np.dot(m, v)) == np.sign(np.dot(m, u)):
        raise SolverError("concurrency solution on the wrong side")
    return v


def rescale_conjugate(b, line: OrientedLine):
    """Coordinate rescaling q_j -> b_j q_j applied to an oriented line.

    For T the ellipse with semiaxes b this conjugates the T-billiard in K
    to the Euclidean billiard in the rescaled body.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0.0):
        raise DomainError("rescaling factors must be positive")
    return OrientedLine(b * line.point, _unit(b * line.direction))
