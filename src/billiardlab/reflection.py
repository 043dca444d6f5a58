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

from .bodies import (ConvexBody, OrientedLine, _dot, _unit, legendre_point,
                     mirror_symmetric, polar_dual)
from .errors import (
    ConvergenceError,
    DomainError,
    GrazingError,
    SolverError,
)
from .solvers import find_root, levenberg_marquardt

# no law here solves least squares, but the benchmark tracer
# (benchmarks/tracing.py) wraps this module's least_squares, so the name stays
least_squares = levenberg_marquardt

# incidence angles below this (radians, small-angle regime) are grazing
GRAZING_ANGLE = 1e-6
_PERP_TOL = 1e-13
TRANSVERSAL_MARGIN = 1e-8  # least |<field, normal>| at a projective bounce


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


def parallel_chord_involution(T: ConvexBody, cls, u):
    """Sphere involution transporting normals of dT along chords of class cls.

    Sends the exterior normal at one end of a chord parallel to
    cls.direction to the normal at the other end; directions orthogonal
    to the class are fixed.  A near-tangential chord raises
    DegenerateChordError (callers may treat those directions as fixed).
    u may also be an (N, d) array of directions, mapped in one pass of
    the body's row forms; there the tangential rows map to themselves,
    and cls may be an (N, d) array of unit class directions (such as
    ParallelClass directions), one for each row of u.  A row gets the
    bits of its one-class call.  An ellipsoid T {<Ap, p> <= 1} is
    answered in closed form, as the projective reflection
    u -> unit(u - 2 <u, d> / <d, A d> A d).
    """
    u = _unit(u)
    d = cls.direction if isinstance(cls, ParallelClass) else np.asarray(cls, dtype=float)
    if not u.shape[-1] == d.shape[-1] == T.dim:
        raise DomainError(f"directions of dimension {u.shape[-1]} and a class of "
                          f"dimension {d.shape[-1]} for a body of dimension {T.dim}")
    if d.ndim > 1 and d.shape != u.shape:
        raise DomainError(f"class directions of shape {d.shape} for directions "
                          f"of shape {u.shape}")
    return _chord_involution(T, d, u)


def _chord_involution(T, d, u):
    """parallel_chord_involution for the unit class direction d (either
    sign: the chords along d and -d are the same), or the unit rows of d,
    and the unit u."""
    if u.ndim == 1:  # without the row bookkeeping, which each billiard bounce would pay
        if abs(float(np.dot(u, d))) < _PERP_TOL:
            return u
        return T._chord_normal(u, d)
    out = u.copy()
    live = abs(_dot(u, d)) >= _PERP_TOL
    if live.any():
        out[live] = T._chord_normal(u[live], d if d.ndim == 1 else d[live])
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
    This is the first bounce of the orbit loop ``_bounces``, whose w it
    returns.
    """
    _require_same_dimension(K, T, line)
    q, w, _, _ = next(_bounces(K, T, line, None))
    return OrientedLine(q, w)


def _bounces(K, T, line, p):
    """The T-billiard orbit of ``line``, one bounce per item (q, w, v, p):
    the bounce point q on dK, the reflected direction w as the law gives
    it, the unit direction v that the orbit leaves along, and the point p
    of dT with exterior normal v, or None.

    The orbit is the q-projection of the (K, T) lift, and this one loop
    gives both: q moves along the normal v of dT at p to its bounce point
    on dK, then p moves along the interior normal -n of dK to the far end
    b of its chord of T.  An ellipsoid T (a T with its own
    ``_chord_normal``) transports the direction in closed form and carries
    no p.  Any other T carries p, starting from ``p``, its gauss_inverse
    of the line's direction (None: computed here).  One boundary check and
    gradient at b give w and one Newton step along the chord onto dT, to
    the next p, where v is taken: an exit leaves F(b) at up to some 40 eps
    on Superellipse(4), which a normal taken at b would carry into the
    orbit.  Each bounce point carries the F of its boundary check into
    the next exit.  A grazing bounce raises GrazingError.
    """
    carry = type(T)._chord_normal is ConvexBody._chord_normal
    v = line.direction
    p = T._require_boundary(T.gauss_inverse(v) if p is None else p) if carry else None
    q = K.last_intersection(line)
    while True:
        q, f, g = K._boundary_grad(q)
        n = _unit(g)
        inc = float(v.dot(n))
        if inc <= GRAZING_ANGLE:
            raise GrazingError(f"grazing incidence at {q} (sin = {inc:.2e})")
        if carry:
            # <normal at p, n> = inc > 0: the chord enters T along -n
            b, f_b, g = T._boundary_grad(T._chord_end(p, n, inc))
            w = _unit(g)
            p = b - (float(f_b) / float(g.dot(n))) * n
            v = _unit(T.implicit_grad(p))
        else:
            w = T._chord_normal(v, n)
            # normalized once more, as an OrientedLine would: the
            # closed-form orbits keep their bits
            v = _unit(w)
        if float(w.dot(n)) >= 0.0:
            raise SolverError("reflected direction does not point into the body")
        yield q, w, v, p
        q = K._last_point(q, v, f)


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
    """Finsler reflection via the concurrent-hyperplanes law, in any dimension.

    Finds v on the indicatrix whose tangent hyperplane meets the tangent
    hyperplane at u inside the reflecting hyperplane (the three are
    concurrent); when the tangent plane at u is parallel to the
    reflecting hyperplane the antipode is returned.  The hyperplanes
    through the plane L where those two meet form a pencil, whose normals
    e(theta) = cos(theta) f1 + sin(theta) f2 span D(u) and the mirror
    normal: v is one root on that circle (theta = 0 is the normal at u),
    started at the mirror image of the normal at u.
    """
    _require_symmetric(I)
    m = _unit(hyperplane_normal)
    u = np.asarray(u, dtype=float)
    _check_grazing(m, _unit(u))
    a = legendre_point(I, u)
    a_norm = float(np.linalg.norm(a))
    f1 = a / a_norm
    cos_m = float(f1 @ m)
    f2 = m - cos_m * f1
    sin_m = float(np.linalg.norm(f2))
    if sin_m < 1e-12:
        return -u
    f2 = f2 / sin_m
    # p* = (f1 - cot f2) / |a| is the point of L in span(f1, f2): <a, p*> = 1,
    # <m, p*> = 0, so <e(theta), p*> = (cos(theta) - cot sin(theta)) / |a|
    p1, p2 = 1.0 / a_norm, -cos_m / (sin_m * a_norm)

    # the tangency angles seen from p* are the two roots of the gap
    # <e, p*> / h(e) - 1; one of them is theta = 0, so deflate it: the gap /
    # sin(theta / 2) changes sign exactly once more on the circle, even when
    # the roots nearly merge (p* near the boundary at near-grazing incidence)
    last = [None, None]  # the last (theta, v): the root is usually its last iterate
    frame = np.stack([f1, f2])

    def deflated(theta):
        # as grad h(e) = v = gauss_inverse(e), the gap has the slope
        # <e', p*> / h - <e, p*> <v, e'> / h^2 with e' = de / dtheta
        c, s = math.cos(theta), math.sin(theta)
        v = I.gauss_inverse(c * f1 + s * f2)
        last[:] = theta, v
        v1, v2 = (frame @ v).tolist()
        h, ep = c * v1 + s * v2, c * p1 + s * p2  # <e, v> and <e, p*>
        g, slope = ep / h - 1.0, (c * p2 - s * p1) / h - ep * (c * v2 - s * v1) / (h * h)
        s2, c2 = math.sin(0.5 * theta), math.cos(0.5 * theta)
        return g / s2, slope / s2 - 0.5 * g * c2 / (s2 * s2)

    # the mirror image f1 - 2 cos_m m sits at 2 phi + pi, phi the angle of m
    theta0 = math.fmod(2.0 * math.atan2(sin_m, cos_m) + math.pi, 2.0 * math.pi)
    try:
        theta = find_root(deflated, 1e-4, 2.0 * math.pi - 1e-4, x0=theta0)
    except ConvergenceError as exc:
        raise SolverError("no transversal concurrency solution found") from exc
    v = last[1] if theta == last[0] else I.gauss_inverse(
        math.cos(theta) * f1 + math.sin(theta) * f2)
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
