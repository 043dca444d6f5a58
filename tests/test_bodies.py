"""Convex body representations: normals, Gauss maps, chords, duality."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import billiardlab as bl
from billiardlab import bodies as bodies_module
from billiardlab.bodies import ConvexBody, body_from_text
from billiardlab.errors import (
    BoundaryMembershipError,
    ConvergenceError,
    ConvexityViolationError,
    DegenerateChordError,
    DomainError,
    OriginNotInteriorError,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# exterior_normal
# ---------------------------------------------------------------------------

def test_normal_circle_axis(disk):
    assert np.allclose(disk.exterior_normal([0.0, 1.0]), [0.0, 1.0])


def test_normal_ellipse_axis(ellipse):
    assert np.allclose(ellipse.exterior_normal([2.0, 0.0]), [1.0, 0.0])


def test_normal_ellipsoid_matches_finite_differences(ellipsoid3):
    # oracle: centered differences of the implicit function
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = ellipsoid3.gauss_inverse(unit(rng.normal(size=3)))
        h = 1e-6
        grad_fd = np.array([
            (ellipsoid3.implicit(p + h * e) - ellipsoid3.implicit(p - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        assert np.allclose(ellipsoid3.exterior_normal(p), unit(grad_fd), atol=1e-8)


def test_normal_requires_boundary_point(disk):
    with pytest.raises(BoundaryMembershipError):
        disk.exterior_normal([0.3, 0.1])


@pytest.mark.parametrize("body", [bl.Ball(), bl.Superellipse(4.0),
                                  bl.RadialBody2D([1.0, 0.0, 0.08, 0.02], [0.0, 0.0, 0.0, 0.02])],
                         ids=["ball", "superellipse4", "radial"])
def test_a_nan_point_is_not_on_the_boundary(body):
    # F(nan) is NaN, which compares false against the bound: it must raise,
    # not return a NaN normal or chord end
    nan = np.array([math.nan, 0.0])
    rows = np.array([body.gauss_inverse([1.0, 0.0]), nan])
    for query in (lambda: body.exterior_normal(nan),
                  lambda: body.chord_second_intersection(nan, [1.0, 0.0]),
                  lambda: body.exterior_normal(rows),
                  lambda: body.chord_second_intersections(rows, [0.0, 1.0])):
        with pytest.raises(BoundaryMembershipError):
            query()


# ---------------------------------------------------------------------------
# gauss_inverse
# ---------------------------------------------------------------------------

def test_gauss_inverse_circle_trivial(disk):
    assert np.allclose(disk.gauss_inverse([0.0, 1.0]), [0.0, 1.0])


def test_gauss_inverse_superellipse_axis(superellipse):
    assert np.allclose(superellipse.gauss_inverse([1.0, 0.0]), [1.0, 0.0])


def test_gauss_inverse_ellipsoid_formula(ellipsoid3):
    # derived solution p = A^-1 u / sqrt(<A^-1 u, u>)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = unit(rng.normal(size=3))
        p = ellipsoid3.gauss_inverse(u)
        w = np.linalg.solve(ellipsoid3.A, u)
        expect = w / math.sqrt(float(w @ u))
        assert np.allclose(p, expect, atol=1e-12)
        assert abs(ellipsoid3.implicit(p)) < 1e-12


def test_gauss_round_trip_all_families(disk, ellipse, ellipse_rot, superellipse,
                                        radial_blob, ellipsoid3):
    rng = np.random.default_rng(3)
    for body in (disk, ellipse, ellipse_rot, superellipse, radial_blob, ellipsoid3):
        n_samples = 1000 if body.dim == 2 else 300
        worst = 0.0
        for _ in range(n_samples):
            u = unit(rng.normal(size=body.dim))
            p = body.gauss_inverse(u)
            worst = max(worst, np.linalg.norm(body.exterior_normal(p) - u))
        assert worst <= 1e-9, type(body).__name__


def test_gauss_inverse_superellipse_with_semiaxes():
    body = bl.Superellipse(4.0, semiaxes=[1.5, 0.6])
    rng = np.random.default_rng(14)
    for _ in range(40):
        u = unit(rng.normal(size=2))
        p = body.gauss_inverse(u)
        assert abs(body.implicit(p)) <= 1e-12
        assert np.linalg.norm(body.exterior_normal(p) - u) <= 1e-10


def test_linear_image_body_with_shear(ellipse):
    B = np.array([[1.2, 0.3], [0.0, 0.8]])
    image = bl.LinearImageBody(ellipse, B)
    rng = np.random.default_rng(15)
    for _ in range(25):
        u = unit(rng.normal(size=2))
        p = image.gauss_inverse(u)
        assert abs(image.implicit(p)) <= 1e-10
        assert np.linalg.norm(image.exterior_normal(p) - u) <= 1e-9
    # support function transforms through the adjoint
    u = unit([0.4, -0.9])
    assert abs(image.support(u) - ellipse.support(B.T @ u)) <= 1e-12
    assert abs(image.volume() - abs(np.linalg.det(B)) * ellipse.volume()) <= 1e-12


# ---------------------------------------------------------------------------
# chord_second_intersection
# ---------------------------------------------------------------------------

def test_chord_circle_vertical(disk):
    for theta in (0.4, 1.2, 2.0):
        a = np.array([math.cos(theta), math.sin(theta)])
        b = disk.chord_second_intersection(a, [0.0, -1.0])
        assert np.allclose(b, [math.cos(theta), -math.sin(theta)], atol=1e-12)


def test_chord_ellipse_vertical_quadratic_root(ellipse):
    # oracle: x fixed, y solves x^2/4 + y^2 = 1
    for t in (0.3, 1.0, 2.2):
        a = np.array([2 * math.cos(t), math.sin(t)])
        b = ellipse.chord_second_intersection(a, [0.0, -math.copysign(1.0, math.sin(t))])
        assert np.allclose(b, [2 * math.cos(t), -math.sin(t)], atol=1e-12)


def test_chord_tangent_raises(disk):
    with pytest.raises(DegenerateChordError):
        disk.chord_second_intersection(np.array([1.0, 0.0]), [0.0, -1.0])


def test_chord_involution_property(ellipse_rot, superellipse, radial_blob):
    rng = np.random.default_rng(5)
    for body in (ellipse_rot, superellipse, radial_blob):
        for _ in range(40):
            u = unit(rng.normal(size=2))
            a = body.gauss_inverse(u)
            d = unit(rng.normal(size=2))
            if abs(np.dot(body.exterior_normal(a), d)) > 0.999:
                continue
            try:
                b = body.chord_second_intersection(a, d)
            except DegenerateChordError:
                continue
            back = body.chord_second_intersection(b, d)
            assert np.linalg.norm(back - a) <= 1e-10


def test_generic_bracketed_exit_agrees_with_ellipsoid_closed_form(ellipse_rot):
    # the base exit's root solve on (0, T], against the quadratic formula
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = ellipse_rot.gauss_inverse(unit(rng.normal(size=2)))
        d = unit(rng.normal(size=2))
        if abs(np.dot(ellipse_rot.exterior_normal(a), d)) > 0.99:
            continue
        s = -1.0 if np.dot(ellipse_rot.implicit_grad(a), d) > 0.0 else 1.0
        b_generic = a + s * ConvexBody._exit(ellipse_rot, a, s * d, -1.0) * d
        b_exact = ellipse_rot.chord_second_intersection(a, d)
        assert np.allclose(b_generic, b_exact, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# polar duality and the Legendre transform
# ---------------------------------------------------------------------------

def test_polar_dual_ball_self_dual(disk):
    dual = bl.polar_dual(disk)
    assert np.allclose(dual.A, np.eye(2))


def test_polar_dual_ellipsoid_inverse_matrix(ellipsoid3):
    dual = bl.polar_dual(ellipsoid3)
    assert np.allclose(dual.A, np.linalg.inv(ellipsoid3.A))


def test_polar_dual_square_is_cross_polytope():
    square = bl.Polygon2D([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    dual = bl.polar_dual(square)
    verts = sorted(tuple(np.round(v, 12)) for v in dual.vertices)
    assert verts == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_polar_involutive_on_closed_forms(ellipse_rot, superellipse):
    dd = bl.polar_dual(bl.polar_dual(ellipse_rot))
    assert np.allclose(dd.A, ellipse_rot.A, atol=1e-12)
    ss = bl.polar_dual(bl.polar_dual(superellipse))
    assert abs(ss.m - superellipse.m) < 1e-12
    assert np.allclose(ss.a, superellipse.a)


def test_legendre_circle_identity(disk):
    assert np.allclose(bl.legendre_point(disk, [0.0, 1.0]), [0.0, 1.0])


def test_legendre_ellipse_is_matrix_action(ellipse):
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = ellipse.gauss_inverse(unit(rng.normal(size=2)))
        assert np.allclose(bl.legendre_point(ellipse, v), ellipse.A @ v, atol=1e-12)


def test_legendre_scaled_circle():
    r = 2.5
    circle = bl.Ball(r)
    assert np.allclose(bl.legendre_point(circle, [r, 0.0]), [1.0 / r, 0.0])


def test_legendre_involutive_through_dual(ellipse_rot, superellipse, radial_symmetric):
    rng = np.random.default_rng(8)
    for body in (ellipse_rot, superellipse, radial_symmetric):
        dual = bl.polar_dual(body)
        for _ in range(15):
            v = body.gauss_inverse(unit(rng.normal(size=2)))
            w = bl.legendre_point(body, v)
            assert abs(dual.implicit(w)) < 1e-9
            back = bl.legendre_point(dual, w)
            assert np.linalg.norm(back - v) <= 1e-9


class _ShiftedDisk(bl.ConvexBody):
    # unit disk centered at (2, 0); the origin is outside
    dim = 2
    center = np.array([2.0, 0.0])

    def implicit(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum((x - self.center) ** 2, axis=-1) - 1.0

    def implicit_grad(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.center)

    def implicit_hess(self, x):
        return 2.0 * np.eye(2)

    def bounding_radius(self):
        return 3.1

    def interior_point(self):
        return self.center


def test_legendre_needs_origin_inside():
    shifted = _ShiftedDisk()
    p = np.array([1.0, 0.0])  # boundary point on the near side, normal (-1, 0)
    with pytest.raises(OriginNotInteriorError):
        bl.legendre_point(shifted, p)


def test_polar_dual_needs_origin_inside():
    with pytest.raises(OriginNotInteriorError):
        bl.polar_dual(_ShiftedDisk())


def test_support_body_round_trip():
    # support function 1 + small even harmonic: a smooth symmetric body
    body = bl.SupportBody2D([1.0, 0.0, 0.05])
    rng = np.random.default_rng(60)
    for _ in range(25):
        u = unit(rng.normal(size=2))
        p = body.gauss_inverse(u)
        assert abs(body.implicit(p)) <= 1e-10
        assert np.linalg.norm(body.exterior_normal(p) - u) <= 1e-8
        assert abs(body.support(u) - np.dot(p, u)) <= 1e-10


def test_support_body_normal_solves_its_angle_once(monkeypatch):
    # F = <p, grad F> - 1 (Euler), so the boundary check takes F from the one
    # gradient: one normal-angle solve of the polar per exterior_normal or
    # chord, where the check through implicit made a second, with the same
    # bits
    body = bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02])
    P = body.support_point(np.random.default_rng(61).normal(size=(30, 2)))
    expected = bodies_module._unit(body.implicit_grad(body._require_boundary(P)))
    singles = [bodies_module._unit(body.implicit_grad(body._require_boundary(p))) for p in P]
    d = unit([0.6, -0.8])
    chords = [body._chord_end(p, d, float(np.dot(body.implicit_grad(body._require_boundary(p)), d)))
              for p in P[:5]]
    calls = []
    real = bl.RadialBody2D._gauss_angle
    monkeypatch.setattr(bl.RadialBody2D, "_gauss_angle",
                        lambda self, u: calls.append(1) or real(self, u))
    assert np.array_equal(body.exterior_normal(P), expected)
    assert len(calls) == 1
    for p, n in zip(P, singles):
        calls.clear()
        assert np.array_equal(body.exterior_normal(p), n)
        assert len(calls) == 1
    for p, b in zip(P, chords):
        calls.clear()
        assert np.array_equal(body.chord_second_intersection(p, d), b)
        assert len(calls) == 1
    with pytest.raises(BoundaryMembershipError):
        body.exterior_normal(1.01 * P[0])


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

def test_second_fundamental_form_sphere_identity(ball3):
    rng = np.random.default_rng(9)
    p = ball3.gauss_inverse(unit(rng.normal(size=3)))
    II = ball3.second_fundamental_form(p)
    assert np.allclose(II, np.eye(2), atol=1e-10)


def test_second_fundamental_form_paraboloid_germ_identity():
    germ = bl.GraphGerm(2, {(2, 0): 0.5, (0, 2): 0.5})
    assert np.allclose(germ.second_fundamental_form(), np.eye(2))


def test_second_fundamental_form_ellipse_curvature_oracle(ellipse):
    # finite-difference curvature oracle: fit the local graph u = kappa y^2 / 2
    def fd_curvature(x_of_y, h):
        return (x_of_y(0.0) - 2 * x_of_y(h) + x_of_y(2 * h)) / h ** 2 * (-1.0)

    # at (2,0): x = 2 sqrt(1 - y^2), curvature = 2
    kappa_20 = 2 * (2 - 2 * math.sqrt(1 - 1e-4)) / 1e-4
    II_20 = ellipse.second_fundamental_form(np.array([2.0, 0.0]))
    assert abs(II_20[0, 0] - kappa_20) < 1e-3
    assert abs(II_20[0, 0] - 2.0) < 1e-10
    # at (0,1): y = sqrt(1 - x^2/4), curvature = 1/4
    kappa_01 = 2 * (1 - math.sqrt(1 - 1e-4 / 4)) / 1e-4
    II_01 = ellipse.second_fundamental_form(np.array([0.0, 1.0]))
    assert abs(II_01[0, 0] - kappa_01) < 1e-3
    assert abs(II_01[0, 0] - 0.25) < 1e-10


def test_nonconvex_radial_profile_rejected():
    with pytest.raises(ConvexityViolationError):
        bl.RadialBody2D([1.0, 0.0, 0.6])


def test_implicit_hessians_match_finite_differences(radial_blob):
    # the generic Newton paths rely on exact Hessians
    support = bl.SupportBody2D([1.0, 0.0, 0.05])
    rng = np.random.default_rng(16)
    h = 1e-6
    for body in (radial_blob, support):
        for _ in range(5):
            p = body.gauss_inverse(unit(rng.normal(size=2)))
            x = p * 0.9 if isinstance(body, bl.RadialBody2D) else p
            H = body.implicit_hess(x)
            for i, e in enumerate(np.eye(2)):
                fd = (body.implicit_grad(x + h * e)
                      - body.implicit_grad(x - h * e)) / (2 * h)
                assert np.allclose(H[:, i], fd, atol=5e-5), type(body).__name__


def test_polygon_accepts_clockwise_vertices():
    cw = bl.Polygon2D([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    ccw = bl.Polygon2D([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert abs(cw.volume() - 4.0) < 1e-12
    assert abs(cw.polar().volume() - ccw.polar().volume()) < 1e-12


# ---------------------------------------------------------------------------
# germs: jets against finite differences
# ---------------------------------------------------------------------------

def test_graph_germ_jets_match_finite_differences():
    germ = bl.GraphGerm(2, {(2, 0): 1.0, (1, 1): 0.4, (0, 2): 0.7,
                            (2, 1): 0.3, (3, 0): 0.0, (5, 0): 0.01})
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-0.2, 0.2, size=2)
        for i, e in enumerate(np.eye(2)):
            fd = (germ.h(x + h * e) - germ.h(x - h * e)) / (2 * h)
            grad = germ.gradient(x)[i]
            assert abs(fd - grad) <= 1e-6 * max(1.0, abs(grad))


def test_planar_germ_jets_match_finite_differences():
    germ = bl.PlanarGerm([0, 0, 0.5, 0.1, -0.05, 0.01])
    h = 0.05
    x = 0.1
    # 5th derivative via 7-point stencil is exact for quintic polynomials
    nodes = np.arange(-3, 4) * h
    from billiardlab.jets import stencil_weights
    w = stencil_weights(nodes, 5)
    fd5 = sum(wk * germ.h(x + xk) for wk, xk in zip(w, nodes))
    assert abs(fd5 - germ.derivative(x, 5)) <= 1e-6 * max(1.0, abs(fd5))


def test_planar_germ_requires_tangency():
    with pytest.raises(DomainError):
        bl.PlanarGerm([0.1, 0, 0.5])
    with pytest.raises(ConvexityViolationError):
        bl.PlanarGerm([0, 0, -0.5])


# ---------------------------------------------------------------------------
# oriented lines, volumes, body files
# ---------------------------------------------------------------------------

def test_oriented_line_normalizes_direction():
    line = bl.OrientedLine([0.0, 0.0], [3.0, 4.0])
    assert np.allclose(line.direction, [0.6, 0.8])
    assert np.allclose(line.at(5.0), [3.0, 4.0])


def test_last_intersection_is_exit_point(ellipse):
    line = bl.OrientedLine([0.0, 0.0], [1.0, 0.0])
    q = ellipse.last_intersection(line)
    assert np.allclose(q, [2.0, 0.0], atol=1e-10)
    n = ellipse.exterior_normal(q)
    assert np.dot(line.direction, n) > 0


def test_line_intersections_find_thin_bodies():
    # this body is 0.002 thick, so a line can cross it between any two
    # points sampled at a fixed step; the line's minimum of F finds it
    base = bl.Superellipse(4.0)
    thin = bl.LinearImageBody(base, np.diag([1.0, 0.002]))
    rng = np.random.default_rng(2)
    for _ in range(300):
        w = base.gauss_inverse(rng.normal(size=2)) * rng.uniform(0.0, 0.95)
        line = bl.OrientedLine(thin.B @ w, rng.normal(size=2))
        t_enter, t_exit = thin.line_intersections(line)
        assert t_enter < 0.0 < t_exit
        for t in (t_enter, t_exit):
            assert abs(thin.implicit(line.at(t))) <= 1e-9
    with pytest.raises(DomainError):
        thin.line_intersections(bl.OrientedLine([0.0, 0.01], [1.0, 0.0]))


def test_generic_line_queries_match_ellipse_closed_forms(ellipse_rot):
    # the generic crossings against the quadratic formula, for lines from
    # base points outside K (hitting it ahead or behind) and from boundary
    # points along entering directions where the rounded F is positive
    E = ellipse_rot
    rng = np.random.default_rng(8)
    lines = []
    while len(lines) < 30:
        p = rng.uniform(-4.0, 4.0, size=2)
        if E.implicit(p) > 0.0:
            target = E.gauss_inverse(rng.normal(size=2)) * rng.uniform(0.0, 0.9)
            lines.append(bl.OrientedLine(p, rng.choice([-1.0, 1.0]) * (target - p)))
    boundary = 0
    while boundary < 30:
        n = unit(rng.normal(size=2))
        p = E.gauss_inverse(n)
        if E.implicit(p) > 0.0:
            boundary += 1
            w = -n + rng.uniform(-2.0, 2.0) * bodies_module.rot90(n)
            lines.append(bl.OrientedLine(p, w))
    for line in lines:
        assert np.allclose(ConvexBody.line_intersections(E, line),
                           E.line_intersections(line), rtol=0.0, atol=1e-12)
        assert np.allclose(ConvexBody.last_intersection(E, line),
                           E.last_intersection(line), rtol=0.0, atol=1e-12)


def test_boundary_exit_takes_no_line_grid(monkeypatch):
    # the support body's exit is one root solve in the normal angle on the
    # exit arc: no implicit or implicit_grad evaluation inside it
    body = bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02])
    n = unit([0.3, -1.0])
    p = body.gauss_inverse(n)
    line = bl.OrientedLine(p, -n + 0.5 * bodies_module.rot90(n))
    calls = []
    for name in ("implicit", "implicit_grad"):
        real = getattr(bl.SupportBody2D, name)
        monkeypatch.setattr(bl.SupportBody2D, name,
                            lambda self, x, real=real, name=name: calls.append(name)
                            or real(self, x))
    q = body.last_intersection(line)
    t = body._exit(np.stack([p, p]), np.stack([line.direction] * 2), -1.0)
    assert calls == []
    assert abs(body.implicit(q)) <= 1e-12
    assert np.allclose(t, np.dot(q - p, line.direction), rtol=0.0, atol=1e-15)


def _lines_through(body, rng, n):
    """Oriented lines through interior points, and chords from boundary
    points along entering directions."""
    X = body.gauss_inverse(rng.normal(size=(n, body.dim))) * rng.uniform(0.0, 0.95, (n, 1))
    V = rng.normal(size=(n, body.dim))
    return [bl.OrientedLine(x, v) for x, v in zip(X, V)]


def test_linear_image_of_ellipsoid_matches_its_closed_forms():
    # B(E_A) is the ellipsoid of B^-T A B^-1: the pulled-back exits against
    # the quadratic formula, for line crossings and chords
    rng = np.random.default_rng(41)
    A = np.array([[2.0, 0.4], [0.4, 0.7]])
    B = np.array([[1.2, -0.5], [0.3, 0.8]])
    image = bl.LinearImageBody(bl.Ellipsoid(A), B)
    Binv = np.linalg.inv(B)
    E = bl.Ellipsoid(Binv.T @ A @ Binv)
    for line in _lines_through(E, rng, 100):
        assert np.allclose(image.line_intersections(line), E.line_intersections(line),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(image.last_intersection(line), E.last_intersection(line),
                           rtol=0.0, atol=1e-12)
    P = E.gauss_inverse(rng.normal(size=(100, 2)))
    d = unit(rng.normal(size=2))
    Bi, ti = image.chord_second_intersections(P, d)
    Be, te = E.chord_second_intersections(P, d)
    assert np.array_equal(ti, te) and np.allclose(Bi, Be, rtol=0.0, atol=1e-12)


def test_support_body_arc_exits_match_the_march():
    # the normal-angle exit against the generic exit's bracketed root solve
    body = bl.SupportBody2D([1.0, 0.0, 0.06], [0.0, 0.0, 0.03, 0.01])
    rng = np.random.default_rng(42)
    for line in _lines_through(body, rng, 200):
        p, v = line.point, line.direction
        f = float(body.implicit(p))
        for w in (v, -v):
            assert abs(body._exit(p, w, f) - ConvexBody._exit(body, p, w, f)) <= 1e-12
        assert np.allclose(body.last_intersection(line), ConvexBody.last_intersection(body, line),
                           rtol=0.0, atol=1e-12)
    P = body.gauss_inverse(rng.normal(size=(200, 2)))
    D = rng.normal(size=(200, 2))
    D *= np.where(np.sum(body.implicit_grad(P) * D, axis=1) > 0.0, -1.0, 1.0)[:, None]
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    marched = ConvexBody._exit(body, P, D, -1.0)
    assert np.max(np.abs(body._exit(P, D, -1.0) - marched)) <= 1e-12


@pytest.mark.parametrize("body", [
    bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]), bl.Superellipse(4.0),
    bl.LinearImageBody(bl.Superellipse(4.0), [[1.1, 0.25], [0.05, 0.9]])],
    ids=["support", "superellipse4", "linear_image"])
def test_line_that_misses_the_body_raises(body):
    line = bl.OrientedLine([3.0, 0.5], [0.0, 1.0])
    for query in (body.line_intersections, body.last_intersection):
        with pytest.raises(DomainError):
            query(line)


def test_ray_that_never_exits_raises_convergence_error():
    # a failed exit solve, not a tangential chord for the row form to mask
    class Understated(bl.Superellipse):
        def bounding_radius(self):
            return 0.3

    body = Understated(3.5)
    with pytest.raises(ConvergenceError):
        ConvexBody._boundary_in_direction(body, np.array([1.0, 0.0]))
    with pytest.raises(ConvergenceError):
        body.chord_second_intersections(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
    # several rows, with a direction each, go through one row solve
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConvergenceError):
        body.chord_second_intersections(a, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ConvergenceError):
        ConvexBody._exit(body, np.zeros((2, 2)), np.eye(2), np.array([-1.0, -1.0]))


class _ArctanEllipse(ConvexBody):
    """The ellipse <Ax, x> <= 1 as the sublevel set of the quasiconvex, not
    convex, F = arctan(5 (<Ax, x> - 1)), written as a user would."""

    dim = 2

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def _q(self, x):
        return np.einsum("...i,ij,...j->...", x, self.A, x) - 1.0

    def implicit(self, x):
        return np.arctan(5.0 * self._q(np.asarray(x, dtype=float)))

    def implicit_grad(self, x):
        x = np.asarray(x, dtype=float)
        return (10.0 / (1.0 + 25.0 * self._q(x) ** 2))[..., None] * (x @ self.A)

    def bounding_radius(self):
        return 1.0001 / math.sqrt(np.linalg.eigvalsh(self.A)[0])


def test_generic_exit_of_a_quasiconvex_implicit_matches_the_ellipse():
    # F flattens far from the boundary, so the Newton step from the padded
    # sphere can leave the bracket; the sign change alone must carry the solve
    A = np.array([[2.0, 0.4], [0.4, 0.7]])
    body, E = _ArctanEllipse(A), bl.Ellipsoid(A)
    rng = np.random.default_rng(43)
    X = E.gauss_inverse(rng.normal(size=(100, 2))) * rng.uniform(0.0, 0.95, (100, 1))
    V = rng.normal(size=(100, 2))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    f = body.implicit(X)
    exact = E._exit(X, V, E.implicit(X))
    assert np.max(np.abs(body._exit(X, V, f) - exact)) <= 1e-12
    singles = [body._exit(x, v, float(fx)) for x, v, fx in zip(X, V, f)]
    assert np.max(np.abs(np.array(singles) - exact)) <= 1e-12
    P = E.gauss_inverse(rng.normal(size=(100, 2)))
    B, tangential = body.chord_second_intersections(P, V)
    Be, te = E.chord_second_intersections(P, V)
    assert np.array_equal(tangential, te)
    assert np.max(np.abs(B - Be)) <= 1e-12


def test_generic_volume_quadrature_matches_exact(ellipse):
    generic = ConvexBody.volume(ellipse)
    assert abs(generic - ellipse.volume()) < 1e-8 * ellipse.volume()


def test_superellipse_volume_formula(superellipse):
    # Dirichlet: vol = 4 Gamma(1 + 1/4)^2 / Gamma(1 + 2/4)
    expect = 4 * math.gamma(1.25) ** 2 / math.gamma(1.5)
    assert abs(superellipse.volume() - expect) < 1e-12
    # generic quadrature only needs the volume-product tolerance; the
    # Gauss chart degenerates at the four flat axis points
    generic = ConvexBody.volume(superellipse)
    assert abs(generic - expect) < 1e-3 * expect


def test_generic_volume_in_space_matches_ellipsoid_closed_form(ellipsoid3):
    # the radial function of an ellipsoid is analytic on the sphere, so the
    # Gauss-Legendre x trapezoid quadrature of (1/3) int rho^3 is spectral
    R = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    tilted = bl.Ellipsoid(R @ np.diag(1.0 / np.array([1.4, 0.6, 0.8]) ** 2) @ R.T)
    for body in (ellipsoid3, tilted):
        assert abs(ConvexBody.volume(body) - body.volume()) <= 1e-10 * body.volume()


def test_generic_volume_of_polar_superellipsoid():
    # the polar of the 4-superellipsoid is the 4/3-superellipsoid, of
    # volume 8 Gamma(1 + 3/4)^3 / Gamma(1 + 9/4)
    expect = 8.0 * math.gamma(1.75) ** 3 / math.gamma(3.25)
    volume = bodies_module.PolarBody(bl.Superellipse(4.0, dim=3)).volume()
    assert abs(volume - expect) <= 1e-4 * expect


def test_generic_volume_refuses_dimension_four():
    with pytest.raises(DomainError):
        ConvexBody.volume(bl.Ball(1.0, dim=4))


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_ellipsoid_membership_consistency(x, y):
    E = bl.Ellipsoid(np.diag([0.25, 1.0]))
    inside = x * x / 4 + y * y < 1
    assert E.contains(np.array([x, y])) == inside


def test_body_file_round_trips(tmp_path):
    text = """
    kind = ellipsoid
    dim = 2
    matrix = 0.25 0 0 1
    """
    body = body_from_text(text)
    assert isinstance(body, bl.Ellipsoid)
    assert np.allclose(body.A, np.diag([0.25, 1.0]))

    germ = body_from_text("""
    kind = graph_germ
    dim = 3
    radius_of_validity = 0.8
    c[2,0] = 1.0
    c[1,1] = 0.4
    c[0,2] = 0.7
    c[2,1] = 0.3
    """)
    assert isinstance(germ, bl.GraphGerm)
    assert germ.coeff((2, 1)) == 0.3

    planar = body_from_text("""
    kind = graph_germ
    dim = 2
    c[2] = 0.5
    c[5] = 0.01
    """)
    assert isinstance(planar, bl.PlanarGerm)
    assert planar.coeffs[5] == 0.01

    poly = body_from_text("kind = polygon\nvertices = 1 1 -1 1 -1 -1 1 -1")
    assert isinstance(poly, bl.Polygon2D)

    radial = body_from_text("kind = radial\nfourier_cos = 1.0 0 0.1")
    assert isinstance(radial, bl.RadialBody2D)


def test_body_file_errors_carry_line_numbers():
    from billiardlab.bodies import BodyFileError
    with pytest.raises(BodyFileError, match="line 2"):
        body_from_text("kind = ellipsoid\ndim = nope\nmatrix = 1 0 0 1")
    with pytest.raises(BodyFileError, match="experiment|kind"):
        body_from_text("dim = 2")


def test_last_intersection_solves_one_crossing(monkeypatch):
    # the exit point needs one root solve, not the entry crossing as well
    body = bl.Superellipse(3.5)
    calls = []
    real = bodies_module.find_root
    monkeypatch.setattr(bodies_module, "find_root",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(3)
    lines = [bl.OrientedLine(0.3 * rng.normal(size=2), rng.normal(size=2))
             for _ in range(20)]
    for line in lines:
        q = body.last_intersection(line)
        assert abs(body.implicit(q)) <= 1e-12
        assert np.isclose(np.dot(q - line.point, line.direction),
                          body.line_intersections(line)[1], atol=1e-12)
    assert len(calls) == 20 + 2 * 20


def test_exit_crossing_takes_few_evaluations(monkeypatch):
    # a converged Newton step that rounds onto the end of its bracket must
    # end the search: bisecting on down to 2 eps costs 13.4 evaluations of
    # F per exit crossing on these lines, where 3.9 suffice
    body = bl.Superellipse(3.5)
    evals = []
    real = bodies_module.find_root

    def counting(f, *args, **kwargs):
        return real(lambda t: evals.append(1) or f(t), *args, **kwargs)

    monkeypatch.setattr(bodies_module, "find_root", counting)
    rng = np.random.default_rng(3)
    for _ in range(20):
        body.last_intersection(bl.OrientedLine(0.3 * rng.normal(size=2),
                                               rng.normal(size=2)))
    assert len(evals) <= 5 * 20
    # chords from boundary points: the bracket reaches the padded bounding
    # sphere, and the Newton step from there keeps the solve short
    evals.clear()
    for _ in range(50):
        body.chord_second_intersection(body.gauss_inverse(rng.normal(size=2)),
                                       rng.normal(size=2))
    assert len(evals) <= 6 * 50


def test_rounded_negative_boundary_starts_deflate(monkeypatch):
    # an exit point whose F rounds below zero is a boundary start: its exits
    # deflate the root at t = 0 and take 1-2 evaluations together.  As an
    # interior start it took 1-8 per forward exit and up to 68 per chord,
    # whose backward exit bisected down onto a root within eps of t = 0.
    body = bl.Superellipse(4.0)
    evals = []
    real = bodies_module.find_root

    def counting(f, *args, **kwargs):
        return real(lambda *a: evals.append(1) or f(*a), *args, **kwargs)

    monkeypatch.setattr(bodies_module, "find_root", counting)
    rng = np.random.default_rng(11)
    starts = 0
    while starts < 50:
        q = body.last_intersection(bl.OrientedLine(0.5 * rng.uniform(-1.0, 1.0, 2),
                                                   rng.normal(size=2)))
        f = float(body.implicit(q))
        if f >= 0.0:
            continue
        starts += 1
        line = bl.OrientedLine(q, rng.normal(size=2))
        if body.implicit_grad(q) @ line.direction > 0.0:
            line = bl.OrientedLine(q, -line.direction)
        evals.clear()
        t = body.line_intersections(line)[1]
        assert len(evals) <= 2, f
        # the exit of the level set through q: within round-off of the exit
        # that the interior start F(q) = f solves for
        assert abs(t - body._exit(q, line.direction, f)) <= 1e-14


def test_interior_starts_near_the_boundary_take_few_evaluations(monkeypatch):
    # lines through points at relative depth d inside Superellipse(4): one
    # exit leaves at once and starts at the root of c_0 + c_1 t + c_2 t^2
    # (about -c_0 / c_1), the other at one Newton step on P from Cardano's
    # root.  Measured: 2.2, 2.4, 2.5, 4.0 and 6.2 evaluations per call for
    # the five depths, at most 4 per exit; bisecting down from 2.2 R, the
    # short exit made it 20-56 per call.
    body = bl.Superellipse(4.0)
    evals = []
    real = bodies_module.find_root

    def counting(f, *args, **kwargs):
        return real(lambda *a: evals.append(1) or f(*a), *args, **kwargs)

    monkeypatch.setattr(bodies_module, "find_root", counting)
    per_call = []
    for d in (1e-13, 1e-11, 1e-9, 1e-6, 1e-3):
        rng = np.random.default_rng(0)
        for _ in range(20):
            line = bl.OrientedLine(body.gauss_inverse(rng.normal(size=2)) * (1.0 - d),
                                   rng.normal(size=2))
            evals.clear()
            for t in body.line_intersections(line):
                assert abs(body.implicit(line.at(t))) <= 1e-14
            per_call.append(len(evals))
    assert max(per_call) <= 8
    assert np.mean(per_call) <= 6


def test_outside_start_takes_a_newton_slope_search(monkeypatch):
    # from a point outside, the minimum of F along the line is a Newton
    # search on its slope with the derivative v^T H v: bisecting the slope
    # without it took 57 evaluations per last_intersection on these lines
    body = bl.Superellipse(3.5)
    evals = []
    real = bodies_module.find_root

    def counting(f, *args, **kwargs):
        return real(lambda t: evals.append(1) or f(t), *args, **kwargs)

    monkeypatch.setattr(bodies_module, "find_root", counting)
    rng = np.random.default_rng(8)
    lines = 0
    while lines < 20:
        p = rng.uniform(-3.0, 3.0, size=2)
        if body.implicit(p) > 0.0:
            lines += 1
            line = bl.OrientedLine(p, rng.uniform(-0.5, 0.5, size=2) - p)
            q = body.last_intersection(line)
            assert abs(body.implicit(q)) <= 1e-12
            assert np.dot(body.implicit_grad(q), line.direction) > 0.0
    assert len(evals) <= 15 * 20


def _thin_polar():
    c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    B = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 0.08])
    return bl.PolarBody(bl.LinearImageBody(bl.Superellipse(4.0), B))


def test_thin_polar_line_queries():
    # the polar reaches 12.5 from the origin along the base's thin axis
    polar = _thin_polar()
    for phi in np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False):
        line = bl.OrientedLine(np.zeros(2), bl.unit_vector(phi, 2))
        q = polar.last_intersection(line)
        t_enter, t_exit = polar.line_intersections(line)
        assert np.linalg.norm(line.at(t_exit) - q) <= 1e-9 * np.linalg.norm(q)
        back = polar.chord_second_intersection(q, line.direction)
        assert np.linalg.norm(back - line.at(t_enter)) <= 1e-9 * np.linalg.norm(q)


_RADIUS_EXTRAS = {
    "support": lambda: bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]),
    "linear_image": lambda: bl.LinearImageBody(
        bl.Superellipse(4.0), np.array([[1.1, 0.25], [0.05, 0.9]])),
}


@pytest.mark.parametrize("name", [
    "disk", "ellipse", "ellipse_rot", "superellipse", "radial_blob",
    "radial_symmetric", "ball3", "ellipsoid3", "superellipsoid3",
    "polar radial_blob", "polar support", "polar linear_image", "thin polar"])
def test_bounding_radius_bounds_the_boundary(request, name):
    if name == "thin polar":
        body = _thin_polar()
    elif name.startswith("polar "):
        base = name.split()[1]
        body = bl.PolarBody(_RADIUS_EXTRAS[base]() if base in _RADIUS_EXTRAS
                            else request.getfixturevalue(base))
    else:
        body = request.getfixturevalue(name)
    if body.dim == 2:
        dirs = [bl.unit_vector(a, 2)
                for a in np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)]
    else:
        dirs = [bl.unit_vector([a, p], 3)
                for a in np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False)
                for p in np.linspace(0.0, math.pi, 60)]
    reach = max(np.linalg.norm(body._boundary_in_direction(s)) for s in dirs)
    assert body.bounding_radius() >= reach * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# radial boundary points, support and gauge Hessians
# ---------------------------------------------------------------------------

def _hessian_bodies():
    radial = bl.RadialBody2D([1.0, 0.0, 0.06, 0.02], [0.0, 0.03, 0.0, 0.01])
    return [
        bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])),
        bl.Superellipse(3.0, semiaxes=[1.0, 0.6]),
        bl.Superellipse(1.5, semiaxes=[1.0, 1.6]),
        radial,
        bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]),
        bl.LinearImageBody(bl.Superellipse(4.0), np.array([[1.1, 0.25], [0.05, 0.9]])),
        bl.PolarBody(radial),
        bl.Ellipsoid(np.diag([1.0, 1.5625, 2.7778])),
        bl.Superellipse(4.0, semiaxes=[1.0, 0.8, 1.2]),
    ]


@pytest.mark.parametrize("body", _hessian_bodies(), ids=lambda b: type(b).__name__)
def test_boundary_in_direction_closed_forms_match_generic(body):
    rng = np.random.default_rng(17)
    for _ in range(5):
        s = rng.normal(size=body.dim)
        p = body._boundary_in_direction(s)
        generic = ConvexBody._boundary_in_direction(body, s)
        assert np.allclose(p, generic, atol=1e-12)
        assert np.linalg.norm(np.cross(p, s) if body.dim == 3
                              else p[0] * s[1] - p[1] * s[0]) <= 1e-12
        assert np.dot(p, s) > 0.0


@pytest.mark.parametrize("body", _hessian_bodies() + [bl.Superellipse(4.0)],
                         ids=lambda b: type(b).__name__)
def test_leaving_boundary_start_is_its_own_last_intersection(body):
    # a line that leaves the body at its base point on the boundary exits
    # there, whether the rounded F at the point is positive or negative
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = unit(rng.normal(size=body.dim))
        p = body.gauss_inverse(n)
        line = bl.OrientedLine(p, n + 0.8 * unit(rng.normal(size=body.dim)))
        if np.dot(line.direction, n) <= 0.05:
            line = bl.OrientedLine(p, n)
        assert np.linalg.norm(body.last_intersection(line) - p) <= 1e-14
        t_enter, t_exit = body.line_intersections(line)
        assert abs(t_exit) <= 1e-14 and t_enter < -1e-3
        assert abs(body.implicit(line.at(t_enter))) <= 1e-12


@pytest.mark.parametrize("body", _hessian_bodies(), ids=lambda b: type(b).__name__)
def test_support_and_gauge_hessians_match_finite_differences(body):
    # grad h is the support point; grad g on the ray of x is
    # grad F / <grad F, p> at the boundary point p
    def gauge_grad(x):
        p = body._boundary_in_direction(x)
        g = body.implicit_grad(p)
        return g / float(g @ p)

    rng = np.random.default_rng(18)
    h = 1e-6
    for _ in range(4):
        u = rng.normal(size=body.dim)
        for hess, grad in ((body.support_hess, body.support_point),
                           (body.gauge_hess, gauge_grad)):
            H = hess(u)
            fd = np.column_stack([(grad(u + h * e) - grad(u - h * e)) / (2 * h)
                                  for e in np.eye(body.dim)])
            assert np.allclose(H, H.T, atol=1e-12)
            assert np.allclose(H, fd, atol=1e-7 * max(1.0, np.max(np.abs(fd))))
            # 1-homogeneous functions: the Hessian annihilates the point
            assert np.linalg.norm(H @ u) <= 1e-9 * np.linalg.norm(H) * np.linalg.norm(u)


def test_support_and_implicit_hessians_finite_on_the_axes():
    # for exponent > 2 the support Hessian is infinite at the axis normals,
    # and for exponent < 2 the Hessian of F is infinite at the axis points;
    # both are reported as large but finite, without a floating-point warning
    with np.errstate(all="raise"):
        H = bl.Superellipse(4.0).support_hess(np.array([0.0, 2.0]))
        H_F = bl.Superellipse(1.5).implicit_hess(np.array([1.0, 0.0]))
    for M, i in ((H, 0), (H_F, 1)):
        assert np.all(np.isfinite(M))
        assert M[i, i] > 1e6


def test_polar_body_implicit_hess_is_base_support_hessian():
    # F = h_K - 1 on the polar of the ellipsoid {<Ax, x> <= 1}:
    # grad^2 h_K(x) = M/h - M x x^T M / h^3 with M = A^-1, h = sqrt(x^T M x)
    A = np.array([[0.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.0]])
    polar = bl.PolarBody(bl.Ellipsoid(A))
    M = np.linalg.inv(A)
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = rng.normal(size=3)
        h = math.sqrt(x @ M @ x)
        expected = M / h - np.outer(M @ x, M @ x) / h ** 3
        assert np.allclose(polar.implicit_hess(x), expected, atol=1e-13)


def test_trig_series_jet_matches_finite_differences():
    f = bodies_module.TrigSeries([1.0, 0.1, 0.05, 0.0, 0.01], [0.0, 0.02, 0.0, 0.03])
    theta = np.linspace(-3.0, 3.0, 13)
    r, r1, r2 = f.jet(theta)
    h = 1e-5
    assert np.allclose(r1, (f(theta + h) - f(theta - h)) / (2 * h), atol=1e-9)
    assert np.allclose(r2, (f(theta + h, 1) - f(theta - h, 1)) / (2 * h), atol=1e-9)
    expected = (1.0 + 0.1 * np.cos(theta) + 0.05 * np.cos(2 * theta)
                + 0.01 * np.cos(4 * theta) + 0.02 * np.sin(theta)
                + 0.03 * np.sin(3 * theta))
    assert np.allclose(r, expected, atol=1e-15)
    assert float(f(0.4)) == pytest.approx(float(f(np.array([0.4]))[0]), abs=1e-16)


@pytest.mark.parametrize("body", [bl.Superellipse(4.0), bl.Superellipse(6.0, dim=3),
                                  bl.Superellipse(4.0, [1.0, 0.6])],
                         ids=["m4", "m6_3d", "m4_semiaxes"])
def test_even_superellipse_exits_are_accurate_roots(body):
    # the exit solves the line polynomial whose coefficients c_k the body
    # forms in floating point: against its exact root (mpmath), the relative
    # error of t stays within 8 eps times the root's condition number
    # sum_k |c_k t^(k-1)| / |t G'(t)| (about 1 unless Horner cancels), on
    # 200 random chords, 20 near-tangent ones with |t| down to 1e-6, and
    # exits from 100 interior points
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(50)
    m, n, eps = int(body.m), body.dim, np.finfo(float).eps
    P = body.gauss_inverse(rng.normal(size=(200, n)))
    D = rng.normal(size=(200, n))
    D *= np.where(np.sum(body.implicit_grad(P) * D, axis=1) > 0.0, -1.0, 1.0)[:, None]
    rays = [(p, unit(d), -1.0) for p, d in zip(P, D)]
    for p, eps_t in zip(P, np.logspace(-1.0, -5.5, 20)):  # near-tangent chords
        normal = body.exterior_normal(p)
        tau = rng.normal(size=n)
        tau -= np.dot(tau, normal) * normal
        rays.append((p, unit(unit(tau) - eps_t * normal), -1.0))
    for p, d in zip(P[:100], D[:100]):  # interior starts
        x = p * rng.uniform(0.0, 0.95)
        rays.append((x, unit(d), float(body.implicit(x))))
    k = np.arange(m + 1)
    smallest = np.inf
    for p, v, f_p in rays:
        t = body._exit(p, v, f_p)
        c = (body._binomial * (p / body.a)[:, None] ** (m - k) * (v / body.a)[:, None] ** k).sum(0)
        c[0] = 0.0 if f_p == -1.0 else c[0] - 1.0
        cm = [mp.mpf(float(ck)) for ck in c]
        g = lambda s: sum(cm[j] * s ** (j - 1) for j in range(m + 1))  # P(t) / t
        dg = lambda s: sum((j - 1) * cm[j] * s ** (j - 2) for j in range(m + 1))
        root = mp.findroot(g, mp.mpf(float(t)))
        cond = sum(abs(cm[j]) * abs(root) ** (j - 1) for j in range(m + 1)) / abs(root * dg(root))
        assert abs(t - root) <= 8 * eps * max(1.0, float(cond)) * abs(root)
        smallest = min(smallest, abs(t))
    assert smallest < 1e-5 * body.diameter()


def _exact_chord_normal(mp, m, u, d):
    """The unit normal at the far end of the chord along d from the point of
    {sum |x_i|^m <= 1} whose normal is the float u, in mpmath arithmetic at
    its working precision: the boundary point, the chord's root (of the
    deflated sum, bracketed) and the normal, all from u and d."""
    m, n = mp.mpf(m), len(u)
    u, d = [mp.mpf(float(x)) for x in u], [mp.mpf(float(x)) for x in d]
    w = [mp.sign(x) * abs(x) ** (1 / (m - 1)) for x in u]
    scale = mp.fsum(abs(x) ** m for x in w) ** (1 / m)
    p = [x / scale for x in w]
    v = [-x if mp.fsum(a * b for a, b in zip(u, d)) > 0 else x for x in d]
    phi0 = mp.fsum(abs(x) ** m for x in p)
    t = mp.findroot(lambda t: (mp.fsum(abs(a + t * b) ** m for a, b in zip(p, v)) - phi0) / t,
                    (mp.mpf(10) ** (-mp.mp.dps // 2), 3 * n), solver="anderson")
    g = [mp.sign(a + t * b) * abs(a + t * b) ** (m - 1) for a, b in zip(p, v)]
    norm = mp.sqrt(mp.fsum(x * x for x in g))
    return np.array([float(x / norm) for x in g])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [1.5, 2.5, 3.5])
def test_fractional_chord_normals_match_high_precision(m, dim):
    # _chord_normal rows of fractional superellipses against the 60-digit
    # normal at the end of the exact chord from the exact boundary point of
    # each float u: random normals, near-tangent ones (<u, d> from 1e-2 down
    # to 1e-5, both chord senses) and the axis normals (boundary points on
    # the axes, flat for m > 2).  Measured: at most 2 eps on every row (the
    # generic exit from the bounding sphere read up to 1.5e5 eps on the
    # near-tangent rows); the bound is 4 eps.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    eps = np.finfo(float).eps
    body = bl.Superellipse(m, dim=dim)
    rng = np.random.default_rng(int(10 * m) + dim)
    d = unit(rng.normal(size=dim))
    U = list(rng.normal(size=(12, dim)))
    for a in (1e-2, 1e-3, 1e-4, 1e-5, -1e-3, -1e-5):
        tau = rng.normal(size=dim)
        tau -= np.dot(tau, d) * d
        U.append(unit(tau) + a * d)
    U += list(np.eye(dim)) + list(-np.eye(dim))
    U = np.array([unit(u) for u in U])
    normals = body._chord_normal(U, d)
    for u, n in zip(U, normals):
        assert np.linalg.norm(n - _exact_chord_normal(mp, m, u, d)) <= 4 * eps


def _axis_and_diagonal_classes(dim):
    classes = [np.eye(dim)[i] for i in range(dim)]
    for signs in itertools.product((1.0, -1.0), repeat=dim - 1):
        classes.append(unit((1.0,) + signs))  # the diagonals
    for i, j in itertools.combinations(range(dim), 2):
        if dim > 2:  # and the diagonals of the coordinate planes
            for s in (1.0, -1.0):
                e = np.zeros(dim)
                e[i], e[j] = 1.0, s
                classes.append(unit(e))
    return classes


@pytest.mark.parametrize("dim", [2, 3])
def test_quartic_superellipse_chords_start_at_cardano_root(dim, monkeypatch):
    # from a boundary point, P(t) / t of Superellipse(4) is an increasing
    # cubic, and Cardano's formula gives its one real root: the kernel
    # polishes it in at most 2 evaluations, for one chord and for rows.  The
    # root of the quadratic model took 2-9, 7-8 on chords along a flat side,
    # where the cubic has an inflection plateau before its root.
    body = bl.Superellipse(4.0, dim=dim)
    evals = []
    real = bodies_module.find_root

    def counting(f, *args, **kwargs):
        return real(lambda *a: evals.append(1) or f(*a), *args, **kwargs)

    monkeypatch.setattr(bodies_module, "find_root", counting)
    rng = np.random.default_rng(29)
    U = rng.normal(size=(160, dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for d in _axis_and_diagonal_classes(dim):
        cls = bl.ParallelClass(d)
        rows = U[abs(U @ cls.direction) >= 1e-13]
        for u in rows:
            evals.clear()
            bl.parallel_chord_involution(body, cls, u)
            assert len(evals) <= 2, (d, u)
        evals.clear()
        bl.parallel_chord_involution(body, cls, rows)
        assert len(evals) <= 2, d
    # on other classes a few chords meet the rounding of P before the
    # kernel's 2 eps step, and take another evaluation or two there
    counts = []
    for d in rng.normal(size=(5, dim)):
        cls = bl.ParallelClass(d)
        for u in U:
            evals.clear()
            bl.parallel_chord_involution(body, cls, u)
            counts.append(len(evals))
    assert max(counts) <= 4 and np.mean(np.array(counts) > 2) <= 0.01
