"""Closed-form polars, the radial body's own ray exit, symmetry from the
series coefficients and planar areas, checked against the generic
``PolarBody``, the base exit, sampled support values and 40-digit mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

import billiardlab as bl
from billiardlab.bodies import (SYMMETRY_TOL, ConvexBody, PolarBody, ReciprocalSeries, TrigSeries,
                               mirror_symmetric)
from test_rows import FAMILIES, unit_rows

# the capacity workload's radial and linear-image bodies
CAPACITY_BODIES = {
    "capacity_radial": lambda: bl.RadialBody2D([1.0, 0.0, 0.06, 0.0, 0.01],
                                               [0.0, 0.0, 0.02, 0.0, 0.0]),
    "capacity_linear": lambda: bl.LinearImageBody(bl.Superellipse(4.0),
                                                  [[1.1, 0.25], [0.05, 0.9]]),
}
ORACLE_BODIES = {**FAMILIES, **CAPACITY_BODIES}
AGREE = 1e-12


def assert_close(a, b, tol=AGREE):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# polar_dual in closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ORACLE_BODIES))
def test_no_library_body_has_a_generic_polar(name):
    assert not isinstance(bl.polar_dual(ORACLE_BODIES[name]()), PolarBody)


def test_polars_of_series_bodies_swap_representation_and_keep_the_series():
    radial = FAMILIES["radial"]()
    support = FAMILIES["support"]()
    J = bl.polar_dual(radial)
    assert isinstance(J, bl.SupportBody2D) and isinstance(J.h, ReciprocalSeries)
    assert J.h.f is radial.radial
    J = bl.polar_dual(support)
    assert isinstance(J, bl.RadialBody2D) and isinstance(J.radial, ReciprocalSeries)
    assert J.radial.f is support.h
    # the polar of a reciprocal series hands back the original series object
    assert bl.polar_dual(bl.polar_dual(radial)).radial is radial.radial
    assert bl.polar_dual(bl.polar_dual(support)).h is support.h


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_polar_dual_is_an_involution(name):
    K = FAMILIES[name]()
    KK = bl.polar_dual(bl.polar_dual(K))
    if isinstance(K, PolarBody):
        # the bipolar theorem: the polar of a polar is its base
        assert bl.polar_dual(K) is K.base
    else:
        assert type(KK) is type(K)
    U = unit_rows(np.random.default_rng(40), 25, K.dim)
    assert_close(KK.support(U), K.support(U))
    assert_close(KK._boundary_in_direction(U), K._boundary_in_direction(U))
    assert_close(KK.gauss_inverse(U), K.gauss_inverse(U))


@pytest.mark.parametrize("name", sorted(ORACLE_BODIES))
def test_closed_form_polar_matches_the_generic_polar(name):
    K = ORACLE_BODIES[name]()
    J, oracle = bl.polar_dual(K), PolarBody(K)
    rng = np.random.default_rng(41)
    U = unit_rows(rng, 12, K.dim)
    assert_close(J.support(U), oracle.support(U))
    assert_close(J.support_point(U), oracle.support_point(U))
    assert_close(J.support_hess(U), oracle.support_hess(U))
    # chords from boundary points, exits from interior points and lines
    P = J.gauss_inverse(U)
    D = unit_rows(rng, 12, K.dim)
    for p, d in zip(P, D):
        assert_close(J.chord_second_intersection(p, d), oracle.chord_second_intersection(p, d))
    X = 0.4 * P[::-1]
    f = float(J.implicit(X[0]))
    for x, d in zip(X, D):
        assert_close(J._exit(x, d, f), oracle._exit(x, d, f))
        line = bl.OrientedLine(x, d)
        assert_close(J.last_intersection(line), oracle.last_intersection(line))


def test_polar_of_a_linear_image_is_the_image_of_the_polar():
    K = CAPACITY_BODIES["capacity_linear"]()
    J = bl.polar_dual(K)
    assert isinstance(J.base, bl.Superellipse) and J.base.m == 4.0 / 3.0
    assert np.array_equal(J.B, K.B_inv.T)


# the gauge of a support body is the support function of its polar
GAUGE_BODIES = {
    "support": FAMILIES["support"],
    "support_odd": lambda: bl.SupportBody2D([1.0, 0.1, 0.04, 0.02], [0.0, 0.05, 0.0, 0.01]),
    "polar_of_radial": lambda: bl.polar_dual(CAPACITY_BODIES["capacity_radial"]()),
}


@pytest.mark.parametrize("name", sorted(GAUGE_BODIES))
def test_support_body_implicit_is_the_gauge_minus_one(name):
    # F = h_polar - 1, its gradient and Hessian against the generic polar of
    # the closed-form polar, as rows and as single vectors
    S = GAUGE_BODIES[name]()
    oracle = PolarBody(bl.polar_dual(S))
    X = np.random.default_rng(43).uniform(-2.0, 2.0, size=(400, 2))
    for query in ("implicit", "implicit_grad", "implicit_hess"):
        expected = getattr(oracle, query)(X)
        assert_close(getattr(S, query)(X), expected, 1e-13)
        assert_close([getattr(S, query)(x) for x in X], expected, 1e-13)
    U = unit_rows(np.random.default_rng(44), 400, 2)
    assert_close(S.exterior_normal(S.support_point(U)), U, 1e-12)


# ---------------------------------------------------------------------------
# the reciprocal series
# ---------------------------------------------------------------------------

def test_reciprocal_series_jet_and_position_jet_match_mpmath():
    h = TrigSeries([1.0, 0.0, 0.05, 0.01], [0.0, 0.02, 0.0, 0.01])
    g = ReciprocalSeries(h)
    body = bl.RadialBody2D(g)
    with mp.workdps(40):
        h_mp = _mp_series(h.cc, h.sc)
        for theta in (0.3, 2.1, -1.7):
            t = mp.mpf(theta)
            expected = [mp.diff(lambda s: 1 / h_mp(s), t, k) for k in range(3)]
            assert_close(g.jet(theta), [float(e) for e in expected], 1e-14)
            X, Y = body.position_jet(theta)
            for comp, trig in ((X, mp.cos), (Y, mp.sin)):
                coeffs = [mp.diff(lambda s: trig(s) / h_mp(s), t, k) / mp.factorial(k)
                          for k in range(len(comp.c))]
                assert_close(comp.c, [float(c) for c in coeffs], 1e-12)


# ---------------------------------------------------------------------------
# central symmetry from the coefficients
# ---------------------------------------------------------------------------

def _sampled_symmetric(body, points=32):
    rng = np.random.default_rng(11)
    U = unit_rows(rng, points, body.dim)
    return bool(np.all(np.abs(body.support(U) - body.support(-U))
                       <= SYMMETRY_TOL * body.bounding_radius()))


SYMMETRY_BODIES = {
    **FAMILIES,
    "radial_symmetric": lambda: bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02], [0.0, 0.0, 0.03]),
    "support_symmetric": lambda: bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]),
    "radial_symmetric_polar": lambda: bl.polar_dual(bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02])),
    "radial_odd_1e-3": lambda: bl.RadialBody2D([1.0, 0.0, 0.08, 1e-3, 0.02]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRY_BODIES))
def test_symmetry_from_the_series_matches_sampled_support_values(name):
    body = SYMMETRY_BODIES[name]()
    assert mirror_symmetric(body) == _sampled_symmetric(body)


def test_small_odd_harmonic_is_asymmetric(monkeypatch):
    body = SYMMETRY_BODIES["radial_odd_1e-3"]()
    # decided from the coefficients: no support value is sampled
    monkeypatch.setattr(bl.RadialBody2D, "support", None)
    assert not mirror_symmetric(body)
    assert mirror_symmetric(bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]))


# ---------------------------------------------------------------------------
# planar areas by the trapezoid rule
# ---------------------------------------------------------------------------

def _mp_series(cc, sc=()):
    """f and f' of a trigonometric series, in mpmath."""
    cc = [mp.mpf(float(c)) for c in cc]
    sc = [mp.mpf(float(s)) for s in sc] + [mp.mpf(0)] * (len(cc) - len(sc))

    def f(t, order=0):
        if order == 0:
            return cc[0] + sum(cc[k] * mp.cos(k * t) + sc[k] * mp.sin(k * t)
                               for k in range(1, len(cc)))
        return sum(k * (sc[k] * mp.cos(k * t) - cc[k] * mp.sin(k * t)) for k in range(1, len(cc)))
    return f


def test_planar_areas_match_mpmath():
    with mp.workdps(40):
        cc, sc = [1.0, 0.0, 0.08, 0.02, 0.01], [0.0, 0.03, 0.0, 0.02]
        f = _mp_series(cc, sc)
        radial_area = mp.quad(lambda t: f(t) ** 2 / 2, [0, mp.pi, 2 * mp.pi])
        support_area = mp.quad(lambda t: (f(t) ** 2 - f(t, 1) ** 2) / 2, [0, mp.pi, 2 * mp.pi])
        # the polars: radial 1/h, support 1/r
        recip_radial = mp.quad(lambda t: 1 / (2 * f(t) ** 2), [0, mp.pi, 2 * mp.pi])
        recip_support = mp.quad(lambda t: (1 / f(t) ** 2 - (f(t, 1) / f(t) ** 2) ** 2) / 2,
                                [0, mp.pi, 2 * mp.pi])
        radial, support = bl.RadialBody2D(cc, sc), bl.SupportBody2D(cc, sc)
        for body, area in ((radial, radial_area), (support, support_area),
                           (bl.polar_dual(support), recip_radial),
                           (bl.polar_dual(radial), recip_support)):
            assert abs(body.volume() / float(area) - 1.0) <= 1e-12, type(body).__name__


def test_mahler_product_of_a_radial_body_matches_mpmath():
    # (1/2) integral r^2 times (1/2) integral (h^2 - h'^2), h = 1/r, at 40 digits
    value = bl.mahler_product(bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]))
    assert abs(value / 9.85502817889378 - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the radial body's ray exit
# ---------------------------------------------------------------------------

# the radial body of the seed-1 reflect workload
SEED1_RADIAL = ([1.0, 0.0, 0.07794597788548976, 0.006236629040209709],
                [0.0, 0.016933057958903028, 0.0, 0.016554051876408835])


def _mp_exit(body, p, v, t_near):
    """The exit parameter near t_near of the ray p + t v, at 40 digits."""
    r = _mp_series(body.radial.cc, body.radial.sc)
    px, py, vx, vy = (mp.mpf(float(x)) for x in (*p, *v))

    def F(t):
        x, y = px + t * vx, py + t * vy
        return mp.sqrt(x * x + y * y) - r(mp.atan2(y, x))

    with mp.workdps(40):
        return float(mp.findroot(F, mp.mpf(float(t_near))))


def _rotate(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _edge_rays():
    """(name, body, p, v, f_p) for the edge cases of the exit solve."""
    body = bl.RadialBody2D(*SEED1_RADIAL)
    rng = np.random.default_rng(42)
    rays = []
    for k, v in enumerate(unit_rows(rng, 3, 2)):
        rays.append((f"origin{k}", body, np.zeros(2), v, float(body.implicit(np.zeros(2)))))
        for lam in (0.5, -0.7):  # on the origin line, ahead of and behind the origin
            p = lam * v
            rays.append((f"origin_line{k}_{lam}", body, p, v, float(body.implicit(p))))
        for eps in (1e-15, 1e-10):  # nearly on the origin line
            for lam in (0.5, -0.7):
                p = lam * v + eps * bl.bodies.rot90(v)
                rays.append((f"parallel{k}_{lam}_{eps}", body, p, v, float(body.implicit(p))))
    for k, u in enumerate(unit_rows(rng, 3, 2)):
        p = body._boundary_in_direction(u)
        n = body.exterior_normal(p)
        for angle in (1e-9, 1e-5):  # sweeping nearly pi, through the origin's neighbourhood
            rays.append((f"sweep_pi{k}_{angle}", body, p, _rotate(-u, angle), -1.0))
        for angle in (1e-3, 1e-6):  # near-grazing, entering
            tangent = bl.bodies.rot90(n)
            rays.append((f"grazing{k}_{angle}", body, p, _rotate(tangent, angle), -1.0))
            rays.append((f"grazing{k}_-{angle}", body, p, _rotate(-tangent, -angle), -1.0))
    # a rounded boundary point that reads as interior: F(p) = -2.2e-16 (a bounce
    # of the seed-1 reflect workload's radial/t_ball orbit)
    p = np.array([1.0679945401078084, 0.21618578420726606])
    v = np.array([-0.9445148623171367, -0.32846868170655236])
    rays.append(("rounded_boundary", body, p, v, float(body.implicit(p))))
    return rays


EDGE_RAYS = {name: rest for name, *rest in _edge_rays()}


@pytest.mark.parametrize("name", sorted(EDGE_RAYS))
def test_radial_exit_edge_cases_match_the_march_and_mpmath(name):
    body, p, v, f_p = EDGE_RAYS[name]
    t = body._exit(p, v, f_p)
    march = ConvexBody._exit(body, p, v, f_p)
    exact = _mp_exit(body, p, v, t)
    # the exit point's error along the ray grows as the ray grazes the boundary
    x = p + t * v
    grazing = abs(float(body.exterior_normal(body._boundary_in_direction(x)) @ v))
    tol = 2e-15 * body.bounding_radius() / grazing  # a few ulps of t
    assert abs(t - exact) <= tol, (t, exact)
    assert abs(march - exact) <= tol, (march, exact)


def test_radial_exit_edge_case_rows_keep_their_one_ray_bits():
    body = bl.RadialBody2D(*SEED1_RADIAL)
    for group in ("origin", "parallel", "sweep_pi", "grazing"):
        rays = [EDGE_RAYS[n] for n in sorted(EDGE_RAYS) if n.startswith(group)]
        P, V = np.array([r[1] for r in rays]), np.array([r[2] for r in rays])
        f_p = rays[0][3] if group in ("sweep_pi", "grazing") else -0.5
        assert np.array_equal(body._exit(P, V, f_p), [body._exit(p, v, f_p) for p, v in zip(P, V)])


def test_rounded_boundary_start_leaves_on_the_far_side():
    body, p, v, f_p = EDGE_RAYS["rounded_boundary"]
    assert -1e-15 < f_p < 0.0  # an interior start by its rounded F
    q = body.last_intersection(bl.OrientedLine(p, v))
    assert np.linalg.norm(q - p) > 0.5
    assert abs(float(body.implicit(q))) <= 1e-15
    # also as a boundary start
    assert body._exit(p, v, -1.0) == body._exit(p, v, f_p)
