"""Osculating conics and quadrics, affine curvature, planar sections."""

import math

import numpy as np
import pytest

import billiardlab as bl
from billiardlab.errors import (
    DomainError,
    FrameNormalizationError,
    IndistinguishableError,
    PreconditionError,
    SamplePlanError,
)
from billiardlab.jets import dyadic_grid
from billiardlab.osculation import conic_quintic_coefficient, section_points
from billiardlab.solvers import EPS


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


QUADRIC_GERM_TERMS = {
    (2, 0): 1.0, (1, 1): 0.4, (0, 2): 0.7,
    (2, 1): 0.3, (3, 1): 0.05, (5, 0): 1e-2,
}


# ---------------------------------------------------------------------------
# osculating conic
# ---------------------------------------------------------------------------

def test_parabola_is_its_own_osculating_conic():
    germ = bl.PlanarGerm([0, 0, 0.5])
    conic = bl.osculating_conic(germ)
    target = bl.conic_from_graph_coefficients(0.5, 0.0, 0.0)
    assert conic.distance_to(target) <= 1e-12


def test_quintic_perturbation_keeps_parabola_conic():
    germ = bl.PlanarGerm([0, 0, 0.5, 0, 0, 1.0])
    conic = bl.osculating_conic(germ)
    target = bl.conic_from_graph_coefficients(0.5, 0.0, 0.0)
    assert conic.distance_to(target) <= 1e-12
    gap = bl.fifth_order_gap(germ, conic)
    assert abs(gap - 1.0) <= 1e-6


def test_circle_is_its_own_osculating_conic_at_every_point(disk):
    # extract the germ at several boundary points; the conic must match
    # the unit circle transported to the local tangent frame, which is
    # always x^2 + y^2 - 2y = 0
    target = bl.ConicQuadric([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 0.0]])
    for theta in (0.0, 0.7, 2.2, 4.0):
        germ = bl.germ_at(disk, theta)
        conic = bl.osculating_conic(germ)
        assert conic.distance_to(target) <= 1e-9


def test_osculating_conic_matches_four_jet_of_ellipse(ellipse):
    # jets of the conic branch agree with the curve jets through order 4
    germ = bl.germ_at(ellipse, 0.8)
    conic = bl.osculating_conic(germ)
    branch = bl.ConicGraphBranch(conic)
    jc = germ.jet(0.0, 4)
    jb = branch.jet(0.0, 4)
    assert np.max(np.abs(jc - jb)) <= 1e-10


def test_conic_branch_closed_form_derivatives_match_taylor_jet(superellipse):
    # slope and curvature by implicit differentiation against the
    # Taylor-Newton jet, on osculating conics of Superellipse(4)
    for theta in (0.3, 0.8, 1.2, 2.5, 4.0):
        conic = bl.osculating_conic(bl.germ_at(superellipse, theta))
        branch = bl.ConicGraphBranch(conic)
        for x in np.linspace(-0.9, 0.9, 13) * min(branch.radius, 1.0):
            jet = branch.jet(x, 2)
            for order in (1, 2):
                assert abs(branch.derivative(x, order) - jet[order]) <= 1e-12


@pytest.mark.parametrize("a, b, c", [
    (0.5, 0.3, 0.4), (0.2, 0.05, 0.1), (2.0, -1.0, 3.0),  # ellipses
    (0.25, 0.4, 0.16), (0.04, -0.2, 0.25),  # parabolas: b^2 = 4 a c
    (1.0, 1.2, 0.2), (0.1, -0.3, 0.05)])  # hyperbolas
def test_conic_branch_domain_ends_at_the_discriminant_root(a, b, c):
    # a x^2 + b xy + c y^2 = y: the discriminant D of the branch's quadratic
    # in y vanishes at radius / 0.9 and is positive inside
    branch = bl.ConicGraphBranch(bl.conic_from_graph_coefficients(a, b, c))

    def D(x):
        p = branch.axy * x + branch.by
        return p * p - branch.ayy * branch.axx * x * x

    r = branch.radius / 0.9
    scale = max(abs(D(0.0)), abs(branch.ayy * branch.axx) * r * r, abs(branch.axy * r) ** 2)
    assert min(abs(D(r)), abs(D(-r))) <= 1e-12 * scale
    inside = np.linspace(-1.0, 1.0, 201)[1:-1] * r
    assert np.all(D(inside) > 0.0)


def test_osculating_conic_affinely_natural():
    # transform the curve by an affine map; the conic transforms along
    germ = bl.PlanarGerm([0, 0, 0.5, 0.1, -0.04, 0.01])
    conic = bl.osculating_conic(germ)
    L = np.array([[1.3, 0.2, 0.0], [-0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
    moved = conic.transform(L)
    back = moved.pullback(L)
    assert conic.distance_to(back) <= 1e-9


def _mp_germ(mp, position, theta, order=5):
    """Graph coefficients k[0..order] of the curve t -> position(t) in its
    frame of unit tangent at theta, in mpmath: each value of the graph
    function comes from a root solve for the curve parameter, and k from
    its numerical Taylor expansion (no series reversion)."""
    theta = mp.mpf(theta)
    base = position(theta)
    vel = [mp.diff(lambda t, i=i: position(t)[i], theta) for i in (0, 1)]
    speed = mp.sqrt(vel[0] ** 2 + vel[1] ** 2)
    tx, ty = vel[0] / speed, vel[1] / speed

    def local(t):
        x, y = position(theta + t)
        return (x - base[0]) * tx + (y - base[1]) * ty, (y - base[1]) * tx - (x - base[0]) * ty

    def graph(x):
        return local(mp.findroot(lambda t: local(t)[0] - x, x / speed))[1]

    k = mp.taylor(graph, 0, order)
    return [-c for c in k] if k[2] < 0 else k


def test_germ_matches_high_precision_germ():
    # germ_at's k[2..5] against the 40-digit graph of the boundary, for the
    # Gauss-angle parametrizations of an ellipse and of Superellipse(3.5);
    # the worst is 122 eps, from the jets of the fractional powers (the
    # reversion alone is within 4 eps of its majorant, see test_jets)
    mp = pytest.importorskip("mpmath")
    A = np.array([[1.7, 0.4], [0.4, 0.6]])
    m = 3.5

    def ellipse(t):
        Ai = mp.inverse(mp.matrix(A.tolist()))
        w = Ai * mp.matrix([mp.cos(t), mp.sin(t)])
        s = mp.sqrt(w[0] * mp.cos(t) + w[1] * mp.sin(t))
        return w[0] / s, w[1] / s

    def superellipse(t):
        w = [mp.sign(u) * abs(u) ** (1 / mp.mpf(m - 1)) for u in (mp.cos(t), mp.sin(t))]
        scale = mp.fsum(abs(wi) ** m for wi in w) ** (-1 / mp.mpf(m))
        return w[0] * scale, w[1] * scale

    with mp.workdps(40):
        for body, position in ((bl.Ellipsoid(A), ellipse), (bl.Superellipse(m), superellipse)):
            for theta in (0.3, 1.1, 2.5, 4.0):
                k = bl.germ_at(body, theta).coeffs
                exact = _mp_germ(mp, position, theta)
                for j in range(2, 6):
                    assert abs(mp.mpf(float(k[j])) - exact[j]) <= (
                        256 * EPS * max(1, abs(exact[j]))), (body, theta, j)


def test_germ_costs_a_fixed_number_of_taylor_operations(taylor_ops):
    # one sin/cos recurrence per argument in the position jet, one series
    # reversion without a Newton loop (nothing composed inside it), and one
    # composition for the graph: at most 80 Taylor1D operations per germ
    bodies = [bl.Ellipsoid(np.array([[1.7, 0.4], [0.4, 0.6]])), bl.Superellipse(3.5),
              bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02])]
    for body in bodies:
        for theta in (0.4, 2.0):
            taylor_ops.clear()
            bl.germ_at(body, theta)
            assert taylor_ops["compose"] == 1
            assert taylor_ops["invert"] == 1
            assert sum(taylor_ops.values()) - taylor_ops["_sin_cos_nilpotent"] <= 80, body


@pytest.mark.parametrize("body, arguments", [
    (bl.Ellipsoid(np.diag([0.25, 1.0])), 1),
    (bl.Superellipse(4.0), 1),
    (bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]), 4),  # t, 2t, 3t, 4t
    (bl.RadialBody2D([1.0]), 1)])
def test_position_jet_runs_one_sin_cos_recurrence_per_argument(body, arguments, taylor_ops):
    body.position_jet(0.7)
    assert taylor_ops["_sin_cos_nilpotent"] == arguments


def test_zero_curvature_is_degenerate():
    from billiardlab.errors import DegenerateDataError
    with pytest.raises(DegenerateDataError):
        bl.osculating_conic(bl.PlanarGerm([0, 0, 1e-16]))


# ---------------------------------------------------------------------------
# fifth-order gap
# ---------------------------------------------------------------------------

def test_gap_zero_on_conic():
    conic = bl.conic_from_graph_coefficients(0.5, 0.3, -0.2)
    branch = bl.ConicGraphBranch(conic)
    fitted = bl.osculating_conic(branch, at_x=0.0)
    assert fitted.distance_to(conic) <= 1e-10
    assert bl.fifth_order_gap(branch, conic) == 0.0


@pytest.mark.parametrize("c0", [1e-2, -1e-2, 1e-3, -1e-3])
def test_gap_reads_quintic_coefficient(c0):
    germ = bl.PlanarGerm([0, 0, 0.5, 0, 0, c0])
    conic = bl.osculating_conic(germ)
    gap = bl.fifth_order_gap(germ, conic)
    assert abs(gap - c0) <= 1e-6 * abs(c0) + 1e-14


def test_gap_scaling_law_is_cubic_in_zoom():
    # chart zoom h(x) -> h(lambda x) / lambda^2 multiplies the gap by lambda^3
    c0 = 1e-2
    germ = bl.PlanarGerm([0, 0, 0.5, 0, 0, c0])
    for lam in (2.0, 0.5):
        zoomed = germ.rescaled(lam)
        gap = bl.fifth_order_gap(zoomed, bl.osculating_conic(zoomed))
        assert abs(gap - lam ** 3 * c0) <= 1e-6 * abs(lam ** 3 * c0)


def test_gap_requires_matching_four_jet():
    germ = bl.PlanarGerm([0, 0, 0.5, 0.2])
    wrong = bl.conic_from_graph_coefficients(0.5, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        bl.fifth_order_gap(germ, wrong)


# ---------------------------------------------------------------------------
# affine curvature and sextactic points
# ---------------------------------------------------------------------------

def test_affine_curvature_derivative_vanishes_on_conics(ellipse, disk):
    # ellipse, circle, parabola germ, hyperbola branch
    curves = []
    for theta in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
        curves.append(bl.germ_at(ellipse, theta))
        curves.append(bl.germ_at(disk, theta))
    hyperbola = bl.ConicGraphBranch(bl.ConicQuadric(np.array([
        [1.0, 0.1, 0.0], [0.1, -0.3, -0.5], [0.0, -0.5, 0.0]])))
    for x in (-0.1, 0.0, 0.15):
        k, dk = bl.affine_curvature(hyperbola, x)
        assert abs(dk) <= 1e-8
    parabola = bl.PlanarGerm([0, 0, 0.5])
    for x in (-0.2, 0.0, 0.3):
        k, dk = bl.affine_curvature(parabola, x)
        assert abs(dk) <= 1e-12
    worst = max(abs(bl.affine_curvature(c, 0.0)[1]) for c in curves)
    assert worst <= 1e-8


def test_affine_curvature_constant_on_circle(disk):
    values = [bl.affine_curvature(bl.germ_at(disk, t), 0.0)[0]
              for t in np.linspace(0, 2 * math.pi, 9)]
    assert max(values) - min(values) <= 1e-8


def test_affine_curvature_derivative_scales_with_quintic():
    # oracle: finite differences of the affine curvature along the germ,
    # against the closed-form derivative at the origin
    c0 = 1e-2
    germ = bl.PlanarGerm([0, 0, 0.5, 0, 0, c0])
    k0, dk0 = bl.affine_curvature(germ, 0.0)
    h = 1e-3
    k_plus, _ = bl.affine_curvature(germ, h)
    k_minus, _ = bl.affine_curvature(germ, -h)
    # affine arclength element: ds = (h'')^(1/3) dx = 1 + O(h)
    fd = (k_plus - k_minus) / (2 * h)
    assert abs(fd - dk0) <= 1e-4 * max(1.0, abs(dk0))
    assert abs(dk0 - 40.0 * c0) <= 1e-10
    assert abs(dk0) > 0.01


def test_sextactic_iff_affine_curvature_critical():
    # the detectors are tied exactly: dk/ds = 40 kappa^2 gap, with kappa
    # the Euclidean curvature at the point and the gap in the normalized
    # chart (dk/ds has homothety weight -2, the gap is chart-invariant)
    samples = [
        bl.PlanarGerm([0, 0, 0.5]),
        bl.PlanarGerm([0, 0, 0.5, 0.1, -0.02, 0.0]),
        bl.PlanarGerm([0, 0, 0.5, 0, 0, 1e-2]),
        bl.PlanarGerm([0, 0, 0.7, 0.05, 0.01, 5e-3]),
    ]
    for germ in samples:
        flag_gap, gap = bl.is_sextactic(germ, tol=1e-9)
        _, dk = bl.affine_curvature(germ, 0.0)
        kappa = 2.0 * germ.coeffs[2]
        flag_dk = abs(dk) <= 40.0 * kappa ** 2 * 1e-9
        assert flag_gap == flag_dk
        assert abs(dk - 40.0 * kappa ** 2 * gap) <= 1e-8 * max(1.0, abs(dk))


def test_ellipse_points_all_sextactic(ellipse):
    for theta in np.linspace(0.0, 2 * math.pi, 8):
        flag, gap = bl.is_sextactic(bl.germ_at(ellipse, theta), tol=1e-9)
        assert flag, f"theta={theta}, gap={gap}"


def test_perturbed_ellipse_has_finitely_many_sextactic_points():
    # quintic angular bump on a circle; sextactic points are the zeros of
    # the affine-curvature derivative, located by sign changes
    eps = 2e-3
    # sin^5 expands to odd harmonics 1, 3, 5
    body = bl.RadialBody2D(
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, eps * 10 / 16, 0.0, -eps * 5 / 16, 0.0, eps / 16])
    thetas = np.linspace(0.0, 2 * math.pi, 144, endpoint=False)
    dks, flags = bl.sextactic_scan(body, thetas, tol=1e-9)
    signs = np.sign(dks)
    changes = int(np.sum(signs != np.roll(signs, 1)))
    assert 2 <= changes <= 24
    assert not flags.all()


# ---------------------------------------------------------------------------
# partner-point solvers (shared with projectivity)
# ---------------------------------------------------------------------------

def test_partner_solvers_satisfy_definitions():
    alpha = bl.PlanarGerm([0, 0, 0.5, 0, 0, 1e-2])
    gamma = bl.PlanarGerm([0, 0, 0.5])
    for x in (0.02, 0.1, -0.15, 0.3):
        zeta = bl.height_match(alpha, gamma, x)
        assert abs(alpha.h(zeta) - gamma.h(x)) <= 1e-12
        xhat = bl.height_partner(gamma, x)
        assert abs(gamma.h(xhat) - gamma.h(x)) <= 1e-12
        assert xhat * x < 0
        zeta_t = bl.height_partner(alpha, zeta)
        assert abs(alpha.h(zeta_t) - alpha.h(zeta)) <= 1e-12


def test_mirrored_partner_asymptotics():
    # the mirrored halves of the expansion: the partner of the matched
    # point lags the conic partner by the same quartic, and the slope gap
    # at the mirrored pair carries the same 4c coefficient
    from billiardlab.jets import fit_power_law
    c = 1e-2
    alpha = bl.PlanarGerm([0, 0, 0.5, 0, 0, c])
    gamma = bl.PlanarGerm([0, 0, 0.5])
    grid = dyadic_grid(4, 12)
    zetas = np.array([bl.height_match(alpha, gamma, x) for x in grid])
    xhats = np.array([bl.height_partner(gamma, x) for x in grid])
    ztildes = np.array([bl.height_partner(alpha, z) for z in zetas])
    k1, c1 = fit_power_law(grid, ztildes - xhats)
    assert abs(k1 - 4.0) <= 0.2
    assert abs(c1 - (-c)) <= 0.1 * c
    gap = np.array([alpha.derivative(zt, 1) - gamma.derivative(xh, 1)
                    for zt, xh in zip(ztildes, xhats)])
    k2, c2 = fit_power_law(grid, gap)
    assert abs(k2 - 4.0) <= 0.2
    assert abs(c2 - 4.0 * c) <= 0.1 * (4 * c)


def test_slope_point_inverts_derivative():
    germ = bl.PlanarGerm([0, 0, 0.5, 0.05, 0.01])
    for t in (-0.2, 0.01, 0.3):
        x = bl.slope_point(germ, t)
        assert abs(germ.derivative(x, 1) - t) <= 1e-12


# ---------------------------------------------------------------------------
# osculating quadric along a planar section
# ---------------------------------------------------------------------------

def test_quadric_coefficients_read_from_germ():
    germ = bl.GraphGerm(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (2, 1): 0.3})
    Q = bl.osculating_quadric_along_curve(germ)
    M = Q.matrix / (-2.0 * Q.matrix[2, 3])  # normalize the -x_n coefficient
    assert abs(M[0, 0] - 1.0) <= 1e-12          # x_1^2
    assert abs(2 * M[0, 1] - 1.0) <= 1e-12      # c_2 = 1
    assert abs(M[1, 1] - 1.0) <= 1e-12          # A = (1)
    assert abs(-2 * M[1, 2] - (-0.3)) <= 1e-12  # d_2 = -s_2 = -0.3


def test_quadric_with_no_mixed_cubic_terms_has_zero_denominator():
    germ = bl.GraphGerm(2, {(2, 0): 1.0, (0, 2): 0.5})
    Q = bl.osculating_quadric_along_curve(germ)
    M = Q.matrix / (-2.0 * Q.matrix[2, 3])
    assert abs(M[1, 2]) <= 1e-14  # d_2 = 0


def test_quadric_restriction_to_section_plane_is_parabola():
    germ = bl.GraphGerm(2, QUADRIC_GERM_TERMS)
    Q = bl.osculating_quadric_along_curve(germ)
    section = Q.restrict_to_plane([0, 2])  # (x_1, x_n) coordinates
    parabola = bl.ConicQuadric(np.array([
        [1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]]))
    assert section.distance_to(parabola) <= 1e-9


def test_quadric_rejects_unnormalized_germs():
    with pytest.raises(FrameNormalizationError):
        bl.osculating_quadric_along_curve(
            bl.GraphGerm(2, {(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.2}))
    with pytest.raises(FrameNormalizationError):
        bl.osculating_quadric_along_curve(
            bl.GraphGerm(2, {(2, 0): 2.0, (0, 2): 1.0}))


def test_quadric_rejects_degenerate_transverse_form():
    from billiardlab.errors import ConvexityViolationError
    flat = bl.GraphGerm(2, {(2, 0): 1.0}, require_convex=False)
    with pytest.raises(ConvexityViolationError):
        bl.osculating_quadric_along_curve(flat)


def test_quadric_self_consistency_round_trip():
    # a quadric is its own osculating quadric along its section
    germ = bl.GraphGerm(2, QUADRIC_GERM_TERMS)
    Q = bl.osculating_quadric_along_curve(germ)
    germ2 = bl.quadric_graph_germ(Q, order=5)
    Q2 = bl.osculating_quadric_along_curve(germ2)
    assert Q.distance_to(Q2) <= 1e-12


def test_sphere_image_quadric_round_trip():
    # projectively normalized image of the unit sphere: a quadric whose
    # section is the parabola; the constructor must return it unchanged
    M = np.zeros((4, 4))
    M[0, 0] = 1.0
    M[1, 1] = 1.0
    M[2, 3] = M[3, 2] = -0.5
    M[1, 2] = M[2, 1] = -0.15  # a generic admissible denominator tilt
    Q = bl.ConicQuadric(M)
    germ = bl.quadric_graph_germ(Q, order=5)
    Q2 = bl.osculating_quadric_along_curve(germ)
    assert Q.distance_to(Q2) <= 1e-12


def test_normal_field_gap_exponents():
    germ = bl.GraphGerm(2, QUADRIC_GERM_TERMS)
    Q = bl.osculating_quadric_along_curve(germ)
    fit = bl.normal_field_gap(germ, Q, dyadic_grid(4, 12))
    assert fit.exponent >= 2.8
    assert fit.exponent <= 3.5
    # angle gap carries the quintic coefficient: 4c within 10 percent
    c = QUADRIC_GERM_TERMS[(5, 0)]
    assert 3.8 <= fit.angle_exponent <= 4.2
    assert abs(fit.angle_coefficient - 4.0 * c) <= 0.1 * abs(4.0 * c)


@pytest.mark.parametrize("delta,grid", [(1e-2, (4, 12)), (1e-3, (6, 14))])
def test_normal_field_gap_detects_wrong_denominator(delta, grid):
    # moving d_j off -s_j leaks a quadratic term into the normal gap;
    # the grid has to reach below the crossover scale delta / t where the
    # germ's genuine cubic term (coefficient t) stops dominating
    germ = bl.GraphGerm(2, QUADRIC_GERM_TERMS)
    Q = bl.osculating_quadric_along_curve(germ)
    M = Q.matrix / (-2.0 * Q.matrix[2, 3])
    M[1, 2] -= delta / 2.0
    M[2, 1] -= delta / 2.0
    fit = bl.normal_field_gap(germ, bl.ConicQuadric(M), dyadic_grid(*grid))
    assert abs(fit.exponent - 2.0) <= 0.2


def test_normal_field_gap_on_exact_quadric_is_indistinguishable():
    germ = bl.GraphGerm(2, {(2, 0): 1.0, (1, 1): 0.4, (0, 2): 0.7, (2, 1): 0.3})
    Q = bl.osculating_quadric_along_curve(germ)
    germ_exact = bl.quadric_graph_germ(Q, order=5)
    with pytest.raises(IndistinguishableError):
        bl.normal_field_gap(germ_exact, Q, dyadic_grid(6, 12))


# ---------------------------------------------------------------------------
# planar sections
# ---------------------------------------------------------------------------

def _random_frame(rng):
    fr = bl.bodies.tangent_frame(unit(rng.normal(size=3)))
    return bl.PlanarSectionFrame(np.zeros(3), fr[0], fr[1])


def test_ellipsoid_sections_are_conics(ellipsoid3):
    rng = np.random.default_rng(40)
    for _ in range(20):
        res = bl.planar_section_conic_residual(ellipsoid3, _random_frame(rng), 48)
        assert res <= 1e-9


def test_sphere_sections_are_circles(ball3):
    rng = np.random.default_rng(41)
    res = bl.planar_section_conic_residual(ball3, _random_frame(rng), 48)
    assert res <= 1e-12


def test_superellipsoid_sections_are_not_conics(superellipsoid3):
    rng = np.random.default_rng(42)
    res = bl.planar_section_conic_residual(superellipsoid3, _random_frame(rng), 64)
    assert res > 1e-4


def test_section_needs_enough_points(ellipsoid3):
    rng = np.random.default_rng(43)
    with pytest.raises(SamplePlanError):
        bl.planar_section_conic_residual(ellipsoid3, _random_frame(rng), 5)


@pytest.mark.parametrize("origin", [[2.4, 0.0, 0.3], [3.0, 0.0, 0.3]])
def test_section_from_an_origin_outside_the_body(origin):
    # the plane z = 0.3 cuts the body, though its frame origin lies outside
    body = bl.Ellipsoid(np.diag([1.0, 2.0, 0.5]))
    frame = bl.PlanarSectionFrame(np.array(origin), np.eye(3)[0], np.eye(3)[1])
    P = section_points(body, frame, 32)
    X = frame.origin + P[:, :1] * frame.e1 + P[:, 1:] * frame.e2
    assert np.abs(body.implicit(X)).max() <= 1e-12


def test_section_by_a_plane_that_misses_the_body_raises():
    body = bl.Ellipsoid(np.diag([1.0, 2.0, 0.5]))  # |z| <= sqrt(2) on it
    frame = bl.PlanarSectionFrame(np.array([0.0, 0.0, 1.5]), np.eye(3)[0], np.eye(3)[1])
    with pytest.raises(DomainError, match="does not meet"):
        section_points(body, frame, 32)


def test_conic_quintic_helper_consistent_with_branch():
    a, b, c = 0.5, 0.3, -0.2
    conic = bl.conic_from_graph_coefficients(a, b, c)
    branch = bl.ConicGraphBranch(conic)
    jet = branch.jet(0.0, 5)
    assert abs(jet[5] / math.factorial(5) - conic_quintic_coefficient(a, b, c)) <= 1e-12
