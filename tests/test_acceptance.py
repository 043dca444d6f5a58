"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Each criterion prints a PASS/FAIL line (run pytest with -s to see them
in order); tolerances are the contract values, not calibration knobs.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import billiardlab as bl
from billiardlab.errors import IndistinguishableError
from billiardlab.jets import dyadic_grid

from conftest import random_line


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def _test_bodies_2d():
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    return [
        bl.Ball(1.0),
        bl.Ellipsoid(np.diag([0.25, 1.0])),
        bl.Ellipsoid(R @ np.diag([1.0, 0.1]) @ R.T),
        bl.Superellipse(4.0),
        bl.RadialBody2D([1.0, 0.0, 0.08, 0.02], [0.0, 0.0, 0.0, 0.02]),
    ]


def test_criterion_1_ball_reduction():
    """T = unit ball reduces to the Euclidean billiard on five bodies."""
    with criterion(1, "ball reduction to Euclidean reflection"):
        start = time.perf_counter()
        ball = bl.Ball(1.0)
        rng = np.random.default_rng(101)
        worst = 0.0
        for K in _test_bodies_2d():
            for _ in range(1000):
                line = random_line(rng)
                out = bl.t_billiard_reflect(K, ball, line)
                n = K.exterior_normal(out.point)
                expect = bl.euclidean_reflect(n, line.direction)
                worst = max(worst, float(np.linalg.norm(out.direction - expect)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"max direction error {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_2_ellipse_projectivity():
    """Quadrics pass the projectivity test; the superellipse fails it."""
    with criterion(2, "projectivity residuals: quadrics vs superellipse"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        c, s = math.cos(0.4), math.sin(0.4)
        R2 = np.array([[c, -s], [s, c]])
        quadrics = [
            bl.Ellipsoid(np.diag([0.25, 1.0])),            # cond 4
            bl.Ellipsoid(R2 @ np.diag([1.0, 0.1]) @ R2.T),  # cond 10
            bl.Ellipsoid(np.diag([1.0, 0.5, 0.2])),         # cond 5, 3D
            bl.Ellipsoid(np.diag([1.0, 0.4, 0.1])),         # cond 10, 3D
        ]
        plan = bl.SamplePlan(patch_scale=0.3, n_quadruples=30, n_points=40,
                             seed=103)
        count = 0
        for body in quadrics:
            for _ in range(5):
                d = unit(rng.normal(size=body.dim))
                f = bl.SphereInvolutionSampler.from_parallel_chord(body, d)
                res = bl.projectivity_residual(f, plan)
                assert res <= 1e-7, f"{type(body).__name__} residual {res:.2e}"
                count += 1
        assert count == 20
        superellipse = bl.Superellipse(4.0)
        for ang in (0.5, 1.1):  # generic classes; axis classes are symmetric
            d = np.array([math.cos(ang), math.sin(ang)])
            f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, d)
            res = bl.projectivity_residual(
                f, bl.SamplePlan(patch_scale=0.3, n_quadruples=40, seed=7))
            assert res >= 1e-3, f"superellipse residual {res:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_3_rescaling_conjugation():
    """T-billiard for an ellipse T is the conjugated Euclidean billiard."""
    with criterion(3, "diagonal rescaling conjugates ellipse billiards"):
        rng = np.random.default_rng(104)
        b = np.array([1.6, 0.7])
        T = bl.Ellipsoid(np.diag(1.0 / b ** 2))
        K = bl.Ellipsoid(np.array([[0.3, 0.05], [0.05, 1.1]]))
        K_res = bl.LinearImageBody(K, np.diag(b))
        worst = 0.0
        for _ in range(100):
            line = random_line(rng)
            out = bl.rescale_conjugate(b, bl.t_billiard_reflect(K, T, line))
            line_res = bl.rescale_conjugate(b, line)
            q = K_res.last_intersection(line_res)
            expect = bl.euclidean_reflect(K_res.exterior_normal(q),
                                          line_res.direction)
            worst = max(worst, float(np.linalg.norm(out.direction - expect)),
                        float(np.linalg.norm(out.point - q)))
        assert worst <= 1e-8, f"max conjugation error {worst:.3e}"


def test_criterion_4_asymptotic_chain():
    """Quintic perturbation: height, slope and involution gaps at order 4."""
    with criterion(4, "asymptotic chain -c, 4c, 8c at exponent 4"):
        start = time.perf_counter()
        grid = dyadic_grid(4, 12)
        from billiardlab.jets import fit_power_law
        for c in (1e-2, -1e-2, 1e-3, -1e-3):
            alpha = bl.PlanarGerm([0, 0, 0.5, 0, 0, c])
            gamma = bl.PlanarGerm([0, 0, 0.5])
            zetas = np.array([bl.height_match(alpha, gamma, x) for x in grid])
            k1, c1 = fit_power_law(grid, zetas - grid)
            assert abs(k1 - 4.0) <= 0.2, f"zeta exponent {k1:.3f}"
            assert abs(c1 - (-c)) <= 0.1 * abs(c), f"zeta coeff {c1:.3e}"
            slope_gap = np.array([alpha.derivative(z, 1) - gamma.derivative(x, 1)
                                  for z, x in zip(zetas, grid)])
            k2, c2 = fit_power_law(grid, slope_gap)
            assert abs(k2 - 4.0) <= 0.2, f"slope exponent {k2:.3f}"
            assert abs(c2 - 4.0 * c) <= 0.1 * abs(4 * c), f"slope coeff {c2:.3e}"
            f = bl.SphereInvolutionSampler.from_planar_curve(alpha)
            g = bl.SphereInvolutionSampler.from_planar_curve(gamma)
            k3, c3 = bl.deviation_exponent(f, g, grid)
            assert abs(k3 - 4.0) <= 0.2, f"involution exponent {k3:.3f}"
            assert abs(c3 - 8.0 * c) <= 0.1 * abs(8 * c), f"involution coeff {c3:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_5_two_jet_dichotomy():
    """Distinct projective involutions deviate quadratically; equal ones
    are indistinguishable."""
    with criterion(5, "two-jet dichotomy of projective involutions"):
        c = 0.37
        k, _ = bl.deviation_exponent(lambda t: -t, lambda t: -t / (1.0 + c * t),
                                     dyadic_grid(4, 12))
        assert abs(k - 2.0) <= 0.1, f"exponent {k:.3f}"
        ellipse = bl.Ellipsoid(np.diag([0.25, 1.0]))
        f = bl.SphereInvolutionSampler.from_parallel_chord(ellipse, [0.0, 1.0])
        g = bl.SphereInvolutionSampler.from_parallel_chord(ellipse, [0.0, 1.0])
        with pytest.raises(IndistinguishableError):
            bl.deviation_exponent(f, g, dyadic_grid(4, 12))


def test_criterion_6_osculating_quadric():
    """Quadric along a section: cubic normal gap, quartic angle gap, and
    the denominator perturbation drops the exponent to two."""
    with criterion(6, "osculating quadric contact asymptotics"):
        c = 1e-2
        germ = bl.GraphGerm(2, {(2, 0): 1.0, (1, 1): 0.4, (0, 2): 0.7,
                                (2, 1): 0.3, (3, 1): 0.05, (5, 0): c})
        Q = bl.osculating_quadric_along_curve(germ)
        fit = bl.normal_field_gap(germ, Q, dyadic_grid(4, 12))
        assert fit.exponent >= 2.8, f"normal gap exponent {fit.exponent:.3f}"
        assert abs(fit.angle_coefficient - 4.0 * c) <= 0.1 * abs(4 * c), (
            f"angle coefficient {fit.angle_coefficient:.3e}")
        M = Q.matrix / (-2.0 * Q.matrix[2, 3])
        M[1, 2] -= 0.5e-2
        M[2, 1] -= 0.5e-2
        fit2 = bl.normal_field_gap(germ, bl.ConicQuadric(M), dyadic_grid(4, 12))
        assert abs(fit2.exponent - 2.0) <= 0.2, f"perturbed exponent {fit2.exponent:.3f}"


def test_criterion_7_sextactic_consistency():
    """Affine-curvature derivative vanishes on conics and detects the
    quintic perturbation."""
    with criterion(7, "sextactic and affine-curvature consistency"):
        ellipse = bl.Ellipsoid(np.diag([0.25, 1.0]))
        disk = bl.Ball(1.0)
        worst = 0.0
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            for body in (ellipse, disk):
                _, dk = bl.affine_curvature(bl.germ_at(body, theta), 0.0)
                worst = max(worst, abs(dk))
        hyperbola = bl.ConicGraphBranch(bl.ConicQuadric(np.array([
            [1.0, 0.1, 0.0], [0.1, -0.3, -0.5], [0.0, -0.5, 0.0]])))
        for x in (-0.1, 0.0, 0.2):
            _, dk = bl.affine_curvature(hyperbola, x)
            worst = max(worst, abs(dk))
        assert worst <= 1e-8, f"max |dk/ds| on conics {worst:.2e}"
        c = 1e-2
        _, dk0 = bl.affine_curvature(bl.PlanarGerm([0, 0, 0.5, 0, 0, c]), 0.0)
        assert abs(dk0) >= 0.1, f"quintic germ derivative {dk0:.3e}"


def test_criterion_8_duality():
    """Legendre images of an ellipsoid trace the dual ellipsoid; polar
    duality is involutive."""
    with criterion(8, "Legendre duality and polar involutivity"):
        rng = np.random.default_rng(108)
        for A in (np.diag([0.25, 1.0]),
                  np.array([[0.5, 0.1], [0.1, 1.2]]),
                  np.diag([1.0, 0.5, 0.2])):
            body = bl.Ellipsoid(A)
            A_inv = np.linalg.inv(A)
            for _ in range(50):
                v = body.gauss_inverse(unit(rng.normal(size=A.shape[0])))
                y = bl.legendre_point(body, v)
                assert abs(y @ A_inv @ y - 1.0) <= 1e-9
            dd = bl.polar_dual(bl.polar_dual(body))
            assert np.max(np.abs(dd.A - A)) <= 1e-9
        # involutivity through the dual body on a generic symmetric body
        blob = bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02])
        dual = bl.polar_dual(blob)
        for _ in range(25):
            v = blob.gauss_inverse(unit(rng.normal(size=2)))
            w = bl.legendre_point(blob, v)
            back = bl.legendre_point(dual, w)
            assert np.linalg.norm(back - v) <= 1e-9


def test_criterion_9_capacity_and_mahler():
    """Capacity of the disk pair, Mahler products, homogeneity."""
    with criterion(9, "capacity and volume products"):
        disk = bl.Ball(1.0)
        report = bl.capacity_estimate(disk, disk, 5, multistarts=8)
        assert abs(report.value - 4.0) <= 1e-4, f"capacity {report.value:.6f}"
        square = bl.Polygon2D([[1, 1], [-1, 1], [-1, -1], [1, -1]])
        assert abs(bl.mahler_product(square) - 8.0) <= 1e-6
        assert abs(bl.mahler_product(disk) - math.pi ** 2) <= 1e-3
        base = bl.capacity_estimate(disk, disk, 2, multistarts=6).value
        for lam in (0.5, 2.0):
            val = bl.capacity_estimate(bl.Ball(lam), disk, 2, multistarts=6).value
            assert abs(val - lam * base) <= 1e-6, f"homogeneity at {lam}"


def test_criterion_10_structure_checks():
    """Every involution squares to the identity; the two Finsler laws
    agree; the lifted orbit projects onto the billiard polygon."""
    with criterion(10, "involution structure and lift consistency"):
        rng = np.random.default_rng(110)
        ellipse = bl.Ellipsoid(np.array([[0.3, 0.05], [0.05, 1.1]]))
        superellipse = bl.Superellipse(4.0)
        # parallel-chord involutions
        for body in (ellipse, superellipse):
            d = unit(rng.normal(size=2))
            cls = bl.ParallelClass(d)
            for _ in range(40):
                u = unit(rng.normal(size=2))
                if abs(np.dot(u, d)) < 1e-2:
                    continue
                out = bl.parallel_chord_involution(body, cls, u)
                back = bl.parallel_chord_involution(body, cls, out)
                assert np.linalg.norm(back - u) <= 1e-8
        # projective reflection involution
        q = np.zeros(2)
        m = np.array([0.0, 1.0])
        for _ in range(25):
            nu = unit([rng.uniform(-0.6, 0.6), 1.0])
            v = unit(rng.normal(size=2))
            if abs(v[1]) < 1e-2:
                continue
            first = bl.projective_billiard_reflect(q, m, nu, bl.OrientedLine(q, v))
            second = bl.projective_billiard_reflect(q, m, nu, first)
            assert np.linalg.norm(second.direction - v) <= 1e-8
        # Finsler laws: involutions and mutual agreement
        I = bl.Ellipsoid(np.array([[0.8, 0.1], [0.1, 1.4]]))
        for _ in range(25):
            mm = unit(rng.normal(size=2))
            u = I._boundary_in_direction(unit(rng.normal(size=2)))
            if abs(np.dot(mm, unit(u))) < 5e-2:
                continue
            v1 = bl.finsler_reflect_legendre(I, mm, u)
            v2 = bl.finsler_reflect_concurrency(I, mm, u)
            assert np.linalg.norm(v1 - v2) <= 1e-8
            assert np.linalg.norm(
                bl.finsler_reflect_legendre(I, mm, v1) - u) <= 1e-8
        # lifted orbit projection
        T = bl.Ellipsoid(np.diag([1.0, 2.0]))
        worst = 0.0
        for _ in range(40):
            line = random_line(rng, spread=0.2)
            orbit = bl.iterate_t_billiard(ellipse, T, line, 5)
            lift = bl.lift_kt_orbit(ellipse, T, line, 5)
            if orbit.status != "ok" or lift.status != "ok":
                continue
            worst = max(worst, float(np.max(np.abs(
                orbit.points - lift.q_polygon()))))
        assert worst <= 1e-9, f"lift projection gap {worst:.2e}"
