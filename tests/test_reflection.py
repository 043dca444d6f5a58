"""Reflection laws: chord involution, T-billiard, projective, Finsler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import billiardlab as bl
from billiardlab import bodies
from billiardlab.errors import DegenerateChordError, DomainError, GrazingError

from conftest import random_line


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(rng, n, dim):
    U = rng.normal(size=(n, dim))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# euclidean_reflect
# ---------------------------------------------------------------------------

def test_euclidean_reflect_basic():
    n = np.array([0.0, 1.0])
    assert np.allclose(bl.euclidean_reflect(n, [math.sqrt(3) / 2, 0.5]),
                       [math.sqrt(3) / 2, -0.5])
    assert np.allclose(bl.euclidean_reflect(n, [0.0, 1.0]), [0.0, -1.0])
    assert np.allclose(bl.euclidean_reflect(n, [1.0, 0.0]), [1.0, 0.0])


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_euclidean_reflect_is_involution(seed):
    rng = np.random.default_rng(seed)
    n = unit(rng.normal(size=3))
    v = unit(rng.normal(size=3))
    w = bl.euclidean_reflect(n, bl.euclidean_reflect(n, v))
    assert np.allclose(w, v, atol=1e-14)


# ---------------------------------------------------------------------------
# parallel_chord_involution
# ---------------------------------------------------------------------------

def test_chord_involution_circle_mirror(disk):
    cls = bl.ParallelClass([0.0, 1.0])
    for theta in (0.3, 1.0, 2.5):
        u = np.array([math.cos(theta), math.sin(theta)])
        out = bl.parallel_chord_involution(disk, cls, u)
        assert np.allclose(out, [math.cos(theta), -math.sin(theta)], atol=1e-12)


def test_chord_involution_ellipse_is_projectively_linear(ellipse):
    # for vertical chords of x^2/a^2 + y^2 = 1 the normal-slope map is s -> -s
    cls = bl.ParallelClass([0.0, 1.0])
    for theta in (0.2, 0.9, 2.0):
        u = unit([math.cos(theta), math.sin(theta)])
        out = bl.parallel_chord_involution(ellipse, cls, u)
        s_in = u[1] / u[0]
        s_out = out[1] / out[0]
        assert abs(s_out + s_in) < 1e-10


def test_chord_involution_homology_formula(ellipse_rot):
    # derived closed form: u -> u - 2 <u, d> A d / <A d, d> projectively
    rng = np.random.default_rng(11)
    d = unit(rng.normal(size=2))
    cls = bl.ParallelClass(d)
    A = ellipse_rot.A
    M = np.eye(2) - 2.0 * np.outer(A @ d, d) / float(d @ A @ d)
    for _ in range(20):
        u = unit(rng.normal(size=2))
        out = bl.parallel_chord_involution(ellipse_rot, cls, u)
        expect = unit(M @ u)
        assert min(np.linalg.norm(out - expect), np.linalg.norm(out + expect)) < 1e-11


def test_chord_involution_fixes_orthogonal_directions(superellipse):
    d = unit([0.3, 1.0])
    cls = bl.ParallelClass(d)
    u = np.array([-d[1], d[0]])
    assert np.allclose(bl.parallel_chord_involution(superellipse, cls, u), u)


def test_chord_involution_fixed_points_only_on_equator(ellipse):
    d = np.array([0.0, 1.0])
    cls = bl.ParallelClass(d)
    for theta in np.linspace(0.15, math.pi - 0.15, 25):
        u = np.array([math.cos(theta), math.sin(theta)])
        if abs(np.dot(u, d)) < 0.1:
            continue
        out = bl.parallel_chord_involution(ellipse, cls, u)
        assert np.linalg.norm(out - u) > 0.05


def test_chord_involution_is_involution(ellipse_rot, superellipse, radial_blob):
    rng = np.random.default_rng(12)
    for body in (ellipse_rot, superellipse, radial_blob):
        d = unit(rng.normal(size=2))
        cls = bl.ParallelClass(d)
        worst = 0.0
        for _ in range(50):
            u = unit(rng.normal(size=2))
            if abs(np.dot(u, d)) < 1e-3:
                continue
            try:
                out = bl.parallel_chord_involution(body, cls, u)
                back = bl.parallel_chord_involution(body, cls, out)
            except DegenerateChordError:
                continue
            worst = max(worst, np.linalg.norm(back - u))
        assert worst <= 1e-9, type(body).__name__


def random_ellipsoid(rng, dim, semiaxes):
    """(the Ellipsoid {<Ax, x> <= 1}, B) with B the unit ball's map onto it:
    semiaxes in a random orthonormal frame Q, B = Q diag(semiaxes)."""
    Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    B = Q * semiaxes
    return bl.Ellipsoid(Q @ np.diag(1.0 / semiaxes ** 2) @ Q.T), B


def test_ellipsoid_chord_involution_matches_the_generic_chain():
    # the same ellipsoid as a linear image of the ball takes the generic
    # gauss_inverse -> chord -> exterior_normal chain
    rng = np.random.default_rng(31)
    worst, chords = 0.0, 0
    for dim in (2, 3):
        for aspect in (1.5, 4.0, 16.0):
            for _ in range(8):
                semiaxes = np.exp(rng.uniform(0.0, math.log(aspect), size=dim))
                semiaxes[:2] = 1.0, aspect
                E, B = random_ellipsoid(rng, dim, semiaxes)
                L = bl.LinearImageBody(bl.Ball(dim=dim), B)
                cls = bl.ParallelClass(rng.normal(size=dim))
                U = unit_rows(rng, 100, dim)
                U = U[abs(U @ cls.direction) > 1e-3]
                V = bl.parallel_chord_involution(E, cls, U)
                for u, v in zip(U, V):
                    try:
                        w = bl.parallel_chord_involution(L, cls, u)
                    except DegenerateChordError:
                        continue
                    worst = max(worst, float(np.max(np.abs(v - w))))
                    chords += 1
    assert chords > 4000
    assert worst <= 1e-12


def test_ellipsoid_chord_involution_matches_mpmath():
    # the closed form against u - 2 <u, d> / <d, A d> A d in 50 digits, for
    # the same float A, u and d.  Semiaxes within a factor 4: the relative
    # error of A d grows with the squared aspect ratio, and at 16:1 one ulp
    # of d moves the exact image by up to 3e-14
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(32)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(20):
            E, _ = random_ellipsoid(rng, dim, rng.uniform(0.5, 2.0, size=dim))
            A = mp.matrix(E.A.tolist())
            cls = bl.ParallelClass(rng.normal(size=dim))
            d = mp.matrix(cls.direction.tolist())
            for u in unit_rows(rng, 15, dim):
                v = bl.parallel_chord_involution(E, cls, u)
                um = mp.matrix(u.tolist())
                w = um - 2 * (um.T * d)[0] / (d.T * A * d)[0] * (A * d)
                w /= mp.sqrt((w.T * w)[0])
                worst = max(worst, max(abs(float(v[i] - w[i])) for i in range(dim)))
    assert worst <= 2e-15


def test_ellipsoid_chord_involution_rows_keep_their_bits(ellipse_rot, ellipsoid3):
    rng = np.random.default_rng(33)
    for E in (ellipse_rot, ellipsoid3):
        cls = bl.ParallelClass(rng.normal(size=E.dim))
        U = unit_rows(rng, 200, E.dim)
        V = bl.parallel_chord_involution(E, cls, U)
        singles = []
        for u in U:
            try:
                singles.append(bl.parallel_chord_involution(E, cls, u))
            except DegenerateChordError:
                singles.append(u)
        assert np.array_equal(V, singles)
        # the class direction's sign does not matter
        assert np.array_equal(V, bl.reflection._chord_involution(E, -cls.direction,
                                                                 bodies._unit(U)))
        # directions orthogonal to the class are fixed
        for w in bodies._unit(bodies.tangent_frame(cls.direction)):
            assert np.array_equal(bl.parallel_chord_involution(E, cls, w), w)
            assert np.array_equal(bl.parallel_chord_involution(E, cls, w[None])[0], w)


@pytest.mark.parametrize("fraction", [1e-8, 1e-4])
def test_ellipsoid_tangential_chords_are_the_ones_the_chord_flags(fraction, ellipse_rot,
                                                                   ellipsoid3):
    # chords of length fraction * diameter from a boundary point a to a
    # nearby boundary point b: the threshold is TANGENCY_FRACTION = 1e-6
    rng = np.random.default_rng(34)
    for E in (ellipse_rot, ellipsoid3):
        for _ in range(20):
            x = unit(rng.normal(size=E.dim))
            y = rng.normal(size=E.dim)
            y = unit(y - (y @ x) * x)
            a = E._boundary_in_direction(x)
            step = fraction * E.diameter()
            for _ in range(3):  # scale the step in angle to a chord of that length
                b = E._boundary_in_direction(x + step * y)
                step *= fraction * E.diameter() / np.linalg.norm(b - a)
            d = unit(b - a)
            u = E.exterior_normal(a)
            cls = bl.ParallelClass(d)
            try:
                E.chord_second_intersection(a, d)
                flagged = False
            except DegenerateChordError:
                flagged = True
            assert flagged == (fraction < bodies.TANGENCY_FRACTION)
            if flagged:
                with pytest.raises(DegenerateChordError):
                    bl.parallel_chord_involution(E, cls, u)
            else:
                bl.parallel_chord_involution(E, cls, u)
            row = bl.parallel_chord_involution(E, cls, u[None])[0]
            # a fixed row comes back as its input, normalized once more
            assert (np.max(np.abs(row - u)) <= 1e-15) == flagged


# ---------------------------------------------------------------------------
# t_billiard_reflect
# ---------------------------------------------------------------------------

def test_t_billiard_with_ball_is_euclidean(ellipse, superellipse, radial_blob, disk):
    rng = np.random.default_rng(13)
    for K in (ellipse, superellipse, radial_blob):
        worst = 0.0
        for _ in range(100):
            line = random_line(rng)
            out = bl.t_billiard_reflect(K, disk, line)
            n = K.exterior_normal(out.point)
            expect = bl.euclidean_reflect(n, line.direction)
            worst = max(worst, np.linalg.norm(out.direction - expect))
        assert worst <= 1e-9, type(K).__name__


def test_t_billiard_with_ball_is_euclidean_3d(ellipsoid3, ball3):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(60):
        p = rng.normal(size=3) * 0.2
        v = unit(rng.normal(size=3))
        line = bl.OrientedLine(p, v)
        out = bl.t_billiard_reflect(ellipsoid3, ball3, line)
        n = ellipsoid3.exterior_normal(out.point)
        worst = max(worst, np.linalg.norm(
            out.direction - bl.euclidean_reflect(n, v)))
    assert worst <= 1e-9


def test_t_billiard_normal_incidence_reverses(disk):
    line = bl.OrientedLine([0.0, 0.0], [1.0, 0.0])
    out = bl.t_billiard_reflect(disk, disk, line)
    assert np.allclose(out.point, [1.0, 0.0], atol=1e-12)
    assert np.allclose(out.direction, [-1.0, 0.0], atol=1e-12)


def test_t_billiard_outgoing_points_inward(ellipse, ellipse_rot):
    rng = np.random.default_rng(14)
    T = ellipse_rot
    for _ in range(50):
        line = random_line(rng)
        out = bl.t_billiard_reflect(ellipse, T, line)
        n = ellipse.exterior_normal(out.point)
        assert np.dot(out.direction, n) < 0


def test_t_billiard_grazing_raises(disk):
    # line tangent to the unit circle at (0, 1)
    line = bl.OrientedLine([-2.0, 1.0], [1.0, 0.0])
    with pytest.raises((GrazingError, DomainError)):
        bl.t_billiard_reflect(disk, disk, line)


def test_ellipsoid_t_billiard_is_the_projective_billiard(ellipse_rot, superellipse,
                                                         radial_blob):
    # the paper's theorem: for T = {<Ap, p> <= 1} the T-billiard law is the
    # projective billiard with the transversal field A n
    rng = np.random.default_rng(35)
    for K in (ellipse_rot, superellipse, radial_blob):
        worst = 0.0
        for _ in range(10):
            T, _ = random_ellipsoid(rng, 2, rng.uniform(0.5, 2.0, size=2))
            for _ in range(10):
                line = random_line(rng)
                out = bl.t_billiard_reflect(K, T, line)
                n = K.exterior_normal(out.point)
                expect = bl.projective_billiard_reflect(
                    out.point, n, T.A @ n, bl.OrientedLine(out.point, line.direction))
                worst = max(worst, np.linalg.norm(out.direction - expect.direction))
        assert worst <= 1e-13, type(K).__name__


@pytest.mark.parametrize("call", [
    lambda: bl.parallel_chord_involution(bl.Ball(), bl.ParallelClass([0.0, 0.0, 1.0]),
                                         [1.0, 0.0]),
    lambda: bl.parallel_chord_involution(bl.Ball(), bl.ParallelClass([0.0, 1.0]),
                                         [1.0, 0.0, 0.0]),
    lambda: bl.parallel_chord_involution(bl.Ball(), bl.ParallelClass([0.0, 1.0]),
                                         np.eye(3)),
    lambda: bl.iterate_t_billiard(bl.Ball(), bl.Ball(), bl.OrientedLine(np.zeros(3),
                                                                         [1.0, 0.0, 0.0]), 3),
    lambda: bl.lift_kt_orbit(bl.Ball(), bl.Ball(), bl.OrientedLine(np.zeros(3),
                                                                   [1.0, 0.0, 0.0]), 3),
    lambda: bl.OrientedLine([0.1, 0.2], [0.0, 0.0]),
    lambda: bl.ParallelClass([0.0, 0.0]),
    lambda: bl.finsler_reflect_legendre(bl.Ball(), [0.0, 0.0], [1.0, 0.0]),
    lambda: bl.finsler_reflect_concurrency(bl.Ball(), [0.0, 0.0], [1.0, 0.0]),
], ids=["class_dim", "direction_dim", "direction_rows_dim", "iterate_line_dim",
        "lift_line_dim", "zero_line_direction", "zero_class", "zero_legendre_normal",
        "zero_concurrency_normal"])
def test_mismatched_or_zero_inputs_raise_domain_error(call):
    # a typed error, not numpy's ValueError
    with pytest.raises(DomainError):
        call()


def test_rescale_conjugation_identity(ellipse, superellipse, radial_blob):
    # Euclidean reflection in the rescaled body pulls back to the T-billiard
    rng = np.random.default_rng(15)
    b = np.array([1.7, 0.8])
    T = bl.Ellipsoid(np.diag(1.0 / b ** 2))
    for K in (ellipse, superellipse, radial_blob):
        K_res = bl.LinearImageBody(K, np.diag(b))
        worst = 0.0
        for _ in range(34):
            line = random_line(rng)
            out = bl.rescale_conjugate(b, bl.t_billiard_reflect(K, T, line))
            line_res = bl.rescale_conjugate(b, line)
            q = K_res.last_intersection(line_res)
            n = K_res.exterior_normal(q)
            expect = bl.euclidean_reflect(n, line_res.direction)
            worst = max(worst,
                        np.linalg.norm(out.direction - expect),
                        np.linalg.norm(out.point - q))
        assert worst <= 1e-8, type(K).__name__


def test_rescale_trivial_cases():
    line = bl.OrientedLine([1.0, 0.5], [0.0, 1.0])
    same = bl.rescale_conjugate([1.0, 1.0], line)
    assert np.allclose(same.point, line.point)
    assert np.allclose(same.direction, line.direction)
    scaled = bl.rescale_conjugate([2.0, 1.0], line)
    assert np.allclose(scaled.point, [2.0, 0.5])
    assert np.allclose(scaled.direction, [0.0, 1.0])


# ---------------------------------------------------------------------------
# projective billiard reflection
# ---------------------------------------------------------------------------

def test_projective_reflect_normal_field_is_euclidean(ellipse):
    rng = np.random.default_rng(16)
    field = bl.TransversalField(lambda q: ellipse.exterior_normal(q))
    for _ in range(30):
        line = random_line(rng)
        out = bl.projective_billiard_map(ellipse, field, line)
        q = out.point
        n = ellipse.exterior_normal(q)
        expect = bl.euclidean_reflect(n, line.direction)
        assert np.allclose(out.direction, expect, atol=1e-10)


def test_projective_reflect_along_transversal_reverses():
    q = np.zeros(2)
    m = np.array([0.0, 1.0])
    nu = unit([0.3, 1.0])
    incoming = bl.OrientedLine(q, nu)
    out = bl.projective_billiard_reflect(q, m, nu, incoming)
    assert np.allclose(out.direction, -nu, atol=1e-14)


def test_projective_reflect_fixes_tangent_directions():
    q = np.zeros(2)
    m = np.array([0.0, 1.0])
    nu = unit([0.3, 1.0])
    incoming = bl.OrientedLine(q, [1.0, 0.0])
    out = bl.projective_billiard_reflect(q, m, nu, incoming)
    assert np.allclose(out.direction, [1.0, 0.0], atol=1e-14)


def test_projective_reflect_involution_and_harmonic():
    rng = np.random.default_rng(17)
    q = np.zeros(2)
    m = np.array([0.0, 1.0])
    for _ in range(20):
        nu = unit([rng.uniform(-0.7, 0.7), 1.0])
        v = unit(rng.normal(size=2))
        if abs(v[1]) < 1e-2:
            continue
        first = bl.projective_billiard_reflect(q, m, nu, bl.OrientedLine(q, v))
        second = bl.projective_billiard_reflect(q, m, nu, first)
        assert np.allclose(second.direction, v, atol=1e-12)
        # harmonic quadruple: tangent trace, transversal, incoming, outgoing
        tangent = np.array([1.0, 0.0])
        cr = bl.cross_ratio_rp1([tangent, nu, v, first.direction])
        assert abs(cr + 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Finsler reflection laws
# ---------------------------------------------------------------------------

def test_finsler_circle_indicatrix_is_euclidean(disk):
    rng = np.random.default_rng(18)
    for _ in range(20):
        m = unit(rng.normal(size=2))
        u = unit(rng.normal(size=2))
        if abs(np.dot(m, u)) < 1e-2:
            continue
        v = bl.finsler_reflect_legendre(disk, m, u)
        assert np.allclose(v, bl.euclidean_reflect(m, u), atol=1e-12)


def test_finsler_laws_agree(ellipse_rot, radial_symmetric):
    # 100 random (indicatrix, hyperplane, incidence) triples in total
    rng = np.random.default_rng(19)
    for I, count in ((ellipse_rot, 60), (radial_symmetric, 40)):
        worst = 0.0
        for _ in range(count):
            m = unit(rng.normal(size=2))
            u = I._boundary_in_direction(unit(rng.normal(size=2)))
            if abs(np.dot(m, unit(u))) < 5e-2:
                continue
            v1 = bl.finsler_reflect_legendre(I, m, u)
            v2 = bl.finsler_reflect_concurrency(I, m, u)
            worst = max(worst, np.linalg.norm(v1 - v2))
        assert worst <= 1e-8, type(I).__name__


def test_finsler_laws_are_involutions(ellipse_rot):
    rng = np.random.default_rng(20)
    for _ in range(20):
        m = unit(rng.normal(size=2))
        u = ellipse_rot._boundary_in_direction(unit(rng.normal(size=2)))
        if abs(np.dot(m, unit(u))) < 5e-2:
            continue
        v = bl.finsler_reflect_legendre(ellipse_rot, m, u)
        back = bl.finsler_reflect_legendre(ellipse_rot, m, v)
        assert np.linalg.norm(back - u) <= 1e-8
        w = bl.finsler_reflect_concurrency(ellipse_rot, m, u)
        back2 = bl.finsler_reflect_concurrency(ellipse_rot, m, w)
        assert np.linalg.norm(back2 - u) <= 1e-8


FIGURATRIX_BODIES = {
    "ellipse": lambda: bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])),
    "radial": lambda: bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]),
    "ellipsoid3": lambda: bl.Ellipsoid(np.diag([1.0, 1.5625, 2.7778])),
}


@pytest.mark.parametrize("name", sorted(FIGURATRIX_BODIES))
def test_legendre_law_builds_the_figuratrix_once(name, monkeypatch):
    # the polar dual is kept with the indicatrix: repeated calls build no
    # second polar and return the bytes that a fresh indicatrix gives
    built = []
    build = bodies._build_polar
    monkeypatch.setattr(bodies, "_build_polar", lambda body: built.append(body) or build(body))
    I = FIGURATRIX_BODIES[name]()
    rng = np.random.default_rng(24)
    m = unit(rng.normal(size=I.dim))
    u = I._boundary_in_direction(m + 0.3 * rng.normal(size=I.dim))
    first = bl.finsler_reflect_legendre(I, m, u)
    for _ in range(3):
        assert bl.finsler_reflect_legendre(I, m, u).tobytes() == first.tobytes()
    assert built == [I]
    assert bl.polar_dual(I) is bl.polar_dual(I)
    fresh = bl.finsler_reflect_legendre(FIGURATRIX_BODIES[name](), m, u)
    assert fresh.tobytes() == first.tobytes()


INDICATRICES = {
    "ellipse": lambda: bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])),
    "radial": lambda: bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]),
    "support": lambda: bl.SupportBody2D([1.0, 0.0, 0.05]),
    "superellipse4": lambda: bl.Superellipse(4.0),
    "superellipse3.5": lambda: bl.Superellipse(3.5),
    "linear_image": lambda: bl.LinearImageBody(bl.Superellipse(4.0), [[1.1, 0.25], [0.05, 0.9]]),
    "ellipsoid3": lambda: bl.Ellipsoid(np.diag([1.0, 2.0, 0.5])),
    "superellipsoid3": lambda: bl.Superellipse(4.0, dim=3),
}


@pytest.mark.parametrize("name", list(INDICATRICES))
def test_legendre_law_is_the_chord_involution_of_the_figuratrix(name):
    # the Legendre images D(u), D(v) are the ends of the chord of the
    # figuratrix J along m: the chain through them is the oracle
    I = INDICATRICES[name]()
    J = bl.polar_dual(I)
    rng = np.random.default_rng(25)
    cases = 0
    while cases < 12:
        m = unit(rng.normal(size=I.dim))
        u = I._boundary_in_direction(unit(rng.normal(size=I.dim)))
        if abs(np.dot(m, unit(u))) < 0.05:
            continue
        cases += 1
        oracle = bl.legendre_point(J, J.chord_second_intersection(bl.legendre_point(I, u), m))
        assert np.linalg.norm(bl.finsler_reflect_legendre(I, m, u) - oracle) <= 1e-11


@pytest.mark.parametrize("name, quadric", [
    ("ellipse", True), ("ball", True), ("ellipsoid3", True), ("radial", False),
    ("superellipse3.5", False), ("superellipse4", False), ("superellipsoid3", False)])
def test_finsler_law_is_projective_exactly_for_quadric_indicatrices(name, quadric):
    # the Finsler law is the T-billiard of the figuratrix, so the paper's
    # theorem carries over: projective iff the indicatrix is a quadric.  A
    # class along a mirror axis of a body is a linear reflection, projective
    # for every body, so the planar normals sit halfway between the multiples
    # of pi / 20 (the axes and diagonals of these bodies)
    I = bl.Ball() if name == "ball" else INDICATRICES[name]()
    rng = np.random.default_rng(26)
    for k in range(20):
        m = (unit(rng.normal(size=3)) if I.dim == 3
             else bl.unit_vector((k + 0.5) * math.pi / 20, 2))
        sampler = bl.SphereInvolutionSampler.from_parallel_chord(bl.polar_dual(I), m)
        residual = bl.projectivity_residual(sampler, bl.SamplePlan(0.3, seed=k))
        assert residual <= 1e-12 if quadric else residual >= 1e-4, (k, residual)
        e = unit(rng.normal(size=I.dim))
        if abs(np.dot(e, m)) >= 0.05:
            v = bl.finsler_reflect_legendre(I, m, I._boundary_in_direction(e))
            assert np.linalg.norm(sampler(e) - unit(v)) <= 1e-12


def test_finsler_laws_agree_in_three_dimensions(ellipsoid3):
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(8):
        m = unit(rng.normal(size=3))
        u = ellipsoid3._boundary_in_direction(unit(rng.normal(size=3)))
        if abs(np.dot(m, unit(u))) < 0.1:
            continue
        v1 = bl.finsler_reflect_legendre(ellipsoid3, m, u)
        v2 = bl.finsler_reflect_concurrency(ellipsoid3, m, u)
        worst = max(worst, np.linalg.norm(v1 - v2))
    assert worst <= 1e-8


def test_concurrency_law_in_space_meets_the_legendre_law_at_round_off(ellipsoid3):
    # the inputs of the test above, plus 20 random ellipsoids: on half of
    # them the incidence normal, on the other half the reflected normal
    # lies a few 1e-3 from +e3 or -e3 (the poles of a spherical-angle chart)
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(8):
        m = unit(rng.normal(size=3))
        u = ellipsoid3._boundary_in_direction(unit(rng.normal(size=3)))
        if abs(np.dot(m, unit(u))) >= 0.1:
            cases.append((ellipsoid3, m, u))
    rng = np.random.default_rng(23)
    for k in range(20):
        R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        I = bl.Ellipsoid(R @ np.diag(rng.uniform(0.5, 2.0, 3)) @ R.T)
        pole = I.gauss_inverse(unit([*rng.normal(scale=1e-3, size=2), (-1.0) ** (k // 2)]))
        other = I._boundary_in_direction(unit(rng.normal(size=3)))
        if k % 2:  # incidence at the pole, any hyperplane
            u, m = pole, unit(rng.normal(size=3))
        else:  # the hyperplane that reflects u onto the pole: D(u) - D(v) is normal to it
            u, m = other, unit(bl.legendre_point(I, other) - bl.legendre_point(I, pole))
        assert abs(np.dot(m, unit(u))) >= 1e-3
        cases.append((I, m, u))
    assert len(cases) >= 25
    for I, m, u in cases:
        v1 = bl.finsler_reflect_legendre(I, m, u)
        v2 = bl.finsler_reflect_concurrency(I, m, u)
        assert np.linalg.norm(v1 - v2) <= 1e-12


def test_concurrency_law_meets_the_legendre_law_in_any_dimension():
    # the hyperplanes through L = (tangent plane at u) n (mirror) form a
    # pencil, so the law is one root on a circle of normals in every
    # dimension: random 4D and 5D ellipsoids and Superellipse(4, dim=3)
    rng = np.random.default_rng(27)
    indicatrices = [bl.Superellipse(4.0, dim=3)]
    for dim in (4, 5):
        for _ in range(4):
            R = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            indicatrices.append(bl.Ellipsoid(R @ np.diag(rng.uniform(0.5, 2.0, dim)) @ R.T))
    for I in indicatrices:
        cases = 0
        while cases < 8:
            m = unit(rng.normal(size=I.dim))
            u = I._boundary_in_direction(unit(rng.normal(size=I.dim)))
            if abs(np.dot(m, unit(u))) < 0.05:
                continue
            cases += 1
            v1 = bl.finsler_reflect_legendre(I, m, u)
            v2 = bl.finsler_reflect_concurrency(I, m, u)
            assert np.linalg.norm(v1 - v2) <= 1e-12, (I.dim, cases)


def test_concurrency_law_in_space_is_one_root_on_a_circle(ellipsoid3, monkeypatch):
    # no least-squares solve in a chart of the sphere: one Newton root of
    # the deflated gap on the circle of the pencil's normals, with at most
    # the planar law's 20 gauss_inverse calls
    def refuse(*args, **kwargs):
        raise AssertionError("the concurrency law called a least-squares solver")

    monkeypatch.setattr(bl.reflection, "least_squares", refuse)
    calls = []
    real = bl.Ellipsoid.gauss_inverse
    monkeypatch.setattr(bl.Ellipsoid, "gauss_inverse",
                        lambda self, w: calls.append(1) or real(self, w))
    rng = np.random.default_rng(28)
    cases = 0
    while cases < 20:
        m = unit(rng.normal(size=3))
        u = ellipsoid3._boundary_in_direction(unit(rng.normal(size=3)))
        if abs(np.dot(m, unit(u))) < 0.05:
            continue
        cases += 1
        expected = bl.finsler_reflect_legendre(ellipsoid3, m, u)
        calls.clear()
        v = bl.finsler_reflect_concurrency(ellipsoid3, m, u)
        assert np.linalg.norm(v - expected) <= 1e-12
        assert len(calls) <= 20, cases


def test_planar_concurrency_law_takes_no_angle_scan(ellipse, monkeypatch):
    # one Newton solve with the exact slope on the circle of normal angles:
    # 8 gauss_inverse calls from the mirror-image start (11 from the
    # midpoint, 55 with bisection alone), shared by the gap and its slope
    u = ellipse.gauss_inverse(unit([0.6, 0.8]))
    m = unit([1.0, 0.3])
    expected = bl.finsler_reflect_legendre(ellipse, m, u)
    calls = []
    real = bl.Ellipsoid.gauss_inverse
    monkeypatch.setattr(bl.Ellipsoid, "gauss_inverse",
                        lambda self, w: calls.append(1) or real(self, w))
    v = bl.finsler_reflect_concurrency(ellipse, m, u)
    assert np.linalg.norm(v - expected) <= 1e-8
    assert len(calls) <= 20


def test_finsler_parallel_branch_gives_antipode(ellipse):
    # tangent plane at u parallel to the mirror: the antipode comes back
    u = ellipse.gauss_inverse(np.array([0.0, 1.0]))
    m = np.array([0.0, 1.0])
    v = bl.finsler_reflect_concurrency(ellipse, m, u)
    assert np.allclose(v, -u, atol=1e-12)


def test_finsler_grazing_raises(ellipse):
    u = ellipse.gauss_inverse(np.array([0.0, 1.0]))
    m = unit(u)  # u lies in the hyperplane orthogonal to m? make it so
    m = np.array([1.0, 0.0])
    u_graze = np.array([0.0, 1.0])  # boundary point along m-orthogonal direction
    with pytest.raises(GrazingError):
        bl.finsler_reflect_legendre(ellipse, m, u_graze)


def test_finsler_rejects_asymmetric_indicatrix(radial_blob):
    for law in (bl.finsler_reflect_legendre, bl.finsler_reflect_concurrency):
        with pytest.raises(DomainError, match="centrally symmetric"):
            law(radial_blob, [0.0, 1.0], [0.5, 0.5])


def test_t_billiard_matches_finsler_with_dual_indicatrix(ellipse, superellipse):
    # for centrally symmetric T the chord law is the Finsler reflection in
    # the Minkowski structure whose indicatrix is the polar dual of T
    rng = np.random.default_rng(21)
    K = bl.Ellipsoid(np.array([[0.3, 0.05], [0.05, 1.1]]))
    for T in (ellipse, superellipse):
        I = bl.polar_dual(T)
        worst = 0.0
        for _ in range(25):
            line = random_line(rng)
            out = bl.t_billiard_reflect(K, T, line)
            q = out.point
            n = K.exterior_normal(q)
            u = I._boundary_in_direction(line.direction)
            v = bl.finsler_reflect_legendre(I, n, u)
            worst = max(worst, np.linalg.norm(unit(v) - out.direction))
        assert worst <= 1e-8, type(T).__name__
