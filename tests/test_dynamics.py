"""Orbit iteration, lifted orbits, closed-orbit search, capacities."""

import collections
import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

import billiardlab as bl
from billiardlab import dynamics
from billiardlab.errors import DomainError, PreconditionError
from billiardlab.solvers import levenberg_marquardt

from conftest import random_line


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# iterate_t_billiard
# ---------------------------------------------------------------------------

def test_diameter_orbit_in_disk(disk):
    line = bl.OrientedLine([0.0, 0.0], [1.0, 0.0])
    orbit = bl.iterate_t_billiard(disk, disk, line, 5)
    assert orbit.status == "ok"
    assert np.allclose(orbit.points[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(orbit.points[1], [-1.0, 0.0], atol=1e-12)
    assert np.allclose(orbit.lengths, 2.0, atol=1e-12)
    assert orbit.closed


def test_disk_orbit_has_constant_caustic(disk):
    # rotational symmetry: every chord keeps the same distance from the
    # center of the disk
    rng = np.random.default_rng(50)
    line = random_line(rng)
    orbit = bl.iterate_t_billiard(disk, disk, line, 12)
    dists = []
    for i in range(1, len(orbit.points)):
        p = orbit.points[i - 1]
        v = unit(orbit.points[i] - orbit.points[i - 1])
        dists.append(abs(p[0] * v[1] - p[1] * v[0]))
    assert np.ptp(dists) <= 1e-9


def test_ellipse_T_orbit_is_rescaled_euclidean_orbit(ellipse):
    # Eq-type conjugation at the orbit level, vertex by vertex
    rng = np.random.default_rng(51)
    b = np.array([1.5, 0.75])
    T = bl.Ellipsoid(np.diag(1.0 / b ** 2))
    K = ellipse
    K_res = bl.LinearImageBody(K, np.diag(b))
    ball = bl.Ball(1.0)
    for _ in range(5):
        line = random_line(rng)
        orbit = bl.iterate_t_billiard(K, T, line, 8)
        line_res = bl.rescale_conjugate(b, line)
        orbit_res = bl.iterate_t_billiard(K_res, ball, line_res, 8)
        assert orbit.status == orbit_res.status == "ok"
        pulled = orbit.points * b
        assert np.max(np.abs(pulled - orbit_res.points)) <= 1e-8


def test_orbit_grazing_truncates(disk):
    line = bl.OrientedLine([0.0, 1.0 - 1e-14], [1.0, 0.0])
    orbit = bl.iterate_t_billiard(disk, disk, line, 5)
    assert orbit.status == "grazing"


# ---------------------------------------------------------------------------
# lift_kt_orbit
# ---------------------------------------------------------------------------

def test_lifted_diameter_orbit_has_four_segments_per_period(disk):
    line = bl.OrientedLine([0.0, 0.0], [1.0, 0.0])
    lift = bl.lift_kt_orbit(disk, disk, line, 2)
    kinds = [s.kind for s in lift.segments]
    assert kinds == ["q", "p", "q", "p"]
    # q-move endpoints alternate between the diameter ends
    assert np.allclose(lift.segments[0].q_end, [1.0, 0.0], atol=1e-12)
    assert np.allclose(lift.segments[2].q_end, [-1.0, 0.0], atol=1e-12)
    # p jumps to the antipode during each p-move
    assert np.allclose(lift.segments[1].p_end, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(lift.segments[3].p_end, [1.0, 0.0], atol=1e-12)


def test_lift_projection_matches_iterate(ellipse, ellipse_rot, radial_blob, superellipse):
    # the non-quadric pairs take the generic and deflated exits on both sides
    se35 = bl.Superellipse(3.5)
    for K, T in ((ellipse, ellipse_rot), (radial_blob, superellipse),
                 (superellipse, superellipse), (superellipse, se35), (radial_blob, se35)):
        rng = np.random.default_rng(52)
        worst, compared = 0.0, 0
        for _ in range(100):
            line = random_line(rng, spread=0.2)
            steps = 4
            orbit = bl.iterate_t_billiard(K, T, line, steps)
            lift = bl.lift_kt_orbit(K, T, line, steps)
            if orbit.status != "ok" or lift.status != "ok":
                continue
            compared += 1
            worst = max(worst, float(np.max(np.abs(orbit.points - lift.q_polygon()))))
        assert compared >= 90, (type(K).__name__, type(T).__name__)
        assert worst <= 1e-9, (type(K).__name__, type(T).__name__)
    # the orbit and the lift run one bounce loop, so the q-polygon is the
    # orbit bit for bit: for a ball T, which transports directions, and for
    # a Superellipse(4) T, which carries its chord end
    for name, K in _billiard_bodies().items():
        for T in (bl.Ball(), bl.Superellipse(4.0)):
            for line in _billiard_lines(3, 21):
                orbit = bl.iterate_t_billiard(K, T, line, 6)
                lift = bl.lift_kt_orbit(K, T, line, 6)
                assert lift.status == orbit.status, (name, type(T).__name__)
                assert lift.q_polygon().reshape(-1, K.dim).tobytes() == orbit.points.tobytes(), (
                    name, type(T).__name__)


@pytest.mark.parametrize("entry", [bl.iterate_t_billiard, bl.lift_kt_orbit],
                         ids=["iterate", "lift"])
def test_steps_must_be_a_non_negative_integer(entry, disk):
    line = bl.OrientedLine([0.0, 0.0], [1.0, 0.2])
    for steps in (-3, 2.7, math.nan, 2.0, True, "3", None):
        with pytest.raises(DomainError, match="steps must be a non-negative integer"):
            entry(disk, disk, line, steps)
    assert entry(disk, disk, line, 0).status == "ok"
    two = entry(disk, disk, line, np.int64(2))
    assert len(two.points if entry is bl.iterate_t_billiard else two.q_polygon()) == 2


def _counted(monkeypatch, body, tag, counts):
    """Count the calls of body's implicit, implicit_grad and gauss_inverse,
    its own internal calls included, under "tag.name" in counts."""
    for name in ("implicit", "implicit_grad", "gauss_inverse"):
        def counted(*args, _real=getattr(body, name), _key=f"{tag}.{name}"):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(body, name, counted)


@pytest.mark.parametrize("entry", [bl.iterate_t_billiard, bl.lift_kt_orbit],
                         ids=["iterate", "lift"])
def test_evaluations_per_bounce(entry, monkeypatch):
    # T carries its chord end, so gauss_inverse runs once per orbit; the
    # chord end takes one boundary check and two gradients (at the end and
    # at its Newton step onto dT), and each bounce point one F, whose value
    # its next exit reuses.  Counted per bounce as the difference between a
    # 6-bounce and a 2-bounce orbit of the same line, whose first bounces
    # (an exit from an interior point) are the same
    K, T = bl.Superellipse(3.5), bl.Superellipse(4.0)
    counts = collections.Counter()
    _counted(monkeypatch, K, "K", counts)
    _counted(monkeypatch, T, "T", counts)
    for line in _billiard_lines(3, 23):
        runs = []
        for steps in (2, 6):
            counts.clear()
            assert entry(K, T, line, steps).status == "ok"
            runs.append(dict(counts))
        short, long = runs
        assert short["T.gauss_inverse"] == long["T.gauss_inverse"] == 1
        per_bounce = {key: (long[key] - short.get(key, 0)) / 4 for key in long}
        assert per_bounce == {"K.implicit": 1, "K.implicit_grad": 1, "T.gauss_inverse": 0,
                              "T.implicit": 1, "T.implicit_grad": 2}


def test_lift_segment_structure(ellipse, disk):
    rng = np.random.default_rng(53)
    line = random_line(rng)
    lift = bl.lift_kt_orbit(ellipse, disk, line, 3)
    for seg in lift.segments:
        if seg.kind == "q":
            assert np.allclose(seg.p_start, seg.p_end)
            assert abs(disk.implicit(seg.p_start)) < 1e-9
        else:
            assert np.allclose(seg.q_start, seg.q_end)
            assert abs(ellipse.implicit(seg.q_start)) < 1e-9
            # p moves along the interior normal of K at the bounce point
            n = ellipse.exterior_normal(seg.q_start)
            dp = seg.p_end - seg.p_start
            assert abs(np.dot(unit(dp), -n) - 1.0) < 1e-9


def test_lift_requires_interior_start(disk):
    with pytest.raises(PreconditionError):
        bl.lift_kt_orbit(disk, disk, bl.OrientedLine([2.0, 0.0], [1.0, 0.0]), 2)


# ---------------------------------------------------------------------------
# closed_orbit_search: brute-force oracles first
# ---------------------------------------------------------------------------

def _brute_force_min_orbit_disk(m, n_grid=720):
    """Grid scan for stationary m-gons in the unit disk (Euclidean).

    Independent of the optimizer: checks the reflection law directly at
    every vertex of candidate polygons sampled on a rotation-reduced
    grid, then returns the least perimeter.
    """
    best = np.inf
    thetas = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    if m == 2:
        # double normals of the circle: all diameters; perimeter 4
        for t in thetas[: n_grid // 2]:
            p = np.array([math.cos(t), math.sin(t)])
            best = min(best, 2.0 * np.linalg.norm(p - (-p)))
        return best
    # regular star polygons are the closed orbits of the disk; scan the
    # winding numbers reachable with m bounces
    for w in range(1, (m - 1) // 2 + 1):
        step = 2.0 * math.pi * w / m
        pts = np.array([[math.cos(k * step), math.sin(k * step)] for k in range(m)])
        per = sum(np.linalg.norm(pts[(k + 1) % m] - pts[k]) for k in range(m))
        best = min(best, per)
    return best


def test_disk_two_bounce_orbit_action_four(disk):
    oracle = _brute_force_min_orbit_disk(2)
    assert abs(oracle - 4.0) < 1e-12
    orbit = bl.closed_orbit_search(disk, disk, 2, multistarts=8)
    assert orbit.status == "ok"
    assert abs(orbit.action - 4.0) <= 1e-9
    assert orbit.stationarity <= 1e-8


def test_disk_three_bounce_orbit_equilateral(disk):
    oracle = _brute_force_min_orbit_disk(3)
    assert abs(oracle - 3.0 * math.sqrt(3.0)) < 1e-9
    orbit = bl.closed_orbit_search(disk, disk, 3, multistarts=8)
    assert abs(orbit.action - oracle) <= 1e-8
    assert orbit.action > 4.0


def test_closed_orbit_vertices_satisfy_reflection_law(disk, ellipse):
    # stationarity coincides with the billiard reflection law
    for K in (disk, ellipse):
        for m_bounce in (2, 3, 4):
            orbit = bl.closed_orbit_search(K, bl.Ball(1.0), m_bounce,
                                           multistarts=12)
            m = len(orbit.points)
            for i in range(m):
                q_prev = orbit.points[(i - 1) % m]
                q = orbit.points[i]
                q_next = orbit.points[(i + 1) % m]
                v_in = unit(q - q_prev)
                v_out = unit(q_next - q)
                n = K.exterior_normal(q)
                assert np.linalg.norm(
                    bl.euclidean_reflect(n, v_in) - v_out) <= 1e-8


def test_closed_orbit_vertices_satisfy_t_billiard_law(ellipse):
    # for a general reflecting body the stationary polygon follows the
    # chord-transport law at every vertex
    T = bl.Ellipsoid(np.diag([1.0, 2.0]))
    orbit = bl.closed_orbit_search(ellipse, T, 3, multistarts=16)
    assert orbit.status == "ok"
    m = len(orbit.points)
    for i in range(m):
        q_prev = orbit.points[(i - 1) % m]
        q_next = orbit.points[(i + 1) % m]
        incoming = bl.OrientedLine(q_prev, orbit.points[i] - q_prev)
        out = bl.t_billiard_reflect(ellipse, T, incoming)
        assert np.allclose(out.point, orbit.points[i], atol=1e-8)
        v_out = unit(q_next - orbit.points[i])
        assert np.linalg.norm(out.direction - v_out) <= 1e-7


def test_closed_orbit_action_is_stationary_fd(disk):
    # directional finite differences of the action vanish at the solution
    orbit = bl.closed_orbit_search(disk, disk, 3, multistarts=8)
    thetas = np.array([math.atan2(p[1], p[0]) for p in orbit.points])

    def action(ths):
        pts = np.array([[math.cos(t), math.sin(t)] for t in ths])
        return sum(np.linalg.norm(pts[(i + 1) % 3] - pts[i]) for i in range(3))

    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (action(thetas + e) - action(thetas - e)) / (2 * h)
        assert abs(fd) <= 1e-7


def test_degenerate_polygons_rejected(disk):
    # a seed that collapses consecutive points must not be reported as an
    # orbit with near-zero action
    orbit = bl.closed_orbit_search(disk, disk, 2, multistarts=6, seed=3)
    assert orbit.action > 1.0


# ---------------------------------------------------------------------------
# capacity, Mahler, Viterbo
# ---------------------------------------------------------------------------

def test_closed_orbit_search_in_three_dimensions(ball3):
    # bouncing-ball orbits: twice the width of the body
    orbit = bl.closed_orbit_search(ball3, ball3, 2, multistarts=12)
    assert orbit.status == "ok"
    assert abs(orbit.action - 4.0) <= 1e-8
    E3 = bl.Ellipsoid(np.diag([1.0, 0.8, 0.5]))  # shortest semiaxis 1.0
    orbit2 = bl.closed_orbit_search(E3, ball3, 2, multistarts=16)
    assert abs(orbit2.action - 4.0) <= 1e-7


@pytest.mark.parametrize("multistarts", [2, 4, 8])
def test_singular_damped_system_stops_its_row(ball3, superellipsoid3, multistarts):
    # a converged 2-gon row whose damping falls below the round-off of its
    # singular J^T J stops there instead of failing the batched solve
    orbit = bl.closed_orbit_search(superellipsoid3, ball3, 2, multistarts=multistarts)
    assert orbit.status == "ok"
    assert abs(orbit.action - 4.0) <= 1e-9


def test_capacity_disk_disk(disk):
    report = bl.capacity_estimate(disk, disk, 5, multistarts=8)
    assert abs(report.value - 4.0) <= 1e-4
    ms = [row[0] for row in report.table]
    assert ms == [2, 3, 4, 5]
    actions = [row[1] for row in report.table]
    assert actions[0] == min(actions)


def test_capacity_homogeneity(disk):
    base = bl.capacity_estimate(disk, disk, 2, multistarts=6).value
    for lam in (0.5, 2.0):
        scaled = bl.Ball(lam)
        val = bl.capacity_estimate(scaled, disk, 2, multistarts=6).value
        assert abs(val - lam * base) <= 1e-6


def test_capacity_invariant_under_symplectic_rescaling(ellipse):
    # capacity(K, E_b) equals capacity(diag(b) K, ball)
    b = np.array([1.4, 0.7])
    T = bl.Ellipsoid(np.diag(1.0 / b ** 2))
    K = ellipse
    K_res = bl.LinearImageBody(K, np.diag(b))
    c1 = bl.capacity_estimate(K, T, 3, multistarts=12).value
    c2 = bl.capacity_estimate(K_res, bl.Ball(1.0), 3, multistarts=12).value
    assert abs(c1 - c2) <= 1e-6 * max(c1, 1.0)


def test_capacity_monotone_under_inclusion(disk):
    # disk of radius 1 inside the 1.2 x 1.5 ellipse
    big = bl.Ellipsoid(np.diag([1.0 / 1.2 ** 2, 1.0 / 1.5 ** 2]))
    small_cap = bl.capacity_estimate(disk, disk, 3, multistarts=8).value
    big_cap = bl.capacity_estimate(big, disk, 3, multistarts=8).value
    assert small_cap <= big_cap + 1e-6


def test_mahler_products():
    disk = bl.Ball(1.0)
    assert abs(bl.mahler_product(disk) - math.pi ** 2) <= 1e-3
    square = bl.Polygon2D([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert abs(bl.mahler_product(square) - 8.0) <= 1e-6
    # affine invariance: any ellipse gives pi^2 exactly
    E = bl.Ellipsoid(np.array([[0.3, 0.1], [0.1, 1.2]]))
    assert abs(bl.mahler_product(E) - math.pi ** 2) <= 1e-12
    # volume bound of the product (planar case): 4^2/2! = 8
    assert bl.mahler_product(square) >= 8.0 - 1e-9


def test_mahler_generic_symmetric_body(radial_symmetric):
    # generic path: quadrature area times polar area
    val = bl.mahler_product(radial_symmetric)
    assert val >= 8.0 - 1e-3  # volume-product lower bound for symmetric bodies
    assert val <= math.pi ** 2 + 1e-2  # upper bound attained by ellipses


def test_mahler_requires_symmetry(radial_blob):
    with pytest.raises(DomainError):
        bl.mahler_product(radial_blob)


def test_viterbo_ratio_disk(disk):
    ratio = bl.viterbo_ratio(disk, disk, m_max=3, multistarts=6)
    assert abs(ratio - 8.0 / math.pi ** 2) <= 1e-4


DIMENSION_ENTRY_POINTS = {
    "closed_orbit_search": lambda K, T, line: bl.closed_orbit_search(K, T, 2, multistarts=2),
    "capacity_estimate": lambda K, T, line: bl.capacity_estimate(K, T, 3, multistarts=2),
    "viterbo_ratio": lambda K, T, line: bl.viterbo_ratio(K, T, m_max=3, multistarts=2),
    "iterate_t_billiard": lambda K, T, line: bl.iterate_t_billiard(K, T, line, 5),
    "lift_kt_orbit": lambda K, T, line: bl.lift_kt_orbit(K, T, line, 5),
    "t_billiard_reflect": lambda K, T, line: bl.t_billiard_reflect(K, T, line),
}


@pytest.mark.parametrize("swap", [False, True], ids=["plane_in_space", "space_in_plane"])
@pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRY_POINTS))
def test_bodies_of_different_dimensions_raise_domain_error(entry, swap):
    # a typed error at entry, not numpy's matmul dimension mismatch
    K, T = bl.Ball(), bl.Ball(dim=3)
    if swap:
        K, T = T, K
    line = bl.OrientedLine(np.zeros(K.dim), np.eye(K.dim)[0])
    with pytest.raises(DomainError, match="share their dimension"):
        DIMENSION_ENTRY_POINTS[entry](K, T, line)


def test_finsler_length_uses_support_function(ellipse):
    v = np.array([0.7, -0.2])
    assert abs(bl.finsler_length(ellipse, v) - ellipse.support(v)) == 0.0


# ---------------------------------------------------------------------------
# closed_orbit_search: exact derivatives in the radial chart
# ---------------------------------------------------------------------------

def _symmetric_bodies():
    """Centrally symmetric bodies of every family the capacity gate covers."""
    return {
        "ellipse": bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])),
        "superellipse4": bl.Superellipse(4.0),
        "superellipse3": bl.Superellipse(3.0, semiaxes=[1.0, 0.6]),
        # the polar of Superellipse(4): infinite curvature on the axes
        "superellipse4_polar": bl.Superellipse(4.0 / 3.0),
        "radial": bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02], [0.0, 0.0, 0.02]),
        "linear": bl.LinearImageBody(bl.Superellipse(4.0),
                                     np.array([[1.1, 0.25], [0.05, 0.9]])),
        "ellipsoid3": bl.Ellipsoid(np.diag(1.0 / np.array([1.0, 0.8, 0.6]) ** 2)),
    }


@pytest.mark.parametrize("name", sorted(_symmetric_bodies()))
def test_capacity_of_body_times_polar_is_four(name):
    # c(K x K polar) = 4 for centrally symmetric K (Artstein-Avidan,
    # Karasev, Ostrover 2014), attained by a two-bounce orbit
    K = _symmetric_bodies()[name]
    T = bl.polar_dual(K)
    report = bl.capacity_estimate(K, T, K.dim + 1, multistarts=4)
    assert abs(report.value - 4.0) <= 1e-6
    scale = max(T.support(np.eye(K.dim)[0]), 1.0)
    for m, action, stationarity in report.table:
        assert action >= 4.0 - 1e-6, m
        assert stationarity <= 1e-12 * scale * K.diameter(), m


def _mp_symmetric_three_bounce_action(m, b):
    """Stationary action of the 3-bounce orbit of Superellipse(m, [1, b])
    with T its polar that has a vertex at (1, 0), by 40-digit arithmetic.

    T-lengths are the K-gauge ||(dx, dy/b)||_m; the other two vertices are
    (x, +-y) with x = -(1 - (y/b)^m)^(1/m).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, b = mp.mpf(m), mp.mpf(b)

        def action(y):
            x = -(1 - (y / b) ** m) ** (1 / m)
            return 2 * (abs(x - 1) ** m + (y / b) ** m) ** (1 / m) + 2 * y / b

        y = mp.findroot(lambda y: mp.diff(action, y), 0.8 * b)
        return float(action(y))


@pytest.mark.parametrize("m, b, multistarts, expected", [
    (3.0, 0.6, 2, 5.28831939211420),
    (4.0, 1.0, 4, 5.40531445438394),
])
def test_three_bounce_orbit_through_flat_point(m, b, multistarts, expected):
    # the minimal 3-bounce orbit has a vertex at the flat point (1, 0),
    # where the Gauss-angle chart is singular and the radial chart is not
    reference = _mp_symmetric_three_bounce_action(m, b)
    assert abs(reference - expected) <= 1e-13
    K = bl.Superellipse(m, semiaxes=[1.0, b])
    orbit = bl.closed_orbit_search(K, bl.polar_dual(K), 3, multistarts=multistarts)
    assert orbit.status == "ok"
    assert abs(orbit.action - reference) <= 1e-12 * reference
    assert orbit.stationarity <= 1e-12


ONE = np.arange(1)  # the polygon of a one-seed system


def _stationarity_system(K, T, m, rng):
    n_angles = K.dim - 1
    angles = (0.3 + 2.0 * math.pi * np.arange(m) / m).reshape(m, 1)
    if n_angles == 2:
        angles = np.column_stack([angles[:, 0], rng.uniform(0.5, 2.6, size=m)])
    normals = np.array([bl.unit_vector(a, K.dim) for a in angles])
    frames, x0 = dynamics._seed_charts(K.gauss_inverse(normals)[None])
    return dynamics._StationaritySystem(K, T, frames, 1, m), x0[0]


def _residual(system, x):
    return system(x[None], ONE)[0][0]


def _jacobian(system, x):
    return system(x[None], ONE)[1][0]


JACOBIAN_PAIRS = {
    "ellipse": lambda: (bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])), None),
    "superellipse": lambda: (bl.Superellipse(3.0, semiaxes=[1.0, 0.6]), None),
    "radial": lambda: (bl.RadialBody2D([1.0, 0.0, 0.06, 0.0, 0.01],
                                       [0.0, 0.0, 0.02]), None),
    "linear": lambda: (bl.LinearImageBody(bl.Superellipse(4.0),
                                          np.array([[1.1, 0.25], [0.05, 0.9]])), None),
    "support": lambda: (bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]),
                        bl.Ellipsoid(np.diag([1.0, 2.0]))),
    "ellipsoid3": lambda: (bl.Ellipsoid(np.diag([1.0, 1.5625, 2.7778])), None),
    "superellipse3d": lambda: (bl.Superellipse(4.0, dim=3), bl.Ball(1.0, dim=3)),
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_PAIRS))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_exact_jacobian_matches_central_differences(name, m):
    K, T = JACOBIAN_PAIRS[name]()
    T = bl.polar_dual(K) if T is None else T
    rng = np.random.default_rng(60 + m)
    system, x0 = _stationarity_system(K, T, m, rng)
    x = x0 + rng.normal(scale=0.1, size=x0.shape)
    jac = _jacobian(system, x)
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        fd[:, j] = (_residual(system, x + e) - _residual(system, x - e)) / (2 * h)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(fd))
    # the Jacobian is the Hessian of the action in the chart angles
    assert np.max(np.abs(jac - jac.T)) <= 1e-12 * np.max(np.abs(jac))


def test_jacobian_finite_at_flat_normals_of_T():
    # grad^2 h_T is infinite where a chord is parallel to a flat normal of
    # T = Superellipse(4); the solver must still see finite numbers
    K, T = bl.Ball(1.0), bl.Superellipse(4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for phis in ([math.pi / 2, -math.pi / 2], [0.0, 2.0, -2.0]):
            m = len(phis)
            system = dynamics._StationaritySystem(K, T, None, 1, m)
            assert np.all(np.isfinite(_residual(system, np.array(phis))))
            assert np.all(np.isfinite(_jacobian(system, np.array(phis))))
        orbit = bl.closed_orbit_search(K, T, 3)
    assert orbit.status == "ok"
    assert orbit.stationarity <= 1e-12 * K.diameter()


@pytest.mark.parametrize("name", ["ellipse", "ellipsoid3"])
def test_degenerate_and_live_polygons_in_one_batch(name):
    # polygon 1 has two coincident vertices: its residual row is NaN and
    # its Jacobian zero, while polygons 0 and 2 get the bits of their
    # evaluation alone (a batch without a degenerate polygon)
    K, T = JACOBIAN_PAIRS[name]()
    T = bl.polar_dual(K) if T is None else T
    points = dynamics._seed_polygons(K, 3, 3, seed=7)
    points[1, 1] = points[1, 0]
    frames, x = dynamics._seed_charts(points)
    x[[0, 2]] += np.random.default_rng(8).normal(scale=0.05, size=x[[0, 2]].shape)
    system = dynamics._StationaritySystem(K, T, frames, 3, 3)
    r, jac = system(x, np.arange(3))
    assert system.degenerate.tolist() == [False, True, False]
    assert np.all(np.isnan(r[1])) and not np.any(jac[1])
    for s in (0, 2):
        r_one, jac_one = system(x[s:s + 1], np.array([s]))
        assert not system.degenerate[s]
        assert r[s].tobytes() == r_one[0].tobytes(), s
        assert jac[s].tobytes() == jac_one[0].tobytes(), s


def test_stationarity_is_the_reflection_law_defect(ellipse):
    # Orbit.stationarity is chart-free: the tangential part of
    # t_{i-1} - t_i at every vertex, t_i the touching point of T
    T = bl.Ellipsoid(np.diag([1.0, 2.0]))
    orbit = bl.closed_orbit_search(ellipse, T, 3, multistarts=4)
    qs = orbit.points
    touch = np.array([T.support_point(qs[(i + 1) % 3] - qs[i]) for i in range(3)])
    worst = 0.0
    for i in range(3):
        n = ellipse.exterior_normal(qs[i])
        w = touch[i - 1] - touch[i]
        worst = max(worst, float(np.linalg.norm(w - np.dot(w, n) * n)))
    assert orbit.stationarity == pytest.approx(worst, abs=1e-15)
    assert orbit.stationarity <= 1e-12


# ---------------------------------------------------------------------------
# closed_orbit_search: all multistarts in one batched solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ellipse", "superellipse4", "radial", "ellipsoid3"])
def test_each_seed_of_a_batch_gets_its_one_seed_bits(name):
    # every row operation of the batched system and solver acts on one
    # polygon at a time, so a seed solved among S others ends on exactly
    # the point, action and defect of its solve alone
    K = _symmetric_bodies()[name]
    T = bl.polar_dual(K)
    points = dynamics._seed_polygons(K, K.dim + 1, 6, seed=5)
    x, orbits = dynamics._solve_seeds(K, T, points)
    for s in range(len(points)):
        x_one, (orbit,) = dynamics._solve_seeds(K, T, points[s:s + 1])
        assert np.array_equal(x[s], x_one[0]), s
        assert np.array_equal(orbits[s].points, orbit.points), s
        assert orbits[s].action == orbit.action, s
        assert orbits[s].stationarity == orbit.stationarity, s


def _orbit_digest(orbit):
    """sha256 of the bits of an orbit's points, action and defect."""
    return hashlib.sha256(orbit.points.tobytes()
                          + struct.pack("<2d", orbit.action, orbit.stationarity)).hexdigest()


@pytest.mark.parametrize("name, m, digest", [
    ("ellipse", 3, "8b3f3422440b868170535269c518b582"),
    ("superellipse4", 3, "da70d2c34fdc42b62ad2fc303977dd52"),
    ("radial", 3, "e70ae30ca40e23ebcf943753d6b89f3c"),
    ("linear", 3, "09c10030517b41dd96b688d8be5d705e"),
    ("ellipsoid3", 4, "1275c525c9137a5723a2cbc13400eec4"),
])
def test_searches_keep_their_pinned_bits(name, m, digest):
    # a refactoring of the closed-orbit search must not move its outputs
    # by a bit; the batch and rerun tests above compare the search only
    # with itself, these digests pin five searches' points, action and defect
    K = _symmetric_bodies()[name]
    orbit = bl.closed_orbit_search(K, bl.polar_dual(K), m, multistarts=4, seed=5)
    assert orbit.status == "ok"
    assert _orbit_digest(orbit)[:32] == digest


def _billiard_bodies():
    """A body of each family that the T-billiard map bounces in."""
    return {
        "ellipse": bl.Ellipsoid(np.array([[0.4, 0.1], [0.1, 1.2]])),
        "superellipse4": bl.Superellipse(4.0),
        "superellipse35": bl.Superellipse(3.5),
        "radial": bl.RadialBody2D([1.0, 0.0, 0.06, 0.01], [0.0, 0.02, 0.0, 0.01]),
        "support": bl.SupportBody2D([1.0, 0.0, 0.06, 0.0], [0.0, 0.0, 0.02, 0.01]),
        "linear": bl.LinearImageBody(bl.Superellipse(4.0),
                                     np.array([[1.1, 0.25], [0.05, 0.9]])),
    }


def _billiard_lines(count, seed):
    """Lines through points of the disk of radius 0.3, which every K contains."""
    rng = np.random.default_rng(seed)
    return [bl.OrientedLine(0.3 * math.sqrt(rng.uniform()) * unit(rng.normal(size=2)),
                            unit(rng.normal(size=2))) for _ in range(count)]


@pytest.mark.parametrize("query, bodies, digest", [
    ("orbit", "ellipse/ball", "f3f8a36eeb82a9519278d17ad03f8d1f"),
    ("orbit", "ellipse/superellipse4", "ab0a01669f9bf0ab317c1097ea09c8f1"),
    ("orbit", "superellipse4/ball", "6f7a7592fc6f4f30c7493e88bb846783"),
    ("orbit", "superellipse4/superellipse4", "2f5d973464e3880bb3285413ee632b88"),
    ("orbit", "superellipse35/ball", "d6919c8919d8ee5abe160b2d3452fbbb"),
    ("orbit", "superellipse35/superellipse4", "573597273fdd500d12147f5e7554a354"),
    ("orbit", "radial/ball", "a359f69f0dacbfa3dc0f151fbaf00124"),
    ("orbit", "radial/superellipse4", "ce91266414f5bfa0366134981ce9baea"),
    ("orbit", "support/ball", "ccea06a1493a48118c48a772187da6ba"),
    ("orbit", "support/superellipse4", "91e707b893dd906a076a8053009b3601"),
    ("orbit", "linear/ball", "5c15623b487dd8829dfe5677f9fbafae"),
    ("orbit", "linear/superellipse4", "d014b99fd3d22967e6b4c64bd3e190c9"),
    ("lift", "superellipse4/ball", "a04ad2305322e19b765677178a59994d"),
    ("lift", "superellipse4/superellipse4", "d5f84a6802bb1bb6aa866d2c98b586b2"),
    ("finsler", "ellipse", "85c6ebbd96e8e1d059c6378bf9ad7c33"),
    ("finsler", "radial", "638066de201116262be783ad44f40400"),
    ("finsler", "ellipsoid3", "80c47cfc21b1dcb9ad1c9fc348d52c8e"),
])
def test_orbits_keep_their_pinned_bits(query, bodies, digest):
    # a bounce is a chain of one-vector body queries; a change to their
    # bookkeeping must not move an orbit by a bit.  Digests of the points and
    # directions of three 6-bounce orbits per K/T, of a lifted orbit's
    # q-polygon per K/T, and of both Finsler laws at four (hyperplane,
    # incidence) pairs per indicatrix
    h = hashlib.sha256()
    if query == "finsler":
        I = {"ellipse": bl.Ellipsoid(np.array([[1.4, 0.2], [0.2, 0.7]])),
             "radial": bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02], [0.0, 0.0, 0.02]),
             "ellipsoid3": bl.Ellipsoid(np.diag([0.8, 1.3, 0.6]))}[bodies]
        rng = np.random.default_rng(17)
        for _ in range(4):
            m, u = unit(rng.normal(size=I.dim)), I._boundary_in_direction(rng.normal(size=I.dim))
            for law in (bl.finsler_reflect_legendre, bl.finsler_reflect_concurrency):
                h.update(law(I, m, u).tobytes())
    else:
        K_name, T_name = bodies.split("/")
        K = _billiard_bodies()[K_name]
        T = {"ball": bl.Ball(), "superellipse4": bl.Superellipse(4.0)}[T_name]
        if query == "lift":
            (line,) = _billiard_lines(1, 23)
            lift = bl.lift_kt_orbit(K, T, line, 6)
            assert lift.status == "ok"
            h.update(lift.q_polygon().tobytes())
        else:
            for line in _billiard_lines(3, 21):
                orbit = bl.iterate_t_billiard(K, T, line, 6)
                assert orbit.status == "ok"
                h.update(orbit.points.tobytes() + orbit.directions.tobytes())
    assert h.hexdigest()[:32] == digest


def _mp_superellipse_t_orbit(mp, K_name, line, steps):
    """Bounce points of the T-billiard orbit of ``line`` in the K of
    _billiard_bodies() named K_name (its ellipse or Superellipse(4)), with
    T = Superellipse(4), in mpmath arithmetic at its working precision.
    Every exit is the largest real root of its line polynomial, both bodies'
    normals are their normalized gradients, and the orbit starts at T's
    closed-form gauss_inverse of the line's direction."""
    A = [[mp.mpf(0.4), mp.mpf(0.1)], [mp.mpf(0.1), mp.mpf(1.2)]]

    def quartic(x, v):  # sum (x_i + t v_i)^4 - 1, highest power first
        c = [mp.fsum(mp.binomial(4, k) * a ** (4 - k) * b ** k for a, b in zip(x, v))
             for k in range(5)]
        c[0] -= 1
        return c[::-1]

    def quadric(x, v):  # <A(x + t v), x + t v> - 1
        Ax, Av = ([mp.fsum(r[j] * y[j] for j in range(2)) for r in A] for y in (x, v))
        return [mp.fsum(a * b for a, b in zip(v, Av)), 2 * mp.fsum(a * b for a, b in zip(x, Av)),
                mp.fsum(a * b for a, b in zip(x, Ax)) - 1]

    def exit_t(coeffs):
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        return max(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30)

    def unit(x):
        r = mp.sqrt(mp.fsum(a * a for a in x))
        return [a / r for a in x]

    K_poly, K_grad = {
        "ellipse": (quadric, lambda x: [2 * mp.fsum(r[j] * x[j] for j in range(2)) for r in A]),
        "superellipse4": (quartic, lambda x: [4 * a ** 3 for a in x]),
    }[K_name]
    q, v = ([mp.mpf(float(a)) for a in x] for x in (line.point, line.direction))
    w = [mp.sign(a) * abs(a) ** (mp.mpf(1) / 3) for a in v]
    scale = mp.fsum(a ** 4 for a in w) ** (mp.mpf(1) / 4)
    p = [a / scale for a in w]
    points = []
    for _ in range(steps):
        t = exit_t(K_poly(q, v))
        q = [a + t * b for a, b in zip(q, v)]
        n = unit(K_grad(q))
        s = exit_t(quartic(p, [-a for a in n]))
        p = [a - s * b for a, b in zip(p, n)]
        v = unit([4 * a ** 3 for a in p])
        points.append(q)
    return points


@pytest.mark.parametrize("K_name, bound", [("ellipse", 4.5e-14), ("superellipse4", 1.5e-13)])
def test_superellipse_t_orbits_match_high_precision(K_name, bound):
    # the three 6-bounce orbits of the pinned "orbit-*/superellipse4" digests
    # against the same orbits in 50-digit arithmetic.  Worst point error
    # (largest coordinate) while every bounce took gauss_inverse of its
    # direction: 4.58e-14 (ellipse) and 1.50e-13 (Superellipse(4)), the
    # bounds; with T's chord end carried and moved onto dT by one Newton
    # step: 2.15e-15 and 7.89e-14.  An orbit amplifies its early errors
    # (the worst one 20-fold between its fourth and fifth bounce)
    mp = pytest.importorskip("mpmath")
    K, T = _billiard_bodies()[K_name], bl.Superellipse(4.0)
    worst = 0.0
    with mp.workdps(50):
        for line in _billiard_lines(3, 21):
            orbit = bl.iterate_t_billiard(K, T, line, 6)
            assert orbit.status == "ok"
            exact = _mp_superellipse_t_orbit(mp, K_name, line, 6)
            worst = max(worst, max(float(abs(mp.mpf(float(a)) - b))
                                   for q, r in zip(orbit.points, exact) for a, b in zip(q, r)))
    assert worst <= bound


@pytest.mark.parametrize("name", ["ellipse", "superellipse4_polar", "ellipsoid3"])
def test_orbits_of_a_solve_are_those_of_a_fresh_evaluation(name):
    # the orbits are read from the state the system kept at each polygon's
    # last evaluation; a polygon whose last evaluation was a rejected step
    # (one of the superellipse4_polar seeds) is evaluated again at its end
    K = _symmetric_bodies()[name]
    T = bl.polar_dual(K)
    points = dynamics._seed_polygons(K, 3, 4, seed=0)
    x, orbits = dynamics._solve_seeds(K, T, points)
    every = np.arange(len(points))
    fresh = dynamics._StationaritySystem(K, T, dynamics._seed_charts(points)[0], len(points), 3)
    fresh.evaluate(x, every)
    defects = fresh.reflection_defect(every)
    for s, orbit in enumerate(orbits):
        assert orbit.points.tobytes() == fresh.q[s].tobytes(), s
        assert orbit.stationarity == defects[s], s


def test_repeated_searches_are_bit_identical():
    K = _symmetric_bodies()["ellipsoid3"]
    T = bl.polar_dual(K)
    first = bl.closed_orbit_search(K, T, 4, multistarts=4)
    for _ in range(50):
        orbit = bl.closed_orbit_search(K, T, 4, multistarts=4)
        assert np.array_equal(orbit.points, first.points)
        assert (orbit.action, orbit.stationarity) == (first.action, first.stationarity)


# ---------------------------------------------------------------------------
# closed_orbit_search: 2-bounce orbits by the difference-body reduction
# ---------------------------------------------------------------------------

def _ellipsoid_pairs(seed, dim, count):
    """Pairs K = A B, T = C B of ellipsoids (B the unit ball, A and C
    standard normal + 2 I) with their capacity 4 sigma_min(C^T A)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        A = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        C = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        yield (bl.Ellipsoid(np.linalg.inv(A @ A.T)), bl.Ellipsoid(np.linalg.inv(C @ C.T)),
               4.0 * np.linalg.svd(C.T @ A, compute_uv=False).min())


@pytest.mark.parametrize("seed, dim, count", [(3, 2, 20), (5, 3, 10)], ids=["plane", "space"])
def test_capacity_of_ellipsoid_pairs_is_exact(seed, dim, count):
    # c(A B x C B) = 4 sigma_min(C^T A), attained by a 2-bounce orbit; the
    # multistart 2-gons missed 5 of the planar pairs (17.33 for 2.129 on
    # the second) and read 29.497 for 1.5725 on the first spatial pair
    for i, (K, T, exact) in enumerate(_ellipsoid_pairs(seed, dim, count)):
        report = bl.capacity_estimate(K, T, dim + 1, multistarts=4)
        assert abs(report.value - exact) <= 1e-10, i


@pytest.mark.parametrize("K, bound", [
    (bl.Ball(), 4.756828460010884),
    (bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]), 4.792441731591636),
    (bl.Ball(1.0, dim=3), 4.756828460010884),
], ids=["disk", "radial", "ball3"])
def test_two_bounce_orbit_against_flat_normals_of_T_no_worse(K, bound):
    # the least 2-gons of K x Superellipse(4) run along T's flat normals,
    # where the reflection defect cannot certify; the fallback to the
    # multistart 2-gons keeps the certified diagonal orbit.  In space that
    # orbit certifies with a defect of 1.80e-8 against the gate 2e-8, so a
    # change to the solver's iterates can lose it (to 5.2643)
    orbit = bl.closed_orbit_search(K, bl.Superellipse(4.0, dim=K.dim), 2, multistarts=8)
    assert orbit.status == "ok"
    assert orbit.action <= bound


def test_two_bounce_orbit_of_disk_and_polar_superellipse():
    # c(disk x B_4) = 4 min |x|_4 over the unit circle = 4 * 2^(-1/4), on
    # the diagonal 2-gon: 2^(-1/4) Superellipse(4) lies in the disk
    orbit = bl.closed_orbit_search(bl.Ball(), bl.polar_dual(bl.Superellipse(4.0)), 2,
                                   multistarts=4)
    assert orbit.status == "ok"
    assert abs(orbit.action - 4.0 * 2.0 ** -0.25) <= 1e-12
    assert np.allclose(abs(orbit.points), math.sqrt(0.5), atol=1e-12)


def _count_solves_and_evaluations(monkeypatch):
    """Lists that collect the nfev of every solve and the polygon count of
    every evaluation of a stationarity system."""
    solves, evaluations = [], []

    def counted(fun, x0, max_nfev):
        solution = levenberg_marquardt(fun, x0, max_nfev)
        solves.append(solution.nfev)
        return solution

    evaluate = dynamics._StationaritySystem.evaluate

    def counted_evaluate(system, x, rows):
        evaluations.append(len(rows))
        return evaluate(system, x, rows)

    monkeypatch.setattr(dynamics, "least_squares", counted)
    monkeypatch.setattr(dynamics._StationaritySystem, "evaluate", counted_evaluate)
    return solves, evaluations


@pytest.mark.parametrize("name", ["disk"] + sorted(_symmetric_bodies()))
def test_two_bounce_search_of_body_times_polar_takes_one_evaluation(name, monkeypatch):
    # every 2-gon through the center of K x K polar is stationary, so the
    # scanned seeds need one Levenberg-Marquardt evaluation each, the
    # multistart fallback never runs, and the orbits come from the state of
    # that evaluation, with no evaluation after the solve
    solves, evaluations = _count_solves_and_evaluations(monkeypatch)
    K = bl.Ball() if name == "disk" else _symmetric_bodies()[name]
    orbit = bl.closed_orbit_search(K, bl.polar_dual(K), 2)
    assert orbit.status == "ok"
    assert abs(orbit.action - 4.0) <= 1e-12
    assert len(solves) == 1
    assert solves[0].tolist() == [1] * 32
    assert evaluations == [32]


def test_three_bounce_search_evaluates_once_per_solver_iteration(monkeypatch):
    # each iteration evaluates the polygons still searching once, and the
    # orbits are read from the last evaluation of each polygon
    solves, evaluations = _count_solves_and_evaluations(monkeypatch)
    K = _symmetric_bodies()["ellipse"]
    orbit = bl.closed_orbit_search(K, bl.polar_dual(K), 3, multistarts=4)
    assert orbit.status == "ok"
    assert len(solves) == 1
    assert len(evaluations) == solves[0].max() == 7
    assert evaluations[0] == 4


@pytest.mark.parametrize("multistarts", [0, -2])
@pytest.mark.parametrize("entry", ["closed_orbit_search", "capacity_estimate"])
def test_multistarts_below_one_raise_before_any_solve(entry, multistarts, disk, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved without a seed")

    monkeypatch.setattr(dynamics, "least_squares", refuse)
    with pytest.raises(DomainError, match="multistarts must be at least 1"):
        getattr(bl, entry)(disk, disk, 2, multistarts=multistarts)


@pytest.mark.parametrize("K", [bl.Ball(), bl.Ball(dim=3)], ids=["plane", "space"])
def test_capacity_estimate_caps_bounces_at_n_plus_one(K):
    report = bl.capacity_estimate(K, K, multistarts=2)
    assert [row[0] for row in report.table] == list(range(2, K.dim + 2))
    assert abs(report.value - 4.0) <= 1e-12
