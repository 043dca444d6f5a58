"""Cross-ratios, projective involution fitting, deviation asymptotics."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import billiardlab as bl
from billiardlab import projectivity
from billiardlab.errors import (
    DegenerateDataError,
    DomainError,
    IndistinguishableError,
    PrecisionError,
    SamplePlanError,
)
from billiardlab.jets import dyadic_grid
from billiardlab.osculation import germ_at


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# cross_ratio
# ---------------------------------------------------------------------------

def test_cross_ratio_normalization():
    assert abs(bl.cross_ratio(0.0, 1.0, 2.0, np.inf) - 2.0) < 1e-14


def test_cross_ratio_harmonic():
    assert abs(bl.cross_ratio(-1.0, 1.0, 0.0, np.inf) + 1.0) < 1e-14


def test_cross_ratio_collinear_points_match_chart():
    base = np.array([0.3, -0.2])
    direction = unit([2.0, 1.0])
    ts = [0.0, 1.0, 2.0, 5.0]
    pts = [base + t * direction for t in ts]
    expect = bl.cross_ratio(*ts)
    assert abs(bl.cross_ratio(*pts) - expect) < 1e-12


def test_cross_ratio_rejects_noncollinear():
    with pytest.raises(DomainError):
        bl.cross_ratio(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                       np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_cross_ratio_rejects_coincident():
    with pytest.raises(DegenerateDataError):
        bl.cross_ratio(0.0, 1.0, 1.0, 0.0)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_cross_ratio_projective_invariance(seed):
    rng = np.random.default_rng(seed)
    while True:
        M = rng.normal(size=(2, 2))
        if abs(np.linalg.det(M)) > 0.1:
            break
    quad = rng.normal(size=(4, 2))
    # ensure pairwise distinct directions
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(quad[i, 0] * quad[j, 1] - quad[i, 1] * quad[j, 0]) < 1e-2:
                return
    before = bl.cross_ratio_rp1(quad)
    after = bl.cross_ratio_rp1([M @ q for q in quad])
    assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


# ---------------------------------------------------------------------------
# ProjectiveMap
# ---------------------------------------------------------------------------

def test_harmonic_homology_structure():
    P = np.array([0.2, 0.4, 1.0])
    m = np.array([1.0, 0.0, 0.0])
    f = bl.ProjectiveMap.harmonic_homology(P, m)
    assert f.involution_defect() <= 1e-12
    # axis fixed pointwise
    for x in (np.array([0.0, 1.0, 0.3]), np.array([0.0, -0.2, 1.0])):
        assert bl.rp_distance(f.apply(x), x) <= 1e-12
    assert bl.rp_distance(f.apply(P), P) <= 1e-12


# ---------------------------------------------------------------------------
# projectivity_residual
# ---------------------------------------------------------------------------

def test_residual_vanishes_for_ellipses(ellipse, ellipse_rot):
    rng = np.random.default_rng(30)
    plan = bl.SamplePlan(patch_scale=0.3, n_quadruples=30, seed=31)
    for body in (ellipse, ellipse_rot):
        for _ in range(6):
            d = unit(rng.normal(size=2))
            f = bl.SphereInvolutionSampler.from_parallel_chord(body, d)
            assert bl.projectivity_residual(f, plan) <= 1e-7


def test_residual_vanishes_for_conic_germ():
    # unbounded quadric branch: hyperbola-type conic through the origin
    conic = bl.ConicQuadric(np.array([
        [1.0, 0.15, 0.0],
        [0.15, -0.2, -0.5],
        [0.0, -0.5, 0.0],
    ]))
    # indefinite quadratic part: an unbounded conic
    assert np.linalg.det(conic.matrix[:2, :2]) < 0
    branch = bl.ConicGraphBranch(conic)
    f = bl.SphereInvolutionSampler.from_planar_curve(branch)
    plan = bl.SamplePlan(patch_scale=0.25, n_quadruples=30, seed=32)
    assert bl.projectivity_residual(f, plan) <= 1e-7


def test_residual_positive_for_superellipse(superellipse):
    # thresholds recorded in tests/fixtures/projectivity_thresholds.json
    plan = bl.SamplePlan(patch_scale=0.3, n_quadruples=40, seed=7)
    for ang in (0.5, 1.1):
        d = np.array([math.cos(ang), math.sin(ang)])
        f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, d)
        assert bl.projectivity_residual(f, plan) >= 1e-3


def test_residual_plan_validation(superellipse):
    f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, [0.0, 1.0])
    with pytest.raises(SamplePlanError):
        bl.projectivity_residual(f, bl.SamplePlan(n_quadruples=0))
    # angles beyond a quarter turn wrap the circle; the 3D patch takes tan
    for scale in (0.0, -0.3, 0.5 * math.pi, 5.0, math.nan):
        with pytest.raises(SamplePlanError):
            bl.projectivity_residual(f, bl.SamplePlan(patch_scale=scale))


def test_an_answering_sampler_maps_any_other_rows_live(superellipse):
    f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, [0.6, 0.8])
    rows = projectivity.residual_directions(f, bl.SamplePlan(n_quadruples=2, seed=4))
    known = np.full(rows.shape, 7.0)  # not the involution: shows where answers come from
    g = f.answering(rows, known)
    assert np.array_equal(g(rows), known) and g(rows) is not known
    for other in (rows[::-1], rows[:-1], rows[0]):
        assert np.array_equal(g(other), f(other))
    assert g.fixed_vector is f.fixed_vector and g.axis_normal is f.axis_normal


@pytest.mark.parametrize("body", [bl.Superellipse(4.0), bl.Superellipse(4.0, dim=3)],
                         ids=["planar", "3d"])
def test_a_plan_keeps_its_last_draw(body):
    # a batch draws a class's rows, then its residual maps them: the plan
    # answers the second draw for the same fixed vector with the same array
    d1, d2 = np.eye(body.dim)[:2]
    f = bl.SphereInvolutionSampler.from_parallel_chord(body, d1)
    g = bl.SphereInvolutionSampler.from_parallel_chord(body, d2)
    plan = bl.SamplePlan(seed=3)
    first = projectivity.residual_directions(f, plan)
    assert projectivity.residual_directions(f, plan) is first
    assert not first.flags.writeable
    other = projectivity.residual_directions(g, plan)
    assert not np.array_equal(other, first)
    again = projectivity.residual_directions(f, plan)
    assert again is not first and again.tobytes() == first.tobytes()
    fresh = bl.SamplePlan(seed=3)
    assert plan == fresh and hash(plan) == hash(fresh) and repr(plan) == repr(fresh)
    assert bl.projectivity_residual(f, plan) == bl.projectivity_residual(f, fresh)


def quadruples_one_at_a_time(rng, scale, count):
    # the per-quadruple loop that the block draw replaced, as its oracle
    def one():
        for _ in range(200):
            t = np.sort(rng.uniform(-scale, scale, size=4))
            if np.min(np.diff(t)) >= projectivity.QUADRUPLE_MIN_SEPARATION * 2.0 * scale / 4.0:
                return t
        raise SamplePlanError("could not sample a separated quadruple")

    return np.array([one() for _ in range(count)])


@pytest.mark.parametrize("seed", [0, 7, 1011])
@pytest.mark.parametrize("count", [1, 20, 40, 200])
@pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 1.5])
def test_block_draw_keeps_the_quadruples_of_one_draw_at_a_time(seed, count, scale):
    block = projectivity._separated_quadruples(np.random.default_rng(seed), scale, count)
    oracle = quadruples_one_at_a_time(np.random.default_rng(seed), scale, count)
    assert np.array_equal(block, oracle)


def test_block_draw_counts_a_rejection_run_across_blocks(monkeypatch):
    # about 1 draw in 90 is separated enough, so 200 rejections in a row
    # happen on some seeds; a block for three quadruples holds 12 draws,
    # so those runs span many blocks
    monkeypatch.setattr(projectivity, "QUADRUPLE_MIN_SEPARATION", 0.9)
    outcomes = set()
    for seed in range(40):
        try:
            oracle = quadruples_one_at_a_time(np.random.default_rng(seed), 0.3, 3)
        except SamplePlanError:
            with pytest.raises(SamplePlanError):
                projectivity._separated_quadruples(np.random.default_rng(seed), 0.3, 3)
            outcomes.add("raised")
            continue
        block = projectivity._separated_quadruples(np.random.default_rng(seed), 0.3, 3)
        assert np.array_equal(block, oracle)
        outcomes.add("drawn")
    assert outcomes == {"raised", "drawn"}


def quadruples_block_loop(rng, scale, count):
    # the keep/reject loop over each block that the vectorized selection
    # replaced, as its oracle
    gap = projectivity.QUADRUPLE_MIN_SEPARATION * 2.0 * scale / 4.0
    kept, run = [], 0
    while True:
        block = np.sort(rng.uniform(-scale, scale, size=(4 * count, 4)), axis=1)
        for t, separated in zip(block, np.min(np.diff(block, axis=1), axis=1) >= gap):
            if not separated:
                run += 1
                if run == 200:
                    raise SamplePlanError("could not sample a separated quadruple")
                continue
            kept.append(t)
            if len(kept) == count:
                return np.array(kept)
            run = 0


@pytest.mark.parametrize("separation", [0.15, 0.6, 0.9])
def test_vectorized_selection_keeps_the_rows_of_the_block_loop(separation, monkeypatch):
    # at separation 0.9 about 1 draw in 90 is kept, so some seeds meet 200
    # rejections in a row, across the boundaries of the small blocks
    monkeypatch.setattr(projectivity, "QUADRUPLE_MIN_SEPARATION", separation)
    outcomes = set()
    for seed in range(120):
        count, scale = 1 + seed % 5, (0.05, 0.3, 1.2)[seed % 3]
        try:
            oracle = quadruples_block_loop(np.random.default_rng(seed), scale, count)
        except SamplePlanError:
            with pytest.raises(SamplePlanError):
                projectivity._separated_quadruples(np.random.default_rng(seed), scale, count)
            outcomes.add("raised")
            continue
        kept = projectivity._separated_quadruples(np.random.default_rng(seed), scale, count)
        assert kept.tobytes() == oracle.tobytes(), seed
        outcomes.add("kept")
    assert outcomes == ({"raised", "kept"} if separation == 0.9 else {"kept"})


class DrawStream:
    """Stands in for a Generator: uniform() hands out a fixed stream of
    draws in whatever block shape is asked for."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float).ravel()
        self.at = 0

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        self.at += n
        return self.draws[self.at - n:self.at].reshape(size)


@pytest.mark.parametrize("count", [2, 40])
@pytest.mark.parametrize("rejected", [199, 200])
def test_block_draw_raises_on_the_200th_rejection_in_a_row(count, rejected):
    # after a kept draw, a separated draw that follows 199 rejected ones
    # is kept, and one that follows 200 is not
    separated = [-0.9, -0.3, 0.3, 0.9]
    stream = np.concatenate([[separated], np.zeros((rejected, 4)),
                             np.tile(separated, (8 * count, 1))])
    if rejected < 200:
        expected = quadruples_one_at_a_time(DrawStream(stream), 1.0, count)
        block = projectivity._separated_quadruples(DrawStream(stream), 1.0, count)
        assert np.array_equal(block, expected)
    else:
        for draw in (quadruples_one_at_a_time, projectivity._separated_quadruples):
            with pytest.raises(SamplePlanError):
                draw(DrawStream(stream), 1.0, count)


def test_residual_raises_when_no_quadruple_is_separated(superellipse, monkeypatch):
    # three gaps of 1.4 quarter widths do not fit in the patch; the blocks
    # of 160 draws are shorter than the 200 rejections that end the search
    monkeypatch.setattr(projectivity, "QUADRUPLE_MIN_SEPARATION", 1.4)
    drawn = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, low, high, size):
            drawn.append(size[0])
            if sum(drawn) > 10_000:
                raise AssertionError("the draw does not stop")
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, [0.0, 1.0])
    with pytest.raises(SamplePlanError):
        bl.projectivity_residual(f, bl.SamplePlan(n_quadruples=40))
    assert drawn == [160, 160]


def test_fitted_involution_squares_to_identity(ellipsoid3):
    rng = np.random.default_rng(33)
    d = unit(rng.normal(size=3))
    f = bl.SphereInvolutionSampler.from_parallel_chord(ellipsoid3, d)
    pairs = []
    frame = bl.bodies.tangent_frame(f.fixed_vector)
    for _ in range(30):
        t = rng.uniform(-0.3, 0.3, size=2)
        u = unit(f.fixed_vector + frame.T @ t)
        pairs.append((u, f(u)))
    model, residual = bl.fit_projective_involution(pairs, d)
    assert residual <= 1e-7
    assert model.involution_defect() <= 1e-8


# ---------------------------------------------------------------------------
# fit_projective_involution
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_homology():
    rng = np.random.default_rng(34)
    m = unit([0.3, -0.2, 1.0])
    P = unit([1.0, 0.5, 0.1])
    truth = bl.ProjectiveMap.harmonic_homology(P, m)
    pairs = []
    for _ in range(12):
        u = unit(rng.normal(size=3))
        pairs.append((u, truth.apply(u)))
    model, residual = bl.fit_projective_involution(pairs, m)
    assert residual <= 1e-10
    assert bl.rp_distance(model.center, P) <= 1e-8


def test_fit_center_of_ellipsoid_involution_is_matrix_times_direction(ellipsoid3):
    # derived from the chord construction: the homology center is [A d]
    rng = np.random.default_rng(35)
    d = unit(rng.normal(size=3))
    f = bl.SphereInvolutionSampler.from_parallel_chord(ellipsoid3, d)
    frame = bl.bodies.tangent_frame(f.fixed_vector)
    pairs = []
    for _ in range(25):
        t = rng.uniform(-0.3, 0.3, size=2)
        u = unit(f.fixed_vector + frame.T @ t)
        pairs.append((u, f(u)))
    model, residual = bl.fit_projective_involution(pairs, d)
    assert residual <= 1e-7
    assert bl.rp_distance(model.center, ellipsoid3.A @ d) <= 1e-7


def test_fit_large_residual_for_superellipsoid(superellipsoid3):
    rng = np.random.default_rng(36)
    d = unit(rng.normal(size=3))
    f = bl.SphereInvolutionSampler.from_parallel_chord(superellipsoid3, d)
    plan = bl.SamplePlan(patch_scale=0.3, n_points=60, seed=37)
    assert bl.projectivity_residual(f, plan) >= 1e-3


def test_fit_rejects_rank_deficient_data():
    m = np.array([1.0, 0.0, 0.0])
    u = unit([0.0, 1.0, 0.2])
    with pytest.raises(DegenerateDataError):
        bl.fit_projective_involution([(u, u), (u, u), (u, u)], m)


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
QUADRIC_CLASSES = ("ellipsoid3",)


@pytest.fixture(scope="module")
def projtest_fits(tmp_path_factory):
    """(class, pairs, axis normal) of the four 3D homology fits that one
    pass of the benchmark's seed-1 projtest workload makes: two ellipsoid
    classes, two of Superellipse(4) in space."""
    fits = []
    fit = bl.projectivity.fit_projective_involution
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        import workloads

        spec = workloads.make_spec("projtest", 1)
        workload = workloads.make_workload(spec, workloads.build_bodies(spec),
                                           tmp_path_factory.mktemp("projtest"))
        for op, run in zip(workload.ops, workload.inputs):
            if run.get("body") not in ("ellipsoid3", "se3d"):
                continue

            def record(pairs, axis_normal, body=run["body"]):
                fits.append((body, np.array(pairs), np.array(axis_normal)))
                return fit(pairs, axis_normal)

            mp.setattr(bl.projectivity, "fit_projective_involution", record)
            op.run()
    assert [name for name, _, _ in fits] == ["ellipsoid3"] * 2 + ["se3d"] * 2
    return fits


def minpack_homology_fit(pairs, axis_normal):
    """The homology fit as MINPACK's Levenberg-Marquardt (scipy) finds it:
    sin theta_i over the raw center P, finite-difference Jacobians, from
    the linear center.  Returns (unit center, rms)."""
    optimize = pytest.importorskip("scipy.optimize")
    m = unit(axis_normal)
    us, vs = pairs[:, 0], pairs[:, 1]
    U, V = us / np.linalg.norm(us, axis=1)[:, None], vs / np.linalg.norm(vs, axis=1)[:, None]
    span = np.linalg.qr(np.stack([U, V], axis=-1))[0]
    Q = np.sum(np.eye(3) - span @ np.swapaxes(span, -1, -2), axis=0)
    center0 = np.linalg.eigh(Q)[1][:, 0]

    def residuals(P):
        model = bl.ProjectiveMap.harmonic_homology(P, m)
        return np.sin(bl.rp_distance(model.apply(us), vs))

    sol = optimize.least_squares(residuals, center0, method="lm", xtol=1e-15, ftol=1e-15)
    return unit(sol.x), math.sqrt(np.mean(sol.fun ** 2))


def test_homology_fit_agrees_with_minpack(projtest_fits):
    # quadric classes: both fits end at round-off, where only the centers
    # compare; Superellipse(4) classes: the minimum is flat at a nonzero
    # residual, so the rms agrees far more closely than the center
    for name, pairs, m in projtest_fits:
        model, rms = bl.fit_projective_involution(pairs, m)
        center, ref_rms = minpack_homology_fit(pairs, m)
        if name in QUADRIC_CLASSES:
            assert max(rms, ref_rms) <= 1e-14
            assert bl.rp_distance(model.center, center) <= 1e-10
        else:
            assert abs(rms - ref_rms) <= 1e-12 * ref_rms
            assert bl.rp_distance(model.center, center) <= 1e-7


def test_homology_fit_evaluations_do_not_move_with_last_bits(projtest_fits, monkeypatch):
    counts = []
    solve = bl.projectivity.least_squares

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts.append(int(sol.nfev[0]))
        return sol

    monkeypatch.setattr(bl.projectivity, "least_squares", counted)
    rng = np.random.default_rng(38)
    for _, pairs, m in projtest_fits:
        bl.fit_projective_involution(pairs, m)
        assert counts[-1] <= 14
        draws = []
        for _ in range(10):
            moved = pairs + rng.integers(-4, 5, size=pairs.shape) * np.spacing(pairs)
            bl.fit_projective_involution(moved, m)
            draws.append(counts[-1])
        assert max(draws) - min(draws) <= 1, draws


# ---------------------------------------------------------------------------
# two_jet_at_fixed_point
# ---------------------------------------------------------------------------

def test_two_jet_of_mobius_normal_form():
    c = 0.37
    a1, a2 = bl.two_jet_at_fixed_point(lambda t: -t / (1.0 + c * t))
    assert abs(a1 + 1.0) <= 1e-6
    assert abs(a2 - c) <= 1e-6


def test_two_jet_of_linear_involution():
    a1, a2 = bl.two_jet_at_fixed_point(lambda t: -t)
    assert abs(a1 + 1.0) <= 1e-12
    assert abs(a2) <= 1e-10


def test_two_jet_of_circle_chord_involution(disk):
    f = bl.SphereInvolutionSampler.from_parallel_chord(disk, [0.0, 1.0])
    a1, a2 = bl.two_jet_at_fixed_point(f)
    assert abs(a1 + 1.0) <= 1e-6
    assert abs(a2) <= 1e-8


def test_two_jet_precision_error_on_noise():
    def noisy(t):
        return -t + 1e-5 * math.sin(1.0 / (abs(t) + 1e-7))

    with pytest.raises(PrecisionError):
        bl.two_jet_at_fixed_point(noisy)


# ---------------------------------------------------------------------------
# deviation_exponent
# ---------------------------------------------------------------------------

def test_deviation_perturbed_parabola_chain():
    # the three chained asymptotics of the quintic perturbation
    for c in (1e-2, -1e-2, 1e-3):
        alpha = bl.PlanarGerm([0, 0, 0.5, 0, 0, c])
        gamma = bl.PlanarGerm([0, 0, 0.5])
        f = bl.SphereInvolutionSampler.from_planar_curve(alpha)
        g = bl.SphereInvolutionSampler.from_planar_curve(gamma)
        k, C = bl.deviation_exponent(f, g, dyadic_grid(4, 12))
        assert 3.8 <= k <= 4.2
        assert abs(C - 8.0 * c) <= 0.1 * abs(8.0 * c)


def test_deviation_identical_maps_indistinguishable(ellipse):
    f = bl.SphereInvolutionSampler.from_parallel_chord(ellipse, [0.0, 1.0])
    g = bl.SphereInvolutionSampler.from_parallel_chord(ellipse, [0.0, 1.0])
    with pytest.raises(IndistinguishableError):
        bl.deviation_exponent(f, g, dyadic_grid(4, 12))


def test_deviation_distinct_projective_involutions_quadratic():
    c = 0.37
    k, C = bl.deviation_exponent(lambda t: -t, lambda t: -t / (1.0 + c * t),
                                 dyadic_grid(4, 12))
    assert abs(k - 2.0) <= 0.1
    assert abs(abs(C) - c) <= 0.1 * c


def test_deviation_fit_stops_at_the_noise_floor():
    # for this Superellipse(3.5) class the chord solver's noise floor
    # (about 1e-12) is reached at t = 2^-10; fitting the points beyond
    # it read 2.7-3.0 instead of the fourth-order law
    from billiardlab.cli import _conic_deviation_fit, _conic_twin
    d = [0.831680156322, 0.555255002301]
    body = bl.Superellipse(3.5)
    sampler = bl.SphereInvolutionSampler.from_parallel_chord(body, d)
    k, _ = _conic_deviation_fit(sampler, _conic_twin(body, sampler), dyadic_grid(4, 12))
    assert abs(k - 4.0) <= 0.2


def test_deviation_exponent_invariant_under_chart_rescale():
    c = 1e-2
    alpha = bl.PlanarGerm([0, 0, 0.5, 0, 0, c])
    gamma = bl.PlanarGerm([0, 0, 0.5])
    f = bl.SphereInvolutionSampler.from_planar_curve(alpha).chart_map()
    g = bl.SphereInvolutionSampler.from_planar_curve(gamma).chart_map()
    k1, _ = bl.deviation_exponent(f, g, dyadic_grid(4, 11))
    lam = 2.0
    f2 = lambda t: lam * f(t / lam)
    g2 = lambda t: lam * g(t / lam)
    k2, _ = bl.deviation_exponent(f2, g2, dyadic_grid(4, 11))
    assert abs(k1 - k2) <= 1e-3


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_sampler_involution_property(superellipse):
    rng = np.random.default_rng(38)
    d = unit([math.cos(0.5), math.sin(0.5)])
    f = bl.SphereInvolutionSampler.from_parallel_chord(superellipse, d)
    for _ in range(25):
        t = rng.uniform(-0.3, 0.3)
        u = unit(f.fixed_vector + t * bl.bodies.rot90(f.fixed_vector))
        assert np.linalg.norm(f(f(u)) - u) <= 1e-9


OSCULATED_BODIES = {
    "superellipse4": bl.Superellipse(4.0),
    "superellipse3.5": bl.Superellipse(3.5),
    "ellipse": bl.Ellipsoid(np.diag([0.25, 1.0])),
    "radial": bl.RadialBody2D([1.0, 0.0, 0.08, 0.0, 0.02]),
}


def osculating_branches(body):
    return [bl.ConicGraphBranch(bl.osculating_conic(germ_at(body, theta)))
            for theta in np.linspace(0.1, 0.1 + 2.0 * math.pi, 7, endpoint=False)]


@pytest.mark.parametrize("name", sorted(OSCULATED_BODIES))
def test_closed_form_conic_twin_matches_the_root_solved_one(name):
    grid = dyadic_grid(4, 12)
    for branch in osculating_branches(OSCULATED_BODIES[name]):
        twin = bl.SphereInvolutionSampler.from_conic_branch(branch)
        assert np.array_equal(twin.fixed_vector, [0.0, 1.0])
        solved = bl.SphereInvolutionSampler.from_planar_curve(branch).chart_map()(grid)
        closed = twin.chart_map()(grid)
        assert np.max(np.abs(closed - solved) / np.abs(solved)) <= 1e-15


@pytest.mark.parametrize("name", sorted(OSCULATED_BODIES))
def test_closed_form_conic_twin_against_50_digits(name):
    # the partner slope of t is -t / (1 + 2 c t), c = a_xy / a_xx
    mp = pytest.importorskip("mpmath")
    grid = dyadic_grid(4, 12)
    for branch in osculating_branches(OSCULATED_BODIES[name]):
        closed = bl.SphereInvolutionSampler.from_conic_branch(branch).chart_map()(grid)
        with mp.workdps(50):
            c = mp.mpf(branch.axy) / mp.mpf(branch.axx)
            exact = np.array([float(-mp.mpf(t) / (1 + 2 * c * mp.mpf(t))) for t in grid])
        assert np.max(np.abs(closed - exact) / np.abs(exact)) <= 4.5e-16


def test_conic_twin_needs_a_quadratic_term_in_x():
    # a x^2 + b xy + c y^2 - y = 0 with a = 0 is the line pair y (b x + c y - 1) = 0
    branch = bl.ConicGraphBranch(bl.conic_from_graph_coefficients(0.0, 0.5, 0.2))
    with pytest.raises(DegenerateDataError):
        bl.SphereInvolutionSampler.from_conic_branch(branch)
