"""Row forms: (N, d) arrays through the body queries, the generic chord
solve, the parallel-chord involution, its samplers, their charts and the
projectivity residual."""

import math

import numpy as np
import pytest

import billiardlab as bl
from billiardlab.errors import DegenerateChordError
from billiardlab.jets import dyadic_grid, fit_power_law

# the row path and the one-vector calls agree to a few ulp
ROW_TOL = 1e-15

FAMILIES = {
    "ellipse": lambda: bl.Ellipsoid(np.array([[1.7, 0.3], [0.3, 0.9]])),
    "ellipsoid3": lambda: bl.Ellipsoid(np.diag([0.25, 1.0, 0.5])),
    "superellipse4": lambda: bl.Superellipse(4.0),
    "superellipse4_3d": lambda: bl.Superellipse(4.0, dim=3),
    "superellipse3.5": lambda: bl.Superellipse(3.5),
    "radial": lambda: bl.RadialBody2D([1.0, 0.0, 0.08, 0.02], [0.0, 0.0, 0.0, 0.02]),
    "support": lambda: bl.SupportBody2D([1.0, 0.0, 0.05], [0.0, 0.0, 0.02]),
    "polar_radial": lambda: bl.PolarBody(bl.RadialBody2D([1.0, 0.0, 0.08, 0.02],
                                                         [0.0, 0.0, 0.0, 0.02])),
    "linear_image": lambda: bl.LinearImageBody(bl.Superellipse(4.0),
                                               [[1.1, 0.25], [0.05, 0.9]]),
    # reciprocal-series bodies: the support body 1/r and the radial body 1/h
    "polar_dual_radial": lambda: bl.polar_dual(FAMILIES["radial"]()),
    "polar_dual_support": lambda: bl.polar_dual(FAMILIES["support"]()),
}


def assert_rows_match(rows, singles):
    singles = np.asarray(singles, dtype=float)
    assert rows.shape == singles.shape
    assert np.max(np.abs(rows - singles)) <= ROW_TOL * np.max(np.abs(singles))


def unit_rows(rng, n, dim):
    U = rng.normal(size=(n, dim))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_body_row_forms_match_one_vector_calls(name):
    body = FAMILIES[name]()
    rng = np.random.default_rng(21)
    U = unit_rows(rng, 30, body.dim)
    P = body.gauss_inverse(U)
    assert_rows_match(P, [body.gauss_inverse(u) for u in U])
    assert_rows_match(body.exterior_normal(P), [body.exterior_normal(p) for p in P])
    assert_rows_match(body.support(U), [body.support(u) for u in U])
    assert_rows_match(body.implicit_grad(P), [body.implicit_grad(p) for p in P])
    assert_rows_match(body.implicit_hess(P), [body.implicit_hess(p) for p in P])
    assert_rows_match(body.support_hess(U), [body.support_hess(u) for u in U])
    assert_rows_match(body.gauge_hess(U), [body.gauge_hess(u) for u in U])
    d = bl.ParallelClass(rng.normal(size=body.dim)).direction
    B, tangential = body.chord_second_intersections(P, d)
    singles = []
    for p in P:
        try:
            singles.append(body.chord_second_intersection(p, d))
        except DegenerateChordError:
            singles.append(p)
    assert_rows_match(B, singles)
    assert not tangential.any()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_exit_and_chord_rows_keep_their_one_vector_bits(name):
    # every body's own exit (and the generic exit), from boundary points
    # along entering directions and from interior points, and the chords
    body = FAMILIES[name]()
    rng = np.random.default_rng(28)
    P = body.gauss_inverse(unit_rows(rng, 40, body.dim))
    V = unit_rows(rng, 40, body.dim)
    V *= np.where(np.sum(body.implicit_grad(P) * V, axis=1) > 0.0, -1.0, 1.0)[:, None]
    t = body._exit(P, V, -1.0)
    assert np.array_equal(t, [body._exit(p, v, -1.0) for p, v in zip(P, V)])
    X = 0.5 * P
    f = float(body.implicit(X[0]))
    t = body._exit(X, V, f)
    assert np.array_equal(t, [body._exit(x, v, f) for x, v in zip(X, V)])
    B, _ = body.chord_second_intersections(P, V)
    assert np.array_equal(B, [body.chord_second_intersection(p, v) for p, v in zip(P, V)])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_involution_and_sampler_rows_match_one_vector_calls(name):
    body = FAMILIES[name]()
    rng = np.random.default_rng(22)
    U = unit_rows(rng, 30, body.dim)
    cls = bl.ParallelClass(rng.normal(size=body.dim))
    V = bl.parallel_chord_involution(body, cls, U)
    assert_rows_match(V, [bl.parallel_chord_involution(body, cls, u) for u in U])
    sampler = bl.SphereInvolutionSampler.from_parallel_chord(body, cls)
    assert_rows_match(sampler(U), [sampler(u) for u in U])
    assert_rows_match(sampler(U), V)


@pytest.mark.parametrize("body", [bl.Ball(1.0), bl.Superellipse(4.0), bl.Superellipse(3.5)],
                         ids=["disk", "superellipse4", "superellipse3.5"])
def test_tangential_rows_map_to_themselves(body):
    cls = bl.ParallelClass([1.0, 1.0])
    orthogonal = np.array([1.0, -1.0]) / math.sqrt(2.0)
    tangential = orthogonal + 1e-10 * cls.direction
    tangential /= np.linalg.norm(tangential)
    regular = np.array([0.6, 0.8])
    U = np.array([regular, tangential, orthogonal, -regular])
    with pytest.raises(DegenerateChordError):
        bl.parallel_chord_involution(body, cls, tangential)
    sampler = bl.SphereInvolutionSampler.from_parallel_chord(body, cls)
    V = sampler(U)
    # fixed rows come back as their input, normalized once more
    assert np.max(np.abs(V[1] - tangential)) <= ROW_TOL
    assert np.max(np.abs(V[2] - orthogonal)) <= ROW_TOL
    assert np.array_equal(sampler(tangential), V[1])
    # these bodies are symmetric under the mirror (x, y) -> (-y, -x), which
    # maps each chord of the class onto itself
    for k in (0, 3):
        assert np.linalg.norm(V[k] + U[k][::-1]) <= 1e-12
        assert np.array_equal(V[k], bl.parallel_chord_involution(body, cls, U[k]))


def counted(sampler):
    calls = []

    def func(U):
        calls.append(U.shape)
        return sampler.func(U)

    wrapped = bl.SphereInvolutionSampler(func, sampler.fixed_vector, sampler.dim,
                                         axis_normal=sampler.axis_normal)
    return wrapped, calls


@pytest.mark.parametrize("body, d", [(bl.Superellipse(4.0), [0.3, 1.0]),
                                     (bl.Ellipsoid(np.diag([0.25, 1.0, 0.5])),
                                      [0.2, 0.5, 1.0])], ids=["2d", "3d"])
def test_projectivity_residual_evaluates_its_sampler_once(body, d):
    sampler = bl.SphereInvolutionSampler.from_parallel_chord(body, d)
    wrapped, calls = counted(sampler)
    plan = bl.SamplePlan(patch_scale=0.3, n_quadruples=40, n_points=60, seed=4)
    residual = bl.projectivity_residual(wrapped, plan)
    rows = 4 * plan.n_quadruples if body.dim == 2 else plan.n_points
    assert calls == [(rows, body.dim)]
    assert residual == bl.projectivity_residual(sampler, plan)


GENERIC_CHORD_BODIES = {
    "radial": FAMILIES["radial"],
    "support": FAMILIES["support"],
    "polar_radial": FAMILIES["polar_radial"],
    "superellipse4": FAMILIES["superellipse4"],
    "superellipse4_3d": FAMILIES["superellipse4_3d"],
    "linear_image": FAMILIES["linear_image"],
    "superellipse3.5": lambda: bl.Superellipse(3.5),
    "superellipse3": lambda: bl.Superellipse(3.0),
    "superellipse3.5_3d": lambda: bl.Superellipse(3.5, dim=3),
    "linear_image3.5": lambda: bl.LinearImageBody(bl.Superellipse(3.5),
                                                  [[1.1, 0.25], [0.05, 0.9]]),
}


@pytest.mark.parametrize("name", sorted(GENERIC_CHORD_BODIES))
def test_generic_row_chords_keep_the_one_chord_bits(name):
    body = GENERIC_CHORD_BODIES[name]()
    rng = np.random.default_rng(24)
    P = body.gauss_inverse(unit_rows(rng, 60, body.dim))
    for d in (bl.ParallelClass(rng.normal(size=body.dim)).direction,
              unit_rows(rng, 60, body.dim)):
        B, tangential = body.chord_second_intersections(P, d)
        D = np.broadcast_to(d, P.shape)
        assert not tangential.any()
        assert np.array_equal(B, [body.chord_second_intersection(p, e) for p, e in zip(P, D)])
    B, tangential = body.chord_second_intersections(P[:0], P[0])
    assert B.shape == (0, body.dim) and tangential.shape == (0,)


def test_generic_row_chords_take_one_march_and_one_root_solve(monkeypatch):
    # 160 Superellipse(3.5) chords cost what the slowest of them costs alone:
    # one boundary check, one value at the padded bounding sphere and the
    # root iterations from the Newton step there.  That is at most 15
    # implicit calls (a chord whose Newton steps meet the noise floor of F
    # stops there instead of bisecting on), against 1,192 when each chord
    # is solved on its own.
    body = bl.Superellipse(3.5)
    P = body.gauss_inverse(unit_rows(np.random.default_rng(25), 160, 2))
    d = [0.8317, 0.5553]
    calls = []
    real = bl.Superellipse.implicit
    monkeypatch.setattr(bl.Superellipse, "implicit",
                        lambda self, x: calls.append(1) or real(self, x))
    alone = []
    for p in P:
        calls.clear()
        body.chord_second_intersection(p, d)
        alone.append(len(calls))
    calls.clear()
    body.chord_second_intersections(P, d)
    assert len(calls) <= max(alone) <= 15


class _GenericExitSuperellipse(bl.Superellipse):
    """A fractional superellipse that takes the base exit from every start."""

    _exit = bl.ConvexBody._exit


def test_base_exit_row_chords_take_one_root_solve(monkeypatch):
    # the generic exit's row form: 160 chords cost what the slowest of them
    # costs alone (a boundary check, the value at the padded bounding sphere
    # and the root iterations from the Newton step there), at most 15
    # implicit calls
    body = _GenericExitSuperellipse(3.5)
    P = body.gauss_inverse(unit_rows(np.random.default_rng(25), 160, 2))
    d = [0.8317, 0.5553]
    calls = []
    real = bl.Superellipse.implicit
    monkeypatch.setattr(bl.Superellipse, "implicit",
                        lambda self, x: calls.append(1) or real(self, x))
    alone = []
    for p in P:
        calls.clear()
        body.chord_second_intersection(p, d)
        alone.append(len(calls))
    calls.clear()
    B, _ = body.chord_second_intersections(P, d)
    assert len(calls) <= max(alone) <= 15
    assert np.max(np.abs(B - bl.Superellipse(3.5).chord_second_intersections(P, d)[0])) <= 1e-12


def test_fractional_row_chords_take_few_kernel_calls(monkeypatch):
    # a boundary start of a fractional superellipse deflates the root at
    # t = 0 and starts at the root of the Taylor model of the deflated sum
    # (or at the kernel's step from the padded bounding sphere), with Halley
    # steps: at most 7 kernel calls per row solve, for the 160 chords along
    # (0.8317, 0.5553) and the 9-row grid of a deviation fit (measured 3 and
    # 2; the generic exit took 12 and 17)
    from billiardlab import bodies
    from billiardlab.cli import _conic_deviation_fit
    solves = []
    real = bodies.find_root

    def counting(f, *args, **kwargs):
        solves.append(0)

        def f_counted(*a):
            solves[-1] += 1
            return f(*a)
        return real(f_counted, *args, **kwargs)

    monkeypatch.setattr(bodies, "find_root", counting)
    body = bl.Superellipse(3.5)
    P = body.gauss_inverse(unit_rows(np.random.default_rng(25), 160, 2))
    body.chord_second_intersections(P, [0.8317, 0.5553])
    assert len(solves) == 1 and solves[0] <= 7
    solves.clear()
    sampler = bl.SphereInvolutionSampler.from_parallel_chord(
        body, [0.831680156322, 0.555255002301])
    _conic_deviation_fit(body, sampler)
    assert len(solves) == 1 and solves[0] <= 7


def test_fractional_exit_rows_mixing_boundary_and_interior_starts():
    # boundary rows take the deflated exit, interior rows the base exit, in
    # one call: each row keeps the bits of its one-vector exit
    body = bl.Superellipse(2.5, dim=3)
    rng = np.random.default_rng(29)
    P = body.gauss_inverse(unit_rows(rng, 30, 3))
    V = unit_rows(rng, 30, 3)
    V *= np.where(np.sum(body.implicit_grad(P) * V, axis=1) > 0.0, -1.0, 1.0)[:, None]
    P[::3] *= 0.7
    f = np.where(np.arange(30) % 3 == 0, body.implicit(P), -1.0)
    t = body._exit(P, V, f)
    assert np.array_equal(t, [body._exit(p, v, fp) for p, v, fp in zip(P, V, f)])
    assert np.max(np.abs(body.implicit(P + t[:, None] * V))) <= 1e-14


@pytest.mark.parametrize("make", [
    lambda: (bl.SphereInvolutionSampler.from_parallel_chord(bl.Superellipse(3.5), [0.3, 1.0]),
             bl.SphereInvolutionSampler.from_parallel_chord(bl.Superellipse(4.0), [0.3, 1.0])),
    lambda: (bl.SphereInvolutionSampler.from_planar_curve(bl.PlanarGerm([0, 0, 0.5, 0, 0, 1e-2])),
             bl.SphereInvolutionSampler.from_planar_curve(bl.PlanarGerm([0, 0, 0.5])))],
    ids=["parallel_chord", "planar_curve"])
def test_deviation_exponent_evaluates_each_sampler_once(make):
    f, g = make()
    grid = dyadic_grid(4, 12)
    (wf, f_calls), (wg, g_calls) = counted(f), counted(g)
    k, C = bl.deviation_exponent(wf, wg, grid)
    assert f_calls == g_calls == [(len(grid), 2)]
    # the grid in one call gives every point the bits of its own call
    fc, gc = f.chart_map(), g.chart_map()
    assert np.array_equal(fc(grid), [fc(t) for t in grid])
    assert np.array_equal(gc(grid), [gc(t) for t in grid])
    assert (k, C) == fit_power_law(grid, np.array([fc(t) - gc(t) for t in grid]))


def test_planar_curve_sampler_rows_keep_their_one_row_bits(monkeypatch):
    from billiardlab import projectivity
    curve = bl.PlanarGerm([0, 0, 0.5, 0, 0, 1e-2])
    sampler = bl.SphereInvolutionSampler.from_planar_curve(curve)
    t = np.linspace(-0.4, 0.4, 33)
    U = np.stack([-t, np.ones_like(t)], axis=1) / np.sqrt(1.0 + t * t)[:, None]
    solves = []
    real = projectivity.slope_point
    monkeypatch.setattr(projectivity, "slope_point",
                        lambda c, s: solves.append(np.shape(s)) or real(c, s))
    V = sampler(U)
    assert solves == [(33,)]
    assert np.array_equal(V, [sampler(u) for u in U])


def test_polar_implicit_batch_matches_rows():
    base = bl.LinearImageBody(bl.Superellipse(4.0), [[1.1, 0.25], [0.05, 0.9]])
    for polar in (bl.PolarBody(base), bl.PolarBody(bl.RadialBody2D([1.0, 0.0, 0.08]))):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(50, 2))
        X[[3, 17]] = 0.0
        values = polar.implicit(X)
        assert np.array_equal(values, [polar.implicit(x) for x in X])
        assert values[3] == values[17] == -1.0
        assert polar.implicit(np.zeros(2)) == -1.0


ROW_QUERIES = ("gauss_inverse", "support", "support_point", "support_hess",
               "_boundary_in_direction", "implicit", "implicit_grad", "implicit_hess")


# the bodies whose queries solve for an angle, in one root solve over rows
@pytest.mark.parametrize("name", ["radial", "support", "polar_radial", "polar_dual_radial",
                                  "polar_dual_support"])
def test_angle_solve_rows_keep_their_one_vector_bits(name):
    body = FAMILIES[name]()
    rng = np.random.default_rng(26)
    U = unit_rows(rng, 60, 2)
    X = rng.uniform(-1.5, 1.5, size=(60, 2))
    for query in ROW_QUERIES:
        f = getattr(body, query)
        args = X if query.startswith("implicit") else U
        assert np.array_equal(f(args), [f(x) for x in args]), query


@pytest.mark.parametrize("query", [
    lambda: (FAMILIES["radial"]().gauss_inverse, "u"),
    lambda: (FAMILIES["polar_radial"]().implicit, "x"),
    lambda: (FAMILIES["support"]().implicit, "x")],
    ids=["radial_gauss_inverse", "polar_radial_implicit", "support_implicit"])
def test_angle_solves_take_one_row_solve(query, monkeypatch):
    # 200 rows cost the trigonometric-series jets of the slowest row's
    # solve alone, not one solve per row
    f, kind = query()
    rng = np.random.default_rng(27)
    rows = unit_rows(rng, 200, 2) if kind == "u" else rng.uniform(-1.5, 1.5, size=(200, 2))
    calls = []
    real = bl.bodies.TrigSeries.jet
    monkeypatch.setattr(bl.bodies.TrigSeries, "jet",
                        lambda self, theta: calls.append(1) or real(self, theta))
    alone = []
    for x in rows:
        calls.clear()
        f(x)
        alone.append(len(calls))
    calls.clear()
    f(rows)
    assert len(calls) <= max(alone)


@pytest.mark.parametrize("name", ["superellipse4", "linear_image", "support"])
def test_exactly_tangent_rows_are_flagged(name):
    # a chord along the tangent at its base point: the rounded line may
    # seem to miss the body or leave it at once, and comes out tangential
    body = FAMILIES[name]()
    P = body.gauss_inverse(unit_rows(np.random.default_rng(29), 300, 2))
    T = bl.bodies.rot90(body.exterior_normal(P))
    for sign in (1.0, -1.0):
        B, tangential = body.chord_second_intersections(P, sign * T)
        assert tangential.all() and np.array_equal(B, P)
