"""Deciding whether a sphere involution lifts a projective involution.

The planar test compares cross-ratios of sampled quadruples before and
after the involution; in higher dimension the sampled graph is fitted
against the harmonic-homology family (the projective involutions fixing
a hyperplane pointwise plus one extra point).  Deviations from
projectivity are quantified by power-law fits of chart differences.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import ConvexBody, _apply, _dot, _unit, rot90, tangent_frame
from .errors import (
    DegenerateDataError,
    DomainError,
    PrecisionError,
    SamplePlanError,
)
from .jets import fit_power_law
from .osculation import height_partner, slope_point
from .reflection import ParallelClass, parallel_chord_involution
from .solvers import levenberg_marquardt as least_squares

COLLINEARITY_TOL = 1e-9  # cross_ratio: relative second singular value
QUADRUPLE_MIN_SEPARATION = 0.15  # least angle gap / quarter patch width
TWO_JET_STEP = 1e-2  # two_jet_at_fixed_point: coarser difference step
TWO_JET_REL_TOL = 1e-4  # two_jet_at_fixed_point: tolerated disagreement
FIT_MAX_NFEV = 100  # fit_projective_involution: residual evaluations


def rp_distance(a, b):
    """Angle between the lines spanned by two nonzero vectors (or by the
    matching rows of two (N, n) arrays).

    Computed from chord lengths, so it stays accurate near zero where
    acos of the inner product loses all precision.
    """
    a = _unit(a)
    b = _unit(b)
    chord = np.minimum(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))


class ProjectiveMap:
    """Projective transformation of RP^(n-1): an n x n matrix mod scale.

    In involution mode the map carries its fixed hyperplane (as a unit
    normal) and the extra fixed point.
    """

    def __init__(self, matrix, axis_normal=None, center=None):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError("projective map matrix must be square")
        self.matrix = M / np.linalg.norm(M)
        self.axis_normal = None if axis_normal is None else _unit(axis_normal)
        self.center = None if center is None else _unit(center)

    @classmethod
    def harmonic_homology(cls, center, axis_normal):
        """Involution fixing the hyperplane <m, x> = 0 pointwise and the
        center projectively: M = I - 2 P m^T / <m, P>."""
        P = np.asarray(center, dtype=float)
        m = np.asarray(axis_normal, dtype=float)
        s = float(np.dot(m, P))
        if abs(s) < 1e-14 * np.linalg.norm(P) * np.linalg.norm(m):
            raise DegenerateDataError("homology center lies on the axis")
        M = np.eye(len(P)) - 2.0 * np.outer(P, m) / s
        return cls(M, axis_normal=m, center=P)

    def apply(self, u):
        """Normalized image of a vector, or of each row of an (N, n) array."""
        v = _apply(self.matrix, np.asarray(u, dtype=float))
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(n == 0.0):
            raise DegenerateDataError("vector maps to zero (indeterminate point)")
        return v / n

    def involution_defect(self):
        """Relative defect of M^2 from a scalar matrix."""
        M2 = self.matrix @ self.matrix
        c = np.trace(M2) / M2.shape[0]
        return float(np.linalg.norm(M2 - c * np.eye(M2.shape[0]))
                     / max(np.linalg.norm(M2), 1e-300))


# ---------------------------------------------------------------------------
# Cross-ratio
# ---------------------------------------------------------------------------

def cross_ratio_rp1(quadruple):
    """Cross-ratio of four points of RP^1 given as homogeneous 2-vectors;
    an (N, 4, 2) array gives the cross-ratios of N quadruples."""
    U = np.asarray(quadruple, dtype=float)
    if U.shape[-2:] != (4, 2):
        raise DomainError("expected four homogeneous 2-vectors")

    def det(i, j):
        return U[..., i, 0] * U[..., j, 1] - U[..., i, 1] * U[..., j, 0]

    d13, d24, d14, d23 = det(0, 2), det(1, 3), det(0, 3), det(1, 2)
    floor = 1e-14 * np.max(np.abs(U), axis=(-2, -1)) ** 2
    if np.any(np.abs(d14) < floor) or np.any(np.abs(d23) < floor):
        raise DegenerateDataError("cross-ratio of coincident points")
    return (d13 * d24) / (d14 * d23)


def _to_homogeneous_scalar(t):
    if np.isinf(t):
        return np.array([1.0, 0.0])
    return np.array([float(t), 1.0])


def cross_ratio(p1, p2, p3, p4):
    """Cross-ratio (p1, p2; p3, p4) of four collinear points.

    Scalars (np.inf allowed) are read in an affine chart of the line;
    point arrays are projected onto their common line first, and a
    DomainError is raised if they are not collinear (COLLINEARITY_TOL).
    The convention is ((p1-p3)(p2-p4)) / ((p1-p4)(p2-p3)), so
    (0, 1; 2, inf) = 2 and a harmonic quadruple has cross-ratio -1.
    """
    pts = [p1, p2, p3, p4]
    if all(np.ndim(p) == 0 for p in pts):
        return cross_ratio_rp1([_to_homogeneous_scalar(t) for t in pts])
    P = np.asarray(pts, dtype=float)
    if P.ndim != 2:
        raise DomainError("mixed scalar/vector cross-ratio arguments")
    center = P.mean(axis=0)
    M = P - center
    _, svals, vt = np.linalg.svd(M, full_matrices=False)
    scale = max(svals[0], 1e-300)
    if svals[1] > COLLINEARITY_TOL * scale:
        raise DomainError("cross-ratio points are not collinear")
    ts = M @ vt[0]
    return cross_ratio_rp1([_to_homogeneous_scalar(t) for t in ts])


# ---------------------------------------------------------------------------
# Sphere involution samplers
# ---------------------------------------------------------------------------

@dataclass
class SphereInvolutionSampler:
    """Black-box involution of a sphere patch with a known fixed vector.

    ``func`` maps an (N, dim) array of unit directions to their images;
    calling the sampler on one vector is its one-row case.
    """

    func: Callable[[np.ndarray], np.ndarray]
    fixed_vector: np.ndarray
    dim: int
    axis_normal: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        self.fixed_vector = _unit(self.fixed_vector)
        if self.axis_normal is not None:
            self.axis_normal = _unit(self.axis_normal)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return self.func(u[None, :])[0]
        return self.func(u)

    def answering(self, rows, images):
        """This involution with the images of the (N, dim) ``rows`` known:
        a call on exactly those rows (array equality) returns a copy of
        ``images``, any other call maps live."""
        live = self.func

        def f(u):
            return images.copy() if np.array_equal(u, rows) else live(u)

        twin = copy.copy(self)  # not a new instance: that would normalize fixed_vector again
        twin.func = f
        return twin

    @classmethod
    def from_parallel_chord(cls, body: ConvexBody, cls_or_direction, name=""):
        """The involution R of normal directions defined by chords of a
        fixed parallel class; near-tangential chords are treated as fixed
        directions."""
        pc = (cls_or_direction if isinstance(cls_or_direction, ParallelClass)
              else ParallelClass(np.asarray(cls_or_direction, dtype=float)))
        d = pc.direction
        fixed = tangent_frame(d)[0] if body.dim > 2 else rot90(d)

        def f(u):
            return parallel_chord_involution(body, pc, u)

        return cls(f, fixed, body.dim, axis_normal=d,
                   name=name or f"R_L[{type(body).__name__}]")

    @classmethod
    def from_planar_curve(cls, curve, name=""):
        """Parallel-chord involution of a planar curve germ y = h(x), for
        the class of lines parallel to the tangent at the origin.

        The sampler acts on unit normal directions near (0, 1); in the
        slope chart it is t -> h'(partner(x)) with h'(x) = t.
        """

        def f(us):
            us = _unit(us)
            if (us[:, 1] <= 0.0).any():
                raise DomainError("direction outside the germ normal patch")
            x = slope_point(curve, -us[:, 0] / us[:, 1])
            tp = curve.derivative(height_partner(curve, x), 1)
            return _unit(np.stack([-tp, np.ones_like(tp)], axis=-1))

        return cls(f, np.array([0.0, 1.0]), 2,
                   axis_normal=np.array([1.0, 0.0]),
                   name=name or f"R_L[{type(curve).__name__}]")

    @classmethod
    def from_conic_branch(cls, branch):
        """Parallel-chord involution of a conic graph branch (see
        ``from_planar_curve``), in closed form.

        The conic's points at height y solve
        axx x^2 + 2 axy y x + (ayy y^2 + 2 by y) = 0, so the chord partner
        of x is -x - 2 c y with c = axy / axx.  That is a linear involution
        L of the plane, and normals move by L^T = I - 2 P m^T / <m, P>, the
        harmonic homology with center P = (1, c) and axis normal m = (1, 0);
        in the slope chart t -> -t / (1 + 2 c t).
        """
        if branch.axx == 0.0:
            raise DegenerateDataError("conic chords have no partner (a_xx = 0)")
        H = ProjectiveMap.harmonic_homology(center=(1.0, branch.axy / branch.axx),
                                            axis_normal=(1.0, 0.0))
        return cls(H.apply, np.array([0.0, 1.0]), 2,
                   axis_normal=np.array([1.0, 0.0]),
                   name=f"R_L[{type(branch).__name__}]")

    def chart_map(self):
        """Scalar involution in the gnomonic chart at the fixed vector; it
        maps one t, or an array of t with one sampler call."""
        u0 = self.fixed_vector
        if self.dim != 2:
            raise DomainError("scalar chart is only defined on S^1")
        w = rot90(u0)

        def g(t):
            v = self(_unit(u0 + np.asarray(t, dtype=float)[..., None] * w))
            denom = _dot(v, u0)
            if np.any(denom == 0.0):
                raise DomainError("image left the chart")
            return _dot(v, w) / denom

        return g


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic projectivity-test sampling (see QUADRUPLE_MIN_SEPARATION)."""

    patch_scale: float = 0.3
    n_quadruples: int = 40
    n_points: int = 60
    seed: int = 0


def _chart_function(f):
    if isinstance(f, SphereInvolutionSampler):
        return f.chart_map()
    if callable(f):
        return f
    raise DomainError("expected a sampler or a scalar chart map")


# ---------------------------------------------------------------------------
# Projectivity residual
# ---------------------------------------------------------------------------

def _separated_quadruples(rng, scale, count):
    """The first count draws of rng.uniform(-scale, scale, size=4), each
    sorted, whose gaps all reach the quadruple separation; 200 rejected
    draws in a row raise SamplePlanError.

    The draws come in blocks of (4 count, 4), which yield the same
    doubles in the same order as one draw of four at a time.
    """
    gap = QUADRUPLE_MIN_SEPARATION * 2.0 * scale / 4.0
    kept, missing, run = [], count, 0  # run: rejected draws since the last kept one
    while True:
        block = np.sort(rng.uniform(-scale, scale, size=(4 * count, 4)), axis=1)
        separated = (block[:, 1:] - block[:, :-1] >= gap).all(axis=1)
        idx = np.flatnonzero(separated)[:missing].tolist()
        missing -= len(idx)
        # the rejected runs before each kept draw, and after the last one
        # while draws are still missing
        stops = [-1 - run, *idx] + ([len(block)] if missing else [])
        runs = [b - a - 1 for a, b in zip(stops, stops[1:])]
        if max(runs) >= 200:
            raise SamplePlanError("could not sample a separated quadruple")
        kept.append(block[idx])
        if not missing:
            return np.concatenate(kept)
        run = runs[-1]


def residual_directions(sampler: SphereInvolutionSampler, plan: SamplePlan):
    """The (N, dim) unit directions that ``projectivity_residual`` maps for
    this sampler and plan: on S^1 the angle quadruples in the patch, four
    rows each; in higher dimension the plan's points of the tangent patch.
    Raises SamplePlanError for a plan that cannot be drawn.

    The plan keeps its last draw, read-only: a second call for the same
    fixed vector (a batch of the rows, then the residual that maps them)
    returns that array instead of drawing again.
    """
    key = (sampler.dim, sampler.fixed_vector.tobytes())
    last = plan.__dict__.get("_last_draw")
    if last is not None and last[0] == key:
        return last[1]
    if plan.n_quadruples < 1 or plan.n_points < 6:
        raise SamplePlanError("sample plan too small")
    if not 0.0 < plan.patch_scale < 0.5 * math.pi:
        raise SamplePlanError("patch_scale must lie in (0, pi/2)")
    rng = np.random.default_rng(plan.seed)
    u0 = sampler.fixed_vector
    if sampler.dim == 2:
        angles = _separated_quadruples(rng, plan.patch_scale, plan.n_quadruples)
        angles = angles.reshape(-1, 1)
        us = np.cos(angles) * u0 + np.sin(angles) * rot90(u0)
    else:
        spread = math.tan(plan.patch_scale)
        t = rng.uniform(-spread, spread, size=(plan.n_points, sampler.dim - 1))
        us = _unit(u0 + t @ tangent_frame(u0))
    us.flags.writeable = False
    object.__setattr__(plan, "_last_draw", (key, us))  # not a field: eq and hash ignore it
    return us


def projectivity_residual(sampler: SphereInvolutionSampler, plan: SamplePlan):
    """Deviation of a sphere involution from a projective lifting.

    On S^1 this is the max cross-ratio discrepancy over sampled angle
    quadruples in the patch; in higher dimension it is the residual of
    the best harmonic-homology fit.  Values at round-off scale mean the
    involution is projectively liftable on the sampled patch.  The patch
    half-width must lie in (0, pi/2): wider angles wrap the circle, and
    the 3D patch is the tangent-plane square of half-side tan(patch_scale).
    Every sample is drawn first (``residual_directions``: the angle
    quadruples in blocks of separated draws), then the sampler maps them
    all in one call.
    """
    us = residual_directions(sampler, plan)
    if sampler.dim == 2:
        return float(np.max(np.abs(cross_ratio_rp1(us.reshape(-1, 4, 2))
                                   - cross_ratio_rp1(sampler(us).reshape(-1, 4, 2)))))
    if sampler.axis_normal is None:
        raise SamplePlanError("higher-dimensional residual needs the fixed "
                              "hyperplane of the direction class")
    _, residual = fit_projective_involution(np.stack([us, sampler(us)], axis=1),
                                            sampler.axis_normal)
    return residual


def fit_projective_involution(pairs, axis_normal):
    """Best harmonic homology fixing the given hyperplane pointwise.

    ``pairs`` is a sequence of (u, image of u) or an (N, 2, n) array.
    The center is first recovered linearly (it lies on every line
    joining a point to its image), then polished by Levenberg-Marquardt
    with the exact Jacobian on sum sin^2 theta_i, where theta_i is the
    projective distance from H(P) u_i to v_i.  The center moves on the
    plane <m, P> = 1, where H(P) u = u - 2 <m, u> P is linear in P.
    Returns (ProjectiveMap, rms of sin theta_i).
    """
    m = _unit(axis_normal)
    pairs = np.asarray(pairs, dtype=float)
    us, vs = pairs[:, 0], pairs[:, 1]
    n = us.shape[1]
    if len(us) < n:
        raise DegenerateDataError("need at least dim independent pairs")
    U, V = _unit(us), _unit(vs)
    # fixed directions put no constraint on the center
    moving = np.abs(np.abs(np.sum(U * V, axis=-1)) - 1.0) >= 1e-12
    if np.count_nonzero(moving) < 2:
        raise DegenerateDataError("pairs are rank deficient (all fixed)")
    span = np.linalg.qr(np.stack([U[moving], V[moving]], axis=-1))[0]
    Q = np.sum(np.eye(n) - span @ np.swapaxes(span, -1, -2), axis=0)
    evals, evecs = np.linalg.eigh(Q)
    center0 = evecs[:, 0]
    s0 = float(m @ center0)
    if abs(s0) < 1e-12:
        raise DegenerateDataError("homology center lies on the axis")
    P0, F = center0 / s0, tangent_frame(m).T
    mu2 = 2.0 * (U @ m)

    def residual(t, rows):
        # the part of the unit image w of u tangent at v, of norm sin theta,
        # and its Jacobian: dz/dt = -2 <m, u> F, so
        # dr/dt = -2 <m, u> / |z| (I - v v^T)(I - w w^T) F (NaN where z = 0)
        z = U - mu2[:, None] * (P0 + F @ t[0])
        zn = np.sqrt(_dot(z, z))
        zn = np.where(zn > 0.0, zn, np.nan)
        w = z / zn[:, None]
        wv = _dot(w, V)
        wF, vF = w @ F, V @ F
        dr = (F - w[:, :, None] * wF[:, None, :]
              - V[:, :, None] * (vF - wv[:, None] * wF)[:, None, :])
        return ((w - wv[:, None] * V).reshape(1, -1),
                ((-mu2 / zn)[:, None, None] * dr).reshape(1, -1, n - 1))

    t = least_squares(residual, np.zeros((1, n - 1)), max_nfev=FIT_MAX_NFEV).x
    r = residual(t, None)[0]
    if not np.isfinite(r).all():
        raise DegenerateDataError("vector maps to zero (indeterminate point)")
    model = ProjectiveMap.harmonic_homology(P0 + F @ t[0], m)
    return model, math.sqrt(_dot(r[0], r[0]) / len(us))


# ---------------------------------------------------------------------------
# Jets of involutions at the fixed point
# ---------------------------------------------------------------------------

def two_jet_at_fixed_point(f):
    """Coefficients (a1, a2) of f(t) = a1 t + a2 t^2 + O(t^3) at t = 0.

    Richardson-extrapolated central differences at TWO_JET_STEP and its
    half; a disagreement beyond TWO_JET_REL_TOL raises PrecisionError
    (noisy sampler).
    """
    g = _chart_function(f)

    def d1(h):
        return (g(h) - g(-h)) / (2.0 * h)

    def d2(h):
        return (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)

    def richardson(d, h):
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    a1_coarse = richardson(d1, TWO_JET_STEP)
    a1_fine = richardson(d1, TWO_JET_STEP / 2.0)
    a2_coarse = richardson(d2, TWO_JET_STEP) / 2.0
    a2_fine = richardson(d2, TWO_JET_STEP / 2.0) / 2.0
    if abs(a1_fine - a1_coarse) > TWO_JET_REL_TOL * max(1.0, abs(a1_fine)):
        raise PrecisionError("first-jet extrapolations disagree")
    if abs(a2_fine - a2_coarse) > TWO_JET_REL_TOL * max(1.0, abs(a2_fine)):
        raise PrecisionError("second-jet extrapolations disagree")
    return float(a1_fine), float(a2_fine)


def deviation_exponent(f, g, grid):
    """Power-law fit of the chart difference of two involutions.

    Returns (exponent, signed coefficient) of |f(t) - g(t)| ~ |C| t^k on
    the grid; grids entirely below the round-off floor raise
    IndistinguishableError (the maps agree).  Each chart (a callable
    acting elementwise, or a sampler's chart_map) maps the whole grid in
    one call.
    """
    if isinstance(f, SphereInvolutionSampler) and isinstance(g, SphereInvolutionSampler):
        if rp_distance(f.fixed_vector, g.fixed_vector) > 1e-9:
            raise DomainError("samplers do not share their fixed point")
    fc = _chart_function(f)
    gc = _chart_function(g)
    grid = np.asarray(grid, dtype=float)
    return fit_power_law(grid, fc(grid) - gc(grid))
