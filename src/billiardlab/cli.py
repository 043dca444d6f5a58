"""Command-line driver for the billiard experiments.

Each command reads a key/value experiment config, runs with a fixed
seed, and writes RFC-4180 CSV tables (and minimal hand-written SVG for
the visual outputs).  Exit codes: 0 success, 1 config error, 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bodies import (
    Ball,
    BodyFileError,
    ConvexBody,
    GraphGerm,
    OrientedLine,
    PlanarGerm,
    RadialBody2D,
    Superellipse,
    _dot,
    _floats,
    _get,
    _unit,
    load_body,
    parse_body_text,
)
from .dynamics import capacity_estimate, iterate_t_billiard
from .errors import GeometryError, IndistinguishableError, PrecisionError
from .jets import dyadic_grid
from .osculation import (
    ConicGraphBranch,
    germ_at,
    is_sextactic,
    normal_field_gap,
    osculating_conic,
    osculating_quadric_along_curve,
)
from .projectivity import (
    SamplePlan,
    SphereInvolutionSampler,
    deviation_exponent,
    projectivity_residual,
)
from .reflection import t_billiard_reflect

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

LENGTH_CONVENTION = "directed-chord"


def _fmt(x):
    return format(float(x), ".12g")


@dataclass
class ExperimentConfig:
    """Parsed experiment description plus run-wide flags."""

    experiment: str
    values: dict
    base_dir: Path
    out_dir: Path
    seed: int
    tol: float

    @classmethod
    def load(cls, path, out=None, seed=None, tol=None):
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise BodyFileError(f"cannot read config: {exc}") from exc
        values, _ = parse_body_text(text)
        if "experiment" not in values:
            raise BodyFileError("config is missing the 'experiment' key")
        experiment = values["experiment"][0]
        cfg_seed = _get(values, "seed", int, default=0)
        cfg_tol = _get(values, "tol", float, default=1e-7)
        return cls(
            experiment=experiment,
            values=values,
            base_dir=path.parent,
            out_dir=Path(out) if out else Path.cwd(),
            seed=cfg_seed if seed is None else int(seed),
            tol=cfg_tol if tol is None else float(tol),
        )

    def body(self, key):
        """The body that key names: a graph germ for 'germ', else a smooth convex body."""
        body = load_body(self.base_dir / _get(self.values, key, str, required=True))
        need = (PlanarGerm, GraphGerm) if key == "germ" else ConvexBody
        if not isinstance(body, need):
            raise BodyFileError(f"'{key}' is a {type(body).__name__}, not a "
                                + ("graph germ" if key == "germ" else "smooth convex body"))
        return body

    def line(self, dim):
        """The oriented line of the config, in the dimension of its body."""
        p = _get(self.values, "line_point", _floats, required=True)
        d = _get(self.values, "line_direction", _floats, required=True)
        for key, v in (("line_point", p), ("line_direction", d)):
            if len(v) != dim:
                raise BodyFileError(f"'{key}' has {len(v)} entries for a body of dimension {dim}")
            if not np.isfinite(v).all():
                raise BodyFileError(f"'{key}' has an entry that is not finite")
        if not d.any():
            raise BodyFileError("'line_direction' is the zero vector")
        return OrientedLine(p, d)


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Minimal SVG output (hand-written path elements, no plotting dependency)
# ---------------------------------------------------------------------------

def _svg_polyline(points, stroke, width, closed=False):
    cmds = [f"M {_fmt(points[0][0])} {_fmt(-points[0][1])}"]
    cmds += [f"L {_fmt(p[0])} {_fmt(-p[1])}" for p in points[1:]]
    if closed:
        cmds.append("Z")
    return (f'<path d="{" ".join(cmds)}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')


def _body_outline(body):
    thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    return body.gauss_inverse(np.stack([np.cos(thetas), np.sin(thetas)], axis=1))


def _write_svg(path, elements, viewbox):
    x0, y0, w, h = viewbox
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n'
        + "\n".join(elements) + "\n</svg>\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_reflect(cfg: ExperimentConfig):
    """Reflect one oriented line and write the incoming/outgoing pair."""
    K = cfg.body("body_k")
    T = cfg.body("body_t")
    line = cfg.line(K.dim)
    out = t_billiard_reflect(K, T, line)
    dim = K.dim
    header = (["role"] + [f"x{i}" for i in range(dim)]
              + [f"d{i}" for i in range(dim)])
    rows = [
        ["incoming"] + [_fmt(v) for v in line.point] + [_fmt(v) for v in line.direction],
        ["outgoing"] + [_fmt(v) for v in out.point] + [_fmt(v) for v in out.direction],
    ]
    _write_csv(cfg.out_dir / "reflect.csv", header, rows)
    print("outgoing", " ".join(_fmt(v) for v in out.point),
          " ".join(_fmt(v) for v in out.direction))
    return EXIT_OK


def cmd_trace(cfg: ExperimentConfig):
    """Iterate the billiard map; write the orbit CSV and an SVG overlay."""
    K = cfg.body("body_k")
    T = cfg.body("body_t")
    line = cfg.line(K.dim)
    steps = _get(cfg.values, "steps", int, default=0)
    print("line", " ".join(_fmt(v) for v in line.point),
          " ".join(_fmt(v) for v in line.direction))
    orbit = iterate_t_billiard(K, T, line, steps) if steps > 0 else None
    dim = K.dim
    header = (["index"] + [f"x{i}" for i in range(dim)]
              + ["segment_length", "cumulative_action", "length_convention"])
    rows = []
    if orbit is not None:
        cum = 0.0
        for i, p in enumerate(orbit.points):
            seg = orbit.lengths[i - 1] if i > 0 else 0.0
            cum += seg
            rows.append([i] + [_fmt(v) for v in p]
                        + [_fmt(seg), _fmt(cum), LENGTH_CONVENTION])
    _write_csv(cfg.out_dir / "orbit.csv", header, rows)
    if dim == 2:
        elements = [_svg_polyline(_body_outline(K), "black", 0.01 * K.diameter(),
                                  closed=True)]
        if orbit is not None and len(orbit.points) > 0:
            start = line.point.reshape(1, -1)
            poly = np.vstack([start, orbit.points])
            elements.append(_svg_polyline(poly, "crimson", 0.006 * K.diameter()))
        pad = 1.1 * K.bounding_radius()
        _write_svg(cfg.out_dir / "orbit.svg", elements, (-pad, -pad, 2 * pad, 2 * pad))
    if orbit is not None and orbit.status != "ok":
        print("status", orbit.status)
    return EXIT_OK


def _count(cfg, key, default, least=1):
    """The config's count ``key`` (direction classes, multistarts, the
    largest bounce count), at least ``least``."""
    count = _get(cfg.values, key, int, default=default)
    if count < least:
        raise BodyFileError(f"'{key}' is {count}, less than {least}")
    return count


def _direction_classes(rng, dim, count):
    if dim == 2:
        angles = rng.uniform(0.0, math.pi, size=count)
        return [np.array([math.cos(a), math.sin(a)]) for a in angles]
    vecs = rng.normal(size=(count, dim))
    return [_unit(v) for v in vecs]


def _conic_deviation_fit(body, sampler):
    """Deviation exponent of the involution from its osculating-conic twin.

    Both involutions act in the slope chart of the tangent frame at the
    fixed boundary point.  The conic twin is the osculating conic's
    parallel-chord involution, a harmonic homology in closed form
    (``SphereInvolutionSampler.from_conic_branch``), so the fitted power
    is the order of contact with projectivity (four for a generic
    non-quadric body by the fourth-order deviation law).
    """
    u0 = sampler.fixed_vector
    if isinstance(body, RadialBody2D):  # its jets take the polar angle, not the normal's
        u0 = body.gauss_inverse(u0)
    theta = math.atan2(u0[1], u0[0])
    germ, _, T, N = germ_at(body, theta, with_frame=True)
    conic = osculating_conic(germ)
    twin = SphereInvolutionSampler.from_conic_branch(ConicGraphBranch(conic))

    def chart(t):  # the grid in one sampler call
        v = sampler(_unit(t[:, None] * T - N))
        return -_dot(v, T) / _dot(v, N)

    return deviation_exponent(chart, twin.chart_map(), dyadic_grid(4, 12))


def cmd_projtest(cfg: ExperimentConfig):
    """Projectivity residuals and chart asymptotics per direction class."""
    body = cfg.body("body")
    body_id = _get(cfg.values, "body", str)
    classes = _count(cfg, "classes", 20)
    patch = _get(cfg.values, "patch_scale", float, default=0.3)
    plan_base = dict(
        patch_scale=patch,
        n_quadruples=_get(cfg.values, "quadruples", int, default=40),
        n_points=_get(cfg.values, "points", int, default=60),
    )
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for k, d in enumerate(_direction_classes(rng, body.dim, classes)):
        sampler = SphereInvolutionSampler.from_parallel_chord(body, d)
        plan = SamplePlan(seed=cfg.seed + 1000 + k, **plan_base)
        residual = projectivity_residual(sampler, plan)
        exponent = coefficient = ""
        if body.dim == 2 and hasattr(body, "position_jet"):
            try:
                kfit, cfit = _conic_deviation_fit(body, sampler)
                exponent, coefficient = _fmt(kfit), _fmt(cfit)
            except (IndistinguishableError, PrecisionError, GeometryError):
                pass
        rows.append([body_id, " ".join(_fmt(v) for v in d), _fmt(patch),
                     _fmt(residual), exponent, coefficient])
    _write_csv(cfg.out_dir / "projtest.csv",
               ["body_id", "direction_class", "patch_scale", "residual",
                "fitted_exponent", "fitted_coefficient"], rows)
    worst = max(float(r[3]) for r in rows)
    print("projtest max residual", _fmt(worst))
    return EXIT_OK


def cmd_osculate(cfg: ExperimentConfig):
    """Osculating conic/quadric coefficients and contact asymptotics."""
    germ = cfg.body("germ")
    coeff_rows = []
    fit_rows = []
    if isinstance(germ, GraphGerm):  # hypersurface germ
        quadric = osculating_quadric_along_curve(germ)
        M = quadric.matrix
        coeff_rows.append(["frame", "", "", (
            "normalized chart: x1 along the section tangent, x_n the graph "
            "axis, section conic x_n = x1^2")])
        for i in range(M.shape[0]):
            for j in range(i, M.shape[1]):
                coeff_rows.append(["quadric", i, j, _fmt(M[i, j])])
        jmin = _get(cfg.values, "grid_jmin", int, default=4)
        jmax = _get(cfg.values, "grid_jmax", int, default=12)
        fit = normal_field_gap(germ, quadric, dyadic_grid(jmin, jmax))
        fit_rows.append(["normal_gap", _fmt(fit.exponent), _fmt(fit.coefficient)])
        fit_rows.append(["angle_gap", _fmt(fit.angle_exponent),
                         _fmt(fit.angle_coefficient)])
    else:  # planar germ
        conic = osculating_conic(germ)
        M = conic.matrix
        coeff_rows.append(["frame", "", "",
                           "tangent frame at the germ base point; gap in the "
                           "unit-curvature chart"])
        for i in range(3):
            for j in range(i, 3):
                coeff_rows.append(["conic", i, j, _fmt(M[i, j])])
        flag, gap = is_sextactic(germ, tol=cfg.tol)
        fit_rows.append(["quintic_gap", _fmt(gap), "sextactic" if flag else ""])
    _write_csv(cfg.out_dir / "osculate.csv",
               ["object", "i", "j", "value"], coeff_rows)
    _write_csv(cfg.out_dir / "fits.csv",
               ["quantity", "exponent_or_value", "coefficient_or_flag"], fit_rows)
    return EXIT_OK


def cmd_capacity(cfg: ExperimentConfig):
    """Minimal-action table over bounce counts plus the best orbit."""
    K = cfg.body("body_k")
    T = cfg.body("body_t")
    m_max = _count(cfg, "m_max", 5, least=2)
    multistarts = _count(cfg, "multistarts", 16)
    report = capacity_estimate(K, T, m_max, multistarts=multistarts,
                               seed=cfg.seed)
    _write_csv(cfg.out_dir / "capacity.csv",
               ["m", "best_action", "stationarity_residual"],
               [[m, _fmt(a), _fmt(s)] for m, a, s in report.table])
    best = report.best_orbit
    dim = K.dim
    _write_csv(cfg.out_dir / "orbit.csv",
               ["index"] + [f"x{i}" for i in range(dim)]
               + ["segment_length", "action", "length_convention"],
               [[i] + [_fmt(v) for v in p]
                + [_fmt(best.lengths[i]), _fmt(best.action), LENGTH_CONVENTION]
                for i, p in enumerate(best.points)])
    print(f"capacity {report.value:.4f}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig):
    """Projectivity residual along an ellipse-to-superellipse family."""
    exponents = _get(cfg.values, "exponents", _floats, default=np.linspace(2.0, 4.0, 9))
    if len(exponents) == 0:
        raise BodyFileError("'exponents' is empty")
    classes = _count(cfg, "classes", 8)
    patch = _get(cfg.values, "patch_scale", float, default=0.3)
    rng = np.random.default_rng(cfg.seed)
    dirs = _direction_classes(rng, 2, classes)
    rows = []
    for m in exponents:
        body = Ball(1.0) if abs(m - 2.0) < 1e-12 else Superellipse(float(m))
        worst = 0.0
        for k, d in enumerate(dirs):
            sampler = SphereInvolutionSampler.from_parallel_chord(body, d)
            plan = SamplePlan(patch_scale=patch, n_quadruples=20,
                              seed=cfg.seed + 17 * k)
            worst = max(worst, projectivity_residual(sampler, plan))
        rows.append([_fmt(m), _fmt(worst)])
    _write_csv(cfg.out_dir / "sweep.csv", ["exponent", "residual"], rows)
    pts = [(float(r[0]), math.log10(max(float(r[1]), 1e-17))) for r in rows]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    vb = (min(xs) - 0.2, min(-y for y in ys) - 1.0,
          max(xs) - min(xs) + 0.4, max(ys) - min(ys) + 2.0)
    _write_svg(cfg.out_dir / "sweep.svg", [_svg_polyline(pts, "steelblue", 0.02)], vb)
    print("sweep rows", len(rows))
    return EXIT_OK


COMMANDS = {
    "reflect": cmd_reflect,
    "trace": cmd_trace,
    "projtest": cmd_projtest,
    "osculate": cmd_osculate,
    "capacity": cmd_capacity,
    "sweep": cmd_sweep,
}


@functools.cache
def _parser():
    """The command-line parser, built on the first call of ``main``."""
    parser = argparse.ArgumentParser(
        prog="billiardlab",
        description="billiard reflection, projectivity, osculation and "
                    "capacity experiments",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{fn.__doc__}"
                                         for name, fn in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tol", type=float, help="override tolerance")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, out=args.out, seed=args.seed,
                                    tol=args.tol)
        if cfg.experiment != args.command:
            raise BodyFileError(
                f"config declares experiment '{cfg.experiment}', "
                f"command is '{args.command}'")
        return COMMANDS[args.command](cfg)
    except (BodyFileError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
