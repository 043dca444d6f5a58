"""Span and count tracing installed from outside around billiardlab's layers.

``Tracer.install()`` replaces the public functions of each billiardlab
module, every other module's binding of them (for example
``dynamics.t_billiard_reflect`` or ``projectivity.least_squares``), and the
query methods of every body class with wrappers that record a span:
``[id, parent id, layer, name, tag, start, end, error type]``.  The hot
``Taylor1D`` arithmetic and the curve jets only bump counters.
``uninstall()`` puts every original back, so one process can alternate
traced and untraced passes.

``summarize()`` turns the spans of one pass into per-layer self times
(span duration minus the time its direct children cover), per-call
latencies and the counts the benchmark reports.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

from billiardlab import (bodies, cli, dynamics, errors, jets, osculation,
                         projectivity, reflection)
from workloads import family

LAYERS = ("bodies", "reflection", "projectivity", "osculation", "jets",
          "dynamics", "scipy", "cli")
FAMILIES = ("ellipsoid", "superellipse_even", "superellipse_frac", "radial",
            "support", "linear_image", "polar")
PRIMITIVES = ("last_intersection", "chord_second_intersection", "gauss_inverse",
              "support")
FINSLER_BODIES = ("ellipse", "radial", "ellipsoid3")

BODY_CLASSES = (bodies.Ellipsoid, bodies.Superellipse, bodies.RadialBody2D,
                bodies.SupportBody2D, bodies.LinearImageBody, bodies.PolarBody)
BODY_METHODS = ("gauss_inverse", "support", "support_point", "last_intersection",
                "line_intersections", "chord_second_intersection",
                "exterior_normal")
MODULE_FUNCTIONS = {
    bodies: ("polar_dual", "legendre_point", "load_body"),
    reflection: ("t_billiard_reflect", "parallel_chord_involution",
                 "finsler_reflect_legendre", "finsler_reflect_concurrency"),
    projectivity: ("projectivity_residual", "fit_projective_involution",
                   "deviation_exponent"),
    osculation: ("slope_point", "height_partner", "germ_at", "osculating_conic"),
    jets: ("fit_power_law", "graph_jet_from_parametric"),
    dynamics: ("iterate_t_billiard", "lift_kt_orbit", "closed_orbit_search"),
}
TAYLOR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "recip", "sqrt", "exp",
              "log", "pow", "sin", "cos", "diff", "compose", "invert")
GEOMETRY_ERRORS = frozenset(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.GeometryError))

ID, PARENT, LAYER, NAME, TAG, START, END, ERROR = range(8)
_ABSENT = object()


def _billiardlab_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "billiardlab" or name.startswith("billiardlab."))]


class Tracer:
    """Records spans and counts while installed; a no-op once uninstalled."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts.clear()

    # -- wrappers -------------------------------------------------------------

    def spanned(self, fn, layer, name, tag=None):
        """Wrap fn in a span; tag(args) labels it (a body family, m, ...)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [len(spans), stack[-1] if stack else -1, layer, name,
                   tag(args) if tag else None, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, fn, key):
        """Wrap fn so that each call only increments counts[key]; a
        callable key is evaluated on the tracer at each call."""
        counts = self.counts
        if callable(key):
            tracer = self

            @functools.wraps(fn)
            def keyed(*args, **kwargs):
                counts[key(tracer)] += 1
                return fn(*args, **kwargs)

            return keyed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _least_squares(self, fn, caller):
        """scipy's solver as its own layer; its callback belongs to the caller."""
        tracer = self
        spanned_solver = self.spanned(fn, "scipy", "least_squares", lambda a: caller)

        @functools.wraps(fn)
        def wrapper(fun, *args, **kwargs):
            callback = tracer.spanned(fun, caller, "least_squares.fun")
            return spanned_solver(callback, *args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, wrapper):
        for module in _billiardlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        if self._undo:
            return
        for module, names in MODULE_FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                self._rebind_everywhere(fn, self.spanned(fn, layer, name, _tag_for(name)))
        for module in (dynamics, projectivity, reflection):
            caller = module.__name__.rsplit(".", 1)[-1]
            self._patch(module, "least_squares",
                        self._least_squares(module.least_squares, caller))
        for cls in BODY_CLASSES:
            for name in BODY_METHODS:
                self._patch(cls, name, self.spanned(
                    getattr(cls, name), "bodies", name, _first_arg_family))
        for name in TAYLOR_OPS:
            self._patch(jets.Taylor1D, name, self.counted(
                getattr(jets.Taylor1D, name), "jets.taylor_ops"))
        for cls in (osculation.ConicGraphBranch, bodies.PlanarGerm):
            self._patch(cls, "jet", self.counted(cls.jet, _jet_key))
        load = cli.ExperimentConfig.__dict__["load"].__func__
        self._patch(cli.ExperimentConfig, "load",
                    classmethod(self.spanned(load, "cli", "parse")))
        self._patch(cli.ExperimentConfig, "body",
                    self.spanned(cli.ExperimentConfig.body, "cli", "parse"))
        for name in ("_write_csv", "_write_svg"):
            self._patch(cli, name, self.spanned(getattr(cli, name), "cli", "write"))
        self._rebind_everywhere(cli.main, self.spanned(cli.main, "cli", "main"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _first_arg_family(args):
    return family(args[0])


def _tag_for(name):
    if name in ("finsler_reflect_legendre", "finsler_reflect_concurrency"):
        return lambda args: (args[0].dim, family(args[0]))
    if name == "closed_orbit_search":
        return lambda args: (args[0].dim, int(args[2]))
    if name == "projectivity_residual":
        return lambda args: args[0].dim
    return None


def _jet_key(tracer):
    stack = tracer.stack
    inside = stack and tracer.spans[stack[-1]][NAME] == "slope_point"
    return "osculation.jet_calls_in_slope_point" if inside else "osculation.jet_calls"


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def finsler_body(tag):
    dim, fam = tag
    if dim == 3:
        return "ellipsoid3"
    return "ellipse" if fam == "ellipsoid" else fam


def summarize(spans, counts, scale=1.0):
    """Per-pass totals: layer self times, per-name call stats and counts.

    Durations are multiplied by ``scale``, the pass's host-speed factor,
    so that they are in the same reference seconds as wall_s.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_s = Counter()
    calls = Counter()
    total = Counter()
    out_counts = Counter(counts)
    for rec in spans:
        dur = rec[END] - rec[START]
        layer, name, tag = rec[LAYER], rec[NAME], rec[TAG]
        self_s[layer] += scale * (dur - child[rec[ID]])
        dur *= scale
        parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        keys = [f"{layer}.{name}"]
        if layer == "bodies":
            keys.append(f"bodies.{name}.{tag}")
        elif name.startswith("finsler_reflect"):
            keys.append(f"reflection.{name}.{finsler_body(tag)}")
        elif name == "projectivity_residual":
            keys.append(f"projectivity.projectivity_residual.{tag}d")
        elif name == "closed_orbit_search":
            dim, m = tag
            keys.append(f"dynamics.closed_orbit_search.m{m}")
            if dim == 3:
                keys.append("dynamics.closed_orbit_search.3d")
        elif name == "least_squares":
            keys.append(f"scipy.least_squares.{tag}")
        elif name == "least_squares.fun" and layer == "dynamics":
            m = spans[spans[rec[PARENT]][PARENT]][TAG][1]
            out_counts[f"dynamics.nfev.m{m}"] += 1
        for key in keys:
            calls[key] += 1
            total[key] += dur
        if rec[ERROR] in GEOMETRY_ERRORS and (parent is None or parent[LAYER] != layer):
            out_counts[f"{layer}.errors"] += 1
        if parent is not None:
            if name == "parallel_chord_involution" and parent[NAME] == "projectivity_residual":
                out_counts["projectivity.involution_calls_in_residual"] += 1
            if (name == "parallel_chord_involution" and rec[ERROR] == "DegenerateChordError"
                    and parent[LAYER] == "projectivity"):
                out_counts["projectivity.degenerate_absorbed"] += 1
            if (name == "gauss_inverse" and parent[NAME] == "least_squares.fun"
                    and parent[LAYER] == "dynamics"):
                m = spans[spans[parent[PARENT]][PARENT]][TAG][1]
                out_counts[f"dynamics.gauss_inverse_in_fun.m{m}"] += 1
    return {"self_s": dict(self_s), "calls": dict(calls), "total_s": dict(total),
            "counts": dict(out_counts)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(passes, setup, overhead_s):
    """The per-layer metrics of BENCHMARK.json from per-pass summaries.

    Times are averaged over the traced passes (per call, or per pass for
    self time); counts come from the first traced pass, because a fixed
    seed gives the same counts in every pass.
    """
    n = len(passes)
    calls, total, self_s = Counter(), Counter(), Counter()
    for p in passes:
        calls.update(p["calls"])
        total.update(p["total_s"])
        self_s.update(p["self_s"])
    first_calls = Counter(passes[0]["calls"])
    counts = Counter(passes[0]["counts"])

    def per_call(key, scale):
        return (scale * _ratio(total[key], calls[key]), "us" if scale == 1e6 else
                "ms" if scale == 1e3 else "s")

    m = {}
    for prim in PRIMITIVES:
        for fam in FAMILIES:
            m[f"bodies.{prim}.us.{fam}"] = per_call(f"bodies.{prim}.{fam}", 1e6)
    m["reflection.t_billiard_reflect.us"] = per_call("reflection.t_billiard_reflect", 1e6)
    m["reflection.parallel_chord_involution.us"] = per_call(
        "reflection.parallel_chord_involution", 1e6)
    for law in ("finsler_reflect_legendre", "finsler_reflect_concurrency"):
        for body in FINSLER_BODIES:
            m[f"reflection.{law}.us.{body}"] = per_call(f"reflection.{law}.{body}", 1e6)
    for dim in (2, 3):
        m[f"projectivity.projectivity_residual.ms.{dim}d"] = per_call(
            f"projectivity.projectivity_residual.{dim}d", 1e3)
    m["projectivity.fit_projective_involution.ms"] = per_call(
        "projectivity.fit_projective_involution", 1e3)
    m["projectivity.deviation_exponent.ms"] = per_call("projectivity.deviation_exponent", 1e3)
    m["projectivity.involution_calls_per_residual"] = (_ratio(
        counts["projectivity.involution_calls_in_residual"],
        first_calls["projectivity.projectivity_residual"]), "count")
    m["projectivity.degenerate_absorbed"] = (counts["projectivity.degenerate_absorbed"], "count")
    for name in ("slope_point", "height_partner", "germ_at"):
        m[f"osculation.{name}.us"] = per_call(f"osculation.{name}", 1e6)
    m["osculation.jet_calls_per_slope_point"] = (_ratio(
        counts["osculation.jet_calls_in_slope_point"],
        first_calls["osculation.slope_point"]), "count")
    m["jets.taylor_ops"] = (counts["jets.taylor_ops"], "count")
    m["jets.fit_power_law.us"] = per_call("jets.fit_power_law", 1e6)
    for key in ("m2", "m3", "m4", "3d"):
        m[f"dynamics.closed_orbit_search.s.{key}"] = per_call(
            f"dynamics.closed_orbit_search.{key}", 1.0)
    lm_fun = sum(v for k, v in counts.items() if k.startswith("dynamics.nfev.m"))
    m["dynamics.lm_nfev_per_solve"] = (_ratio(
        lm_fun, first_calls["scipy.least_squares.dynamics"]), "count")
    for k in (2, 3, 4):
        m[f"dynamics.gauss_inverse_per_nfev.m{k}"] = (_ratio(
            counts[f"dynamics.gauss_inverse_in_fun.m{k}"], counts[f"dynamics.nfev.m{k}"]),
            "count")
    m["dynamics.stagnated"] = (counts["dynamics.stagnated"], "count")
    m["dynamics.iterate_t_billiard.ms"] = per_call("dynamics.iterate_t_billiard", 1e3)
    m["scipy.least_squares.calls"] = (first_calls["scipy.least_squares"], "count")
    m["cli.parse_s"] = (_ratio(total["cli.parse"], n), "s")
    m["cli.write_s"] = (_ratio(total["cli.write"], n), "s")
    m["cli.write_bytes"] = (counts["cli.write_bytes"], "bytes")
    for layer in LAYERS:
        key = "scipy.least_squares.self_s" if layer == "scipy" else f"{layer}.self_s"
        m[key] = (_ratio(self_s[layer], n), "s")
    m["bodies.errors"] = (counts["bodies.errors"], "count")
    m["reflection.errors"] = (counts["reflection.errors"], "count")
    m["setup.import_s"] = (setup["import_s"], "s")
    m["setup.bodies_s"] = (setup["bodies_s"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
