"""Taylor arithmetic, series inversion, finite differences, power fits."""

import collections
import math

import numpy as np
import pytest

from billiardlab.errors import IndistinguishableError
from billiardlab.solvers import EPS
from billiardlab.jets import (
    MPoly,
    Taylor1D,
    dyadic_grid,
    fit_power_law,
    graph_jet_from_parametric,
    stencil_weights,
    taylor_from_derivatives,
)


def test_arithmetic_against_closed_forms():
    t = Taylor1D.variable(0.3, 6)
    s = (t * t + 1.0).sqrt()
    x = 0.3
    val = math.sqrt(x * x + 1)
    assert abs(s.value - val) < 1e-14
    # derivative of sqrt(x^2+1) is x/sqrt(x^2+1)
    assert abs(s.derivative_values()[1] - x / val) < 1e-14


def test_sin_cos_jets():
    t = Taylor1D.variable(0.7, 5)
    sn = t.sin()
    cs = t.cos()
    d_sn = sn.derivative_values()
    d_cs = cs.derivative_values()
    assert abs(d_sn[0] - math.sin(0.7)) < 1e-15
    assert abs(d_sn[1] - math.cos(0.7)) < 1e-15
    assert abs(d_sn[3] + math.cos(0.7)) < 1e-14
    assert abs(d_cs[2] + math.cos(0.7)) < 1e-14


def test_recip_and_division():
    t = Taylor1D.variable(0.0, 5)
    g = (1.0 + t * 0.37).recip()
    # 1/(1+ct) = 1 - ct + c^2 t^2 - ...
    expect = [(-0.37) ** k for k in range(6)]
    assert np.allclose(g.c, expect, atol=1e-15)


def test_compose_and_invert():
    # dyadic coefficients: the reversion and both compositions are exact
    f = Taylor1D([0.0, 2.0, -0.5, 0.25, 0.0, 0.125])
    finv = f.invert()
    assert finv.c.tolist() == [0.0, 0.5, 0.0625, 0.0, -5.0 / 1024, -1.0 / 256]
    expect = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert f.compose(finv).c.tolist() == expect
    assert finv.compose(f).c.tolist() == expect


def _mp_reversion(mp, c):
    """Reversion of sum c[k] t^k (c[0] = 0) by solving f(g(x)) = x for one
    coefficient of g after another, in mpmath arithmetic."""
    n = len(c)
    c = [mp.mpf(float(ck)) for ck in c]

    def times(a, b):
        return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]

    g = [mp.mpf(0)] * n
    g[1] = 1 / c[1]
    for k in range(2, n):
        power, rest = g, mp.mpf(0)  # g_k = 0 so far: [x^k] f(g) - c_1 g_k
        for j in range(2, n):
            power = times(power, g)
            rest += c[j] * power[k]
        g[k] = -rest / c[1]
    return g


def test_invert_matches_high_precision_reversion():
    # Lagrange inversion against a 60-digit reversion.  Its rounding error is
    # measured against the reversion of the majorant |c_1| t - sum |c_j| t^j,
    # whose coefficients bound those of every reversion with the same |c_j|:
    # at most 3.97 eps there on these draws, order 5 and orders 1-8.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    draws = [5] * 300 + list(range(1, 9)) * 10
    with mp.workdps(60):
        for n in draws:
            c = rng.normal(size=n + 1)
            c[0] = 0.0
            b = Taylor1D(c).invert().c
            exact = _mp_reversion(mp, c)
            bound = _mp_reversion(mp, np.concatenate([[0.0, abs(c[1])], -abs(c[2:])]))
            for k in range(1, n + 1):
                assert abs(mp.mpf(float(b[k])) - exact[k]) <= 2 * n * EPS * bound[k], (n, k)


def test_invert_is_one_reciprocal_and_truncated_products(taylor_ops):
    # no Newton loop: one reciprocal of f(t) / t and n - 1 products at
    # order n, and nothing composed
    for n in range(1, 9):
        taylor_ops.clear()
        Taylor1D(np.concatenate([[0.0, 1.5], np.linspace(-1.0, 1.0, n - 1)])).invert()
        assert taylor_ops == collections.Counter(invert=1, recip=1, __mul__=n - 1), n


def test_sin_cos_matches_high_precision_series():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(4)
    with mp.workdps(40):
        for _ in range(20):
            c = rng.normal(size=6)
            sin, cos = Taylor1D(c).sin_cos()

            def series(coeffs):
                return lambda t: mp.fsum(mp.mpf(float(ck)) * t ** k
                                         for k, ck in enumerate(coeffs))

            # exp(sum_{k >= 1} |c_k| t^k) bounds the coefficients of both
            majorant = mp.taylor(lambda t: mp.exp(series(abs(c[1:]))(t) * t), 0, 5)
            for got, fn in ((sin, mp.sin), (cos, mp.cos)):
                exact = mp.taylor(lambda t: fn(series(c)(t)), 0, 5)
                for k in range(6):
                    assert abs(mp.mpf(float(got.c[k])) - exact[k]) <= 4 * EPS * majorant[k]
            assert np.array_equal(sin.c, Taylor1D(c).sin().c)
            assert np.array_equal(cos.c, Taylor1D(c).cos().c)


def test_graph_jet_from_parametric_circle():
    # unit circle at angle 0: tangent frame jets of the graph are the
    # Taylor coefficients of 1 - sqrt(1 - x^2)
    t = Taylor1D.variable(0.0, 6)
    x = t.sin()
    y = 1.0 - t.cos()
    k = graph_jet_from_parametric(x, y)
    assert np.allclose(k[:6], [0, 0, 0.5, 0, 1.0 / 8, 0], atol=1e-13)


def test_taylor_from_derivatives_round_trip():
    derivs = [1.0, 2.0, -3.0, 4.0]
    jet = taylor_from_derivatives(derivs)
    assert np.allclose(jet.derivative_values(), derivs)


def test_mpoly_mul_partial_eval():
    p = MPoly(2, {(1, 0): 2.0, (0, 1): 1.0}, max_degree=5)
    q = p * p
    assert q.coeff((2, 0)) == 4.0
    assert q.coeff((1, 1)) == 4.0
    assert q.coeff((0, 2)) == 1.0
    dp = q.partial(0)
    assert dp.coeff((1, 0)) == 8.0
    assert abs(q.eval([0.5, 2.0]) - (2 * 0.5 + 2.0) ** 2) < 1e-14


def test_mpoly_truncation():
    p = MPoly(2, {(3, 0): 1.0, (0, 3): 1.0}, max_degree=5)
    q = p * p  # all products have degree 6 > 5
    assert not q.terms


def test_stencil_weights_reproduce_derivatives():
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w = stencil_weights(nodes, 2)
    # exact for cubics: f = x^3 has zero second derivative at 0
    assert abs(np.dot(w, nodes ** 3)) < 1e-12
    assert abs(np.dot(w, nodes ** 2) - 2.0) < 1e-12


def test_fit_power_law_recovers_exponent():
    ts = dyadic_grid(4, 12)
    ys = -2.5 * ts ** 3
    k, c = fit_power_law(ts, ys)
    assert abs(k - 3.0) < 1e-12
    assert abs(c + 2.5) < 1e-12


def test_fit_power_law_drops_points_past_the_noise_floor():
    ts = dyadic_grid(4, 12)
    ys = 0.1 * ts ** 4
    ys[-3:] = [2e-12, -3e-12, 1e-12]  # round-off: no longer decreasing, sign flips
    k, c = fit_power_law(ts, ys)
    assert abs(k - 4.0) < 1e-12
    assert abs(c - 0.1) < 1e-12


def test_fit_power_law_indistinguishable():
    ts = dyadic_grid(4, 8)
    with pytest.raises(IndistinguishableError):
        fit_power_law(ts, np.zeros_like(ts))
