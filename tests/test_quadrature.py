import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_hausdorff import quadrature
from rough_hausdorff.functions import TestFunction
from rough_hausdorff.quadrature import (
    Annulus,
    Ball,
    DivergentIntegralError,
    Shell,
    ToleranceNotMetError,
    _BLOCK_PANELS,
    _G10,
    _K21,
    _NODES,
    _WG,
    _WK,
    _XK,
    _judge,
    _panels_breadth_first,
    _sphere_levels,
    integrate_interval,
    integrate_intervals,
    integrate_region,
    integrate_sphere,
    sphere_surface,
)


def test_halfline_truncated_power():
    # antiderivative oracle: -(2/3) t^{-3/2} evaluated at 1
    res = integrate_interval(lambda t: np.where(t > 1.0, t ** -2.5, 0.0), 0.0, math.inf, 1e-10, math.inf, -2.5)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert res.abs_error_estimate + res.tail_bound <= 1e-10 + 1e-12 * res.value


def test_halfline_exponential():
    res = integrate_interval(lambda t: np.exp(-t), 0.0, math.inf, 1e-10, 0.0, -math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_halfline_harmonic_divergence_declared():
    with pytest.raises(DivergentIntegralError):
        integrate_interval(lambda t: np.where(t < 1.0, 1.0 / t, 0.0), 0.0, math.inf, 1e-9, -1.0, -math.inf)


def test_halfline_divergence_detected_without_declaration():
    # declared exponents lie: claim fast decay but the integrand is 1/t
    with pytest.raises((DivergentIntegralError, ArithmeticError)):
        integrate_interval(lambda t: 1.0 / t, 0.0, math.inf, 1e-9, 0.5, -1.5)


@pytest.mark.parametrize("expo,lo,expected", [
    (-2.5, 1.0, 2.0 / 3.0),
    (-1.5, 1.0, 2.0),
    (-3.0, 2.0, 1.0 / 8.0),
])
def test_tail_bound_sound_on_power_laws(expo, lo, expected):
    # the reported tail bound must dominate the true truncated mass
    res = integrate_interval(lambda t: np.where(t > lo, t ** expo, 0.0), 0.0, math.inf, 1e-8, math.inf, expo)
    assert res.value == pytest.approx(expected, rel=1e-8)
    true_truncation = abs(expected - res.value)
    assert res.tail_bound + res.abs_error_estimate >= true_truncation


def test_sphere_measures():
    assert integrate_sphere(2, lambda p: np.ones(p.shape[0]), 1e-12).value == pytest.approx(2 * math.pi, abs=1e-12)
    assert integrate_sphere(3, lambda p: np.ones(p.shape[0]), 1e-10).value == pytest.approx(4 * math.pi, rel=1e-10)
    assert integrate_sphere(1, lambda p: p[:, 0], 1e-12).value == 0.0
    assert sphere_surface(2) == pytest.approx(2 * math.pi)
    assert sphere_surface(3) == pytest.approx(4 * math.pi)


def test_trapezoid_spectral_accuracy_small_node_count():
    # 2 + cos(theta) integrates to 4 pi; spectral accuracy within 64 nodes
    from rough_hausdorff.quadrature import sphere_nodes

    for level in (1, 2):  # 32 and 64 nodes
        pts, w = sphere_nodes(2, level)
        val = float(np.dot(w, 2.0 + pts[:, 0]))
        if len(w) <= 64 and abs(val - 4 * math.pi) < 1e-12:
            return
    raise AssertionError("trapezoid rule not spectrally accurate within 64 nodes")


def test_region_integrals():
    res = integrate_region(1, lambda x: np.ones(x.shape[0]), Ball(2.0), 1e-9,
                           radial_exponent_at_zero=0.0)
    assert res.value == pytest.approx(4.0, abs=1e-8)
    res = integrate_region(2, lambda x: np.linalg.norm(x, axis=1), Ball(1.0), 1e-9,
                           radial_exponent_at_zero=1.0)
    assert res.value == pytest.approx(2 * math.pi / 3, rel=1e-8)
    res = integrate_region(1, lambda x: np.ones(x.shape[0]), Annulus(0), 1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_shell_region_to_infinity():
    res = integrate_region(1, lambda x: np.linalg.norm(x, axis=1) ** -3.0, Shell(1.0, math.inf),
                           1e-10, radial_exponent_at_infinity=-3.0)
    assert res.value == pytest.approx(1.0, abs=1e-9)  # 2 int_1^inf r^-3 dr


def test_interval_jump_alignment():
    res = integrate_interval(lambda t: np.where(t <= 3.0, 1.0, 0.0), 1.0, 8.0, 1e-12, align=(3.0,))
    assert res.value == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=3.0), st.floats(min_value=-4.0, max_value=-1.1))
def test_power_pair_halfline_matches_antiderivative(e0, einf):
    # t^{e0} on (0,1] glued to t^{einf} on (1,inf): value 1/(e0+1) - 1/(einf+1)
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        low = t <= 1.0
        out[low] = t[low] ** e0
        out[~low] = t[~low] ** einf
        return out

    expected = 1.0 / (e0 + 1.0) - 1.0 / (einf + 1.0)
    res = integrate_interval(ev, 0.0, math.inf, 1e-9, e0, einf)
    assert res.value == pytest.approx(expected, rel=1e-7)


def test_gauss_kronrod_pair_integrates_monomials():
    nodes, gauss = _NODES, _NODES[1::2]
    assert np.all(np.diff(nodes) > 0) and np.array_equal(nodes, -nodes[::-1]) and nodes[10] == 0.0
    assert np.array_equal(_K21, _K21[::-1]) and np.array_equal(_G10, _G10[::-1])
    for rule_nodes, weights, degree in ((nodes, _K21, 31), (gauss, _G10, 19)):
        for d in range(degree + 2):
            miss = abs(weights @ rule_nodes ** d - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
            assert miss > 1e-13 if d == degree + 1 else miss <= 1e-15, (len(weights), d, miss)


def _solve(a, b):
    """Gaussian elimination with partial pivoting, in the arithmetic of the entries."""
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    n = len(m)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(m[r][c]))
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    x = [0] * n
    for r in reversed(range(n)):
        x[r] = (m[r][n] - sum(m[r][k] * x[k] for k in range(r + 1, n))) / m[r][r]
    return x


def _poly(coeffs, x):
    """(value, derivative) of sum coeffs[i] x^i by Horner's rule."""
    v = d = 0
    for c in reversed(coeffs):
        d = d * x + v
        v = v * x + c
    return v, d


def test_gauss_kronrod_table_is_the_correctly_rounded_pair():
    # recomputed in 40-digit decimals: the G10 nodes are the roots of P10, the
    # other K21 nodes those of the Stieltjes polynomial E11 (x^11 + odd powers,
    # orthogonal to x^k P10 for k < 11); the K21 weights make K21 exact on
    # x^0 ... x^20, the G10 weights are 2 / ((1 - x^2) P10'(x)^2).  Every
    # literal must be the float nearest its value, so a changed digit fails
    # here even where the moments cannot see it.
    moment = lambda k: Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)  # of x^k on [-1, 1]
    p0, p10 = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, 10):  # Bonnet's recurrence; coefficients from the constant term up
        p0, p10 = p10, [((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip([0] + p10, p0 + [0, 0])]
    odd = range(1, 11, 2)
    inner = lambda j, k: sum(c * moment(i + j + k) for i, c in enumerate(p10))
    coeffs = _solve([[inner(j, k) for j in odd] for k in odd], [-inner(11, k) for k in odd])
    e11 = [Fraction(0)] * 11 + [Fraction(1)]
    for j, c in zip(odd, coeffs):
        e11[j] = c
    with localcontext() as ctx:
        ctx.prec = 40

        def positive_roots(poly):
            dec = [Decimal(c.numerator) / c.denominator for c in poly]
            roots = []
            for x in np.roots([float(c) for c in reversed(poly)]).real:
                x = Decimal(x)
                for _ in range(8):  # Newton from float guesses: 1e-13 -> below 1e-40
                    v, d = _poly(dec, x)
                    x -= v / d
                roots.append(x)
            return sorted((x for x in roots if x > Decimal("1e-3")), reverse=True)

        gauss = positive_roots(p10)
        kronrod = sorted(gauss + positive_roots(e11), reverse=True)
        wk = _solve([[2 * x ** d for x in kronrod] + [Decimal(int(d == 0))] for d in range(0, 21, 2)],
                    [Decimal(2) / (d + 1) for d in range(0, 21, 2)])
        dp10 = [Decimal(i * c.numerator) / c.denominator for i, c in enumerate(p10)][1:]
        wg = [2 / ((1 - x * x) * _poly(dp10, x)[0] ** 2) for x in gauss]
    assert _XK == tuple(float(x) for x in kronrod)
    assert _WK == tuple(float(w) for w in wk)
    assert _WG == tuple(float(w) for w in wg)
    assert set(_XK[1::2]) == {float(x) for x in gauss}


def _jumpy(c):
    # a jump at c and a kink at 2c force bisection of the panels around them
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < c, np.sqrt(t), 1.0 + np.abs(t - 2.0 * c))

    return g


def _panel(g, a: float, b: float, tol: float, depth: int = 0) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b]; returns (value, error estimate).

    Bisection only triggers on disagreement between G10 and K21, i.e.
    effectively at interior non-smooth points.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vk, err, accepted = _judge(np.asarray(g(mid + half * _NODES), dtype=float), half, tol, depth)
    if accepted:
        return vk, err
    lv, le = _panel(g, a, mid, 0.5 * tol, depth + 1)
    rv, re = _panel(g, mid, b, 0.5 * tol, depth + 1)
    return lv + rv, le + re


class _Counted:
    """An integrand that counts the points it is evaluated at."""

    def __init__(self, g):
        self.g = g
        self.points = 0

    def __call__(self, x, *owner):
        self.points += np.size(x)
        return self.g(x, *owner)


def test_breadth_first_loop_matches_depth_first_panel():
    # err is a difference of two rule values, so it agrees to rounding of the value
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.0, 6)
    b = a + rng.uniform(0.5, 3.0, 6)
    c = a + rng.uniform(0.1, 0.4, 6) * (b - a)  # interior, off the bisection points
    tol = np.array([1e-12, 1e-9, 1e-6, 1e-12, 1e-10, 1e-3])
    batched = _Counted(lambda x, i: _jumpy(c[i])(x))
    values, errs = _panels_breadth_first(batched, a, b, tol, np.arange(6), 6)
    points = 0
    for i in range(6):
        single = _Counted(_jumpy(c[i]))
        v, e = _panel(single, a[i], b[i], tol[i])
        points += single.points
        assert values[i] == pytest.approx(v, rel=1e-14)
        assert errs[i] == pytest.approx(e, abs=1e-14 * abs(v))
    assert batched.points == points > 6 * 21  # the same panel trees, with bisection


def test_breadth_first_loop_sums_panels_per_integral():
    # two integrals, each split over several panels with their own tolerances
    a = np.array([0.5, 1.0, 3.0, 0.5, 2.0])
    b = np.array([1.0, 3.0, 4.0, 2.0, 5.0])
    tol = np.array([1e-12, 1e-11, 1e-10, 1e-12, 1e-11])
    owner = np.array([0, 0, 0, 1, 1])
    cs = np.array([2.3, 1.7])
    values, errs = _panels_breadth_first(lambda x, i: _jumpy(cs[i])(x), a, b, tol, owner, 2)
    for i in range(2):
        parts = [_panel(_jumpy(cs[i]), a[j], b[j], tol[j]) for j in np.flatnonzero(owner == i)]
        total = sum(v for v, _ in parts)
        assert values[i] == pytest.approx(total, rel=1e-14)
        assert errs[i] == pytest.approx(sum(e for _, e in parts), abs=1e-14 * abs(total))


def test_intervals_match_interval_with_cuts_and_jumps():
    a = np.array([0.3, 1.0, 0.7, 2.0 ** -3])
    b = np.array([5.0, 1.5, 0.9, 4.0])
    # the second integral's jump sits on its lower edge, the last one's on a dyadic cut
    align = np.array([[1.7, math.inf], [1.0, 1.2], [0.8, -1.0], [1.0, 2.0]])
    cs = align[:, 0]
    values = integrate_intervals(lambda x, i: _jumpy(cs[i])(x), a, b, 1e-11, align=align).value
    for i in range(4):
        cuts = tuple(c for c in align[i] if math.isfinite(c))
        ref = integrate_interval(_jumpy(cs[i]), a[i], b[i], 1e-11, align=cuts).value
        assert values[i] == pytest.approx(ref, rel=1e-14)


def test_intervals_reject_reversed_empty_or_nan():
    g = lambda x, i: np.ones_like(x)
    assert integrate_intervals(g, np.zeros(0), np.zeros(0), 1e-9).value.shape == (0,)
    for a, b in (([2.0], [1.0]), ([1.0], [1.0]), ([-1.0], [1.0]), ([math.nan], [1.0]), ([1.0], [math.nan])):
        with pytest.raises(ValueError):
            integrate_intervals(g, np.array(a), np.array(b), 1e-9)


def _glued(x):
    # x^0.5 on (0, 1] glued to x^-3 beyond: exponents 0.5 at 0 and -3 at infinity
    x = np.asarray(x, dtype=float)
    return np.where(x <= 1.0, np.sqrt(x), np.minimum(x, 1.0) / x ** 3)


def _glued_integral(a: float, b: float) -> float:
    def upto(x):
        return x ** 1.5 / 1.5 if x <= 1.0 else 1.0 / 1.5 + 0.5 * (1.0 - x ** -2.0)

    return upto(b) - upto(a)


def test_intervals_mix_rows_reaching_zero_and_infinity():
    a = np.array([0.0, 3.0, 0.0, 0.25, 0.0, 1.5, 2.0 ** -20])
    b = np.array([0.7, math.inf, math.inf, 6.0, 2.0, 1.75, 2.0 ** 20])
    scale = 1.0 + np.arange(len(a))
    tol = 1e-11
    res = integrate_intervals(lambda x, i: scale[i] * _glued(x), a, b, tol, 0.5, -3.0)
    want = scale * np.array([_glued_integral(lo, hi) for lo, hi in zip(a, b)])
    np.testing.assert_allclose(res.value, want, rtol=1e-10, atol=0.0)
    assert np.all(res.abs_error_estimate + res.tail_bound <= np.maximum(tol, 1e-12 * np.abs(res.value)))
    reaches = (a == 0.0) | np.isinf(b)
    assert np.all(res.tail_bound[reaches] > 0.0) and np.all(res.tail_bound[~reaches] == 0.0)
    for i in range(len(a)):
        one = integrate_interval(lambda x: scale[i] * _glued(x), a[i], b[i], tol, 0.5, -3.0)
        row = (res.value[i], res.abs_error_estimate[i], res.tail_bound[i])
        assert (one.value, one.abs_error_estimate, one.tail_bound) == row


def test_runaway_refinement_stops_at_the_panel_budget():
    # next to an integrable singularity the halved child tolerances outrun the
    # panel errors: without a budget one level grows to millions of panels
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ToleranceNotMetError):
            integrate_interval(lambda x: np.abs(x - 1.2) ** -0.9, 1.01, 1.51, 1e-11)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 64e6


def test_intervals_cut_at_powers_of_two_in_one_integrand_call():
    seen = []

    def g(x, i):
        seen.append((len(x), sorted(set(i.tolist()))))
        return np.ones_like(x)

    values = integrate_intervals(g, np.array([1.0, 0.75]), np.array([8.0, 1.5]), 1e-9).value
    # cuts 1, 2, 4, 8 and 0.75, 1, 1.5: five panels of 21 nodes, accepted at once
    assert seen == [(5 * 21, [0, 1])]
    np.testing.assert_allclose(values, [7.0, 0.75], rtol=1e-14)


def test_intervals_in_blocks_match_one_call_per_block():
    # every integral lies inside the octave (1, 2), so each counts one panel
    # and the blocks are runs of _BLOCK_PANELS integrals
    count = 2 * _BLOCK_PANELS + 100
    a = 1.0 + np.linspace(0.01, 0.3, count)
    b = a + 0.5
    cs = a + 0.137 * (b - a)
    blocks = []

    def g(x, i):
        blocks.append((i.min(), i.max()))
        return _jumpy(cs[i])(x)

    values = integrate_intervals(g, a, b, 1e-11).value
    assert {lo // _BLOCK_PANELS for lo, hi in blocks} == {0, 1, 2}
    assert all(lo // _BLOCK_PANELS == hi // _BLOCK_PANELS for lo, hi in blocks)
    for start in range(0, count, _BLOCK_PANELS):
        part = slice(start, start + _BLOCK_PANELS)
        alone = integrate_intervals(lambda x, i: _jumpy(cs[part][i])(x), a[part], b[part], 1e-11).value
        assert np.array_equal(values[part], alone)

    # one integral of the second block cancels to 0 from terms of size 1e9:
    # rounding alone keeps its error estimate above the tolerance
    bad = _BLOCK_PANELS + 7

    def cancelling(x, i):
        wave = 1e9 * np.cos(16.0 * np.pi * (x - a[bad]) / (b[bad] - a[bad]))
        return np.where(i == bad, wave, _jumpy(cs[i])(x))

    with pytest.raises(ToleranceNotMetError):
        integrate_intervals(cancelling, a, b, 1e-11)


def test_intervals_memory_stays_bounded_in_blocks():
    # 5000 integrals of about 20 octaves each: about 10^5 first-level panels,
    # whose nodes alone would take 26 MB in one breadth-first level
    count = 5000
    a = 2.0 ** -10 * (1.0 + np.arange(count) / count)
    b = 2.0 ** 10 * (1.0 - 0.5 * np.arange(count) / count)
    tracemalloc.start()
    try:
        values = integrate_intervals(lambda x, i: 1.0 / x, a, b, 1e-9).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    np.testing.assert_allclose(values, np.log(b / a), rtol=1e-12)


def test_sphere_levels_evaluate_each_level_once(monkeypatch):
    # a general n = 3 function peaked toward x' = e1: its shells settle at
    # levels 3, 4 and 3, so the undecided set shrinks between steps
    seen = []
    original = quadrature._sphere_sums

    def counted(f, radii, pts, w):
        seen.extend((len(w), float(r)) for r in radii)
        return original(f, radii, pts, w)

    monkeypatch.setattr(quadrature, "_sphere_sums", counted)

    def peaked(x):
        r = np.linalg.norm(x, axis=1)
        return r / (1.1 - x[:, 0] / r)

    f = TestFunction(dim=3, general=peaked, support=(0.5, 4.0))
    level = _sphere_levels(3, f, np.array([1.0, 0.5, 1.5]), np.array([2.0, 4.0, 1.7]), 1e-10)
    assert level.tolist() == [3, 4, 3]
    assert len(seen) == len(set(seen))  # no (level, probe radius) is summed twice
