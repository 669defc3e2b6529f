import itertools
import math

import numpy as np
import pytest

from rough_hausdorff import quadrature, spaces
from rough_hausdorff.functions import (
    AngularProfile,
    TestFunction,
    indicator_shell,
    kernel_presets,
    power_function,
    separable,
)
from rough_hausdorff.operators import HausdorffOperator
from rough_hausdorff.quadrature import Annulus, Ball, ToleranceNotMetError, integrate_interval
from rough_hausdorff.spaces import (
    NormDivergentError,
    SpaceSpec,
    central_morrey_norm,
    herz_norm,
    lq_norm,
    morrey_herz_norm,
    two_weight_herz_norm,
    two_weight_morrey_herz_norm,
    two_weight_morrey_norm,
)
from rough_hausdorff.weights import Weight

W01 = Weight.power(0.0, 1)
W02 = Weight.power(0.0, 2)


def test_lq_norm_examples():
    assert lq_norm(indicator_shell(1, 0.5, 1.0), 2, W01) == pytest.approx(1.0, abs=1e-10)
    fb = separable(2, lambda r: np.asarray(r, dtype=float), support=(0.0, 1.0), exponents=(1.0, None))
    assert lq_norm(fb, 1, W02, Ball(1.0)) == pytest.approx(2 * math.pi / 3, rel=1e-9)
    fc = indicator_shell(2, 0.0, 1.0)
    assert lq_norm(fc, 2, Weight.power(1.0, 2), Ball(1.0)) == pytest.approx(math.sqrt(2 * math.pi / 3), rel=1e-9)


def test_lq_norm_rejects_quasinorm():
    with pytest.raises(ValueError):
        lq_norm(indicator_shell(1, 0.5, 1.0), 0.5, W01)


def test_lq_norm_divergence_detected():
    with pytest.raises(NormDivergentError):
        lq_norm(power_function(1, 0.0), 2, W01)


# |x|^-1/4 on (0, 1]: ||f||_{L^2(R)}^2 = 4
QUARTER = separable(1, lambda r: np.asarray(r, dtype=float) ** -0.25, support=(0.0, 1.0), exponents=(-0.25, None))


def test_lq_kind_honours_strict_and_reports_its_tail():
    spec = SpaceSpec("Lq", q=2, w1=W01)
    flat = power_function(1, 0.0)
    res = spec.evaluate(flat, strict=False)
    assert res.diverged and res.tail_bound == math.inf
    with pytest.raises(NormDivergentError):
        spec.evaluate(flat)
    # the shells of QUARTER below the window sum to a geometric tail
    res = spec.evaluate(QUARTER)
    assert not res.diverged and 0.0 < res.tail_bound < math.inf
    assert res.value + res.tail_bound == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("window", [(0, 4), (-1, 4), (-2, 4)])
def test_mass_below_a_window_inside_the_support_is_computed(window):
    # 1 on (0.4, 1], n = 1, p = 2: w(B_R) = 2R, so the central Morrey supremand is
    # (2 min(R, 1) - 0.8)^(1/2) (2R)^(-0.4) at lambda = -0.1, largest at R = 1, and the
    # Morrey-Herz one (alpha = 0, lambda = 1) is sqrt(1.2) at k0 = 0.  The grid reaches
    # down to the shell holding 0.4, so the mass below the window is integrated, not
    # continued from a lone edge term
    f = indicator_shell(1, 0.4, 1.0)
    cm = central_morrey_norm(f, 2, -0.1, W01, window)
    assert cm.value == pytest.approx(math.sqrt(1.2 * 2.0 ** -0.8), rel=1e-12, abs=0.0) and cm.attained_at == 0
    mh = morrey_herz_norm(f, 0.0, 1.0, 2, 2, W01, window)
    assert mh.value == pytest.approx(math.sqrt(1.2), rel=1e-12, abs=0.0) and mh.attained_at == 0


@pytest.mark.parametrize("cuts", [(2.0 ** -4, 1.0, 2.0), (1.0, 8.0, 32.0)], ids=["left", "right"])
def test_a_lone_edge_term_is_not_certified(cuts):
    # 1 on (0, c0] and (c1, c2]: the window's edge shell (1/32, 1/16] or (8, 16] holds
    # f's support, which crosses that edge, and its inner neighbour is empty, so the one
    # term shows no rate to continue (ratio inf) and the norm is not certified
    c0, c1, c2 = cuts
    f = separable(1, lambda r: np.where((r <= c0) | ((r > c1) & (r <= c2)), 1.0, 0.0),
                  support=(0.0, c2), exponents=(0.0, None), jumps=(c0, c1))
    res = herz_norm(f, 0.0, 2, 2, W01, (-4, 4), strict=False)
    assert res.diverged and res.tail_bound == math.inf
    with pytest.raises(NormDivergentError, match=r"^[^;]*ratio inf[^;]*$"):
        morrey_herz_norm(f, 0.0, 0.25, 2, 2, W01, (-4, 4))


def test_a_zero_edge_term_under_a_declared_power_at_0_is_not_certified():
    # 1 on (0, 2^-30] and (1, 2], declared ~ r^0 at 0: the Morrey-Herz supremand
    # (lambda = 1/2) is sqrt(2) for every k0 <= -30.  On (-24, 24) the left edge term
    # is 0 and shows nothing of that mass, so the norm is not certified; on (-32, 24)
    # the terms continue at their own ratio
    f = separable(1, lambda r: np.where((r <= 2.0 ** -30) | ((r > 1.0) & (r <= 2.0)), 1.0, 0.0),
                  support=(0.0, 2.0), exponents=(0.0, None), jumps=(2.0 ** -30, 1.0))
    assert morrey_herz_norm(f, 0.0, 0.5, 2, 2, W01, (-24, 24), strict=False).diverged
    res = morrey_herz_norm(f, 0.0, 0.5, 2, 2, W01, (-32, 24))
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("f", [
    QUARTER,
    TestFunction(dim=1, general=lambda x: np.exp(-np.linalg.norm(x, axis=1))),
], ids=["separable", "general"])
def test_lq_kind_is_herz_at_alpha_0(f):
    w = Weight.power(0.3, 1)
    for q in (1.5, 2.0):
        herz = SpaceSpec("Herz", alpha=0.0, p=q, q=q, w1=w).evaluate(f, window=(-12, 12))
        assert SpaceSpec("Lq", q=q, w1=w).evaluate(f, window=(-12, 12)) == herz
        assert lq_norm(f, q, w, window=(-12, 12)) == herz.value


def test_central_morrey_power_closed_form():
    # sup-form constant for |x|^{(n+gamma)lambda}: 2^0.1 * 0.8^{-1/2} (n=1, gamma=0), the
    # same at every radius, so also on a window whose partial sums miss most of the mass
    f = power_function(1, -0.1)
    expected = 2.0 ** 0.1 * 0.8 ** -0.5
    for window in (spaces.DEFAULT_WINDOW, (-4, 4)):
        res = central_morrey_norm(f, 2, -0.1, W01, window)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert res.tail_bound > 1e-3  # on (-4, 4): the mass below the window, which the continuation adds


def test_central_morrey_zero_and_homogeneity():
    f = indicator_shell(1, 0.5, 2.0)
    base = central_morrey_norm(f, 2, -0.1, W01).value
    scaled = central_morrey_norm(f.scaled(-3.0), 2, -0.1, W01).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)
    zero = separable(1, lambda r: np.zeros_like(np.asarray(r, dtype=float)), support=(0.5, 1.0))
    assert central_morrey_norm(zero, 2, -0.1, W01).value == 0.0


def test_herz_single_annulus():
    f = indicator_shell(1, 0.5, 1.0)
    assert herz_norm(f, 0.0, 2, 2, W01).value == pytest.approx(1.0, abs=1e-10)
    # k = 0 annulus: the 2^{k alpha p} factor is 1 regardless of alpha
    assert herz_norm(f, 3.0, 2, 2, W01).value == pytest.approx(1.0, abs=1e-10)


def test_herz_collapses_to_lebesgue():
    f = indicator_shell(1, 0.25, 4.0)
    h = herz_norm(f, 0.0, 2, 2, W01).value
    l2 = lq_norm(f, 2, W01)
    assert abs(h - l2) < 1e-10


def test_morrey_herz_lambda_zero_is_herz():
    f = indicator_shell(1, 0.5, 1.0)
    for alpha in (-0.3, 0.0, 0.7):
        mh = morrey_herz_norm(f, alpha, 0.0, 2, 2, W01).value
        h = herz_norm(f, alpha, 2, 2, W01).value
        assert abs(mh - h) < 1e-10


def test_morrey_herz_power_chunk_formula():
    # chunks of |x|^{-alpha - n/q - gamma/q + lambda} against the closed form
    n, gamma, q, alpha, lam = 1, 0.0, 2.0, 0.1, 0.5
    w = Weight.power(gamma, n)
    expo = -(alpha + n / q + gamma / q - lam)
    f = power_function(n, expo)
    s = lam - alpha
    onorm_w = (2.0) ** (1.0 / 2.0)  # ||1||_{L^2(S^0, w)} = sqrt(2)
    for k in (0, 1, 2):
        chunk = lq_norm(f, q, w, Annulus(k))
        closed = 2.0 ** (k * s) * abs((1.0 - 2.0 ** (-q * s)) / (q * s)) ** (1.0 / q) * onorm_w
        assert chunk == pytest.approx(closed, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("window", [(-4, 2), (-4, 3), (-4, 30)])
def test_morrey_herz_continuation_matches_the_closed_form(window):
    # |x|^e on (1, inf), n = 1, alpha = 0, p = q = 2: tau_k = tau_1 rho^(k-1) for k >= 1, and
    # the supremand 2^(-lam k) (tau_1 (rho^k - 1) / (rho - 1))^(1/p) peaks at k = 4, beyond
    # the first two windows; the two-weight form carries w1(B_k)^(-lam) = 2^(-lam (k + 1))
    e, lam, p, q = -0.05, 0.5, 2.0, 2.0
    f = separable(1, lambda r: np.asarray(r, dtype=float) ** e, support=(1.0, math.inf), exponents=(None, e))
    tau1 = 2.0 * (2.0 ** (2 * e + 1) - 1.0) / (2 * e + 1)
    rho = 2.0 ** (p * (e + 1.0 / q))
    closed = max(2.0 ** (-lam * k) * (tau1 * (rho ** k - 1.0) / (rho - 1.0)) ** (1.0 / p) for k in range(1, 60))
    res = morrey_herz_norm(f, 0.0, lam, p, q, W01, window)
    assert res.value == pytest.approx(closed, rel=1e-12, abs=0.0)
    two = two_weight_morrey_herz_norm(f, 0.0, lam, p, q, W01, W01, window)
    assert two.value == pytest.approx(closed * 2.0 ** -lam, rel=1e-12, abs=0.0)


def test_morrey_herz_without_decay_at_lambda_0_diverges():
    # lambda = 0 and constant shell terms: the sum grows by tau per step without bound
    f = power_function(1, -0.5)
    res = morrey_herz_norm(f, 0.0, 0.0, 2, 2, W01, window=(-4, 4), strict=False)
    assert res.diverged and res.tail_bound == math.inf
    with pytest.raises(NormDivergentError):
        morrey_herz_norm(f, 0.0, 0.0, 2, 2, W01, window=(-4, 4))


def test_morrey_herz_adds_the_mass_below_the_window():
    # |x|^-0.3 on (0, 1], n = 1, alpha = 0, lambda = 0.1, p = q = 2: the partial sums are
    # 5 2^(0.4 k0) for k0 <= 0, so the supremand sqrt(5) 2^(0.1 k0) peaks at k0 = 0,
    # whatever part of the sum lies below the window
    f = separable(1, lambda r: np.asarray(r, dtype=float) ** -0.3, support=(0.0, 1.0), exponents=(-0.3, None))
    for k in range(4, 25, 4):
        res = morrey_herz_norm(f, 0.0, 0.1, 2, 2, W01, window=(-k, k))
        assert res.value == pytest.approx(math.sqrt(5.0), rel=1e-12, abs=0.0)
        assert res.attained_at == 0 and res.tail_bound > 0.0


@pytest.mark.parametrize("window", [(-24, 24), (-22, 24), (-40, 24)])
def test_morrey_herz_keeps_a_small_mass_below_the_window(window):
    # 1 on (0, 2^-20] and on (2^20, 2^21], n = 1, alpha = 0, lambda = 1/2, p = q = 2: the
    # partial sums are 2^(k0 + 1) for k0 <= -20, so the supremand is sqrt(2) there; at the
    # left edge the shell term is about 2^-45 of the window's sum, and the prefactor
    # 2^(-k0/2) magnifies the mass below the window all the same
    def radial(r):
        r = np.asarray(r, dtype=float)
        return np.where((r <= 2.0 ** -20) | ((r > 2.0 ** 20) & (r <= 2.0 ** 21)), 1.0, 0.0)

    f = separable(1, radial, support=(0.0, 2.0 ** 21), exponents=(0.0, None), jumps=(2.0 ** -20, 2.0 ** 20))
    res = morrey_herz_norm(f, 0.0, 0.5, 2, 2, W01, window)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)
    assert not res.diverged and res.tail_bound > 0.0


def test_no_tail_beyond_an_edge_the_support_does_not_cross():
    # (1/2, 1] is the shell k = 0: nothing lies beyond a window that starts or ends
    # there, so a lone edge term is not continued, not even under a prefactor that
    # falls faster than 2^(1/p) per step
    f = indicator_shell(1, 0.5, 1.0)
    res = morrey_herz_norm(f, 0.0, 1.0, 2, 2, W01, window=(0, 4))
    assert not res.diverged and res.tail_bound == 0.0 and res.value == pytest.approx(1.0, abs=1e-10)
    assert herz_norm(f, 0.0, 2, 2, W01, window=(0, 0)).tail_bound == 0.0


@pytest.mark.parametrize("f", [
    QUARTER,
    indicator_shell(1, 0.5, 4.0),
    power_function(1, -0.5),
    separable(1, lambda r: np.asarray(r, dtype=float) ** -0.75, support=(1.0, math.inf), exponents=(None, -0.75)),
], ids=["quarter", "shell", "flat", "decaying"])
def test_morrey_herz_at_lambda_0_is_herz_with_its_tail(f):
    for alpha in (-0.2, 0.0, 0.1):
        for mh, h in ((morrey_herz_norm(f, alpha, 0.0, 2, 2, W01, (-8, 8), strict=False),
                       herz_norm(f, alpha, 2, 2, W01, (-8, 8), strict=False)),
                      (two_weight_morrey_herz_norm(f, alpha, 0.0, 2, 2, W01, W01, (-8, 8), strict=False),
                       two_weight_herz_norm(f, alpha, 2, 2, W01, W01, (-8, 8), strict=False))):
            assert mh.diverged == h.diverged
            if not h.diverged:
                assert mh.value == pytest.approx(h.value + h.tail_bound, rel=1e-12, abs=0.0)


def _recurrence_sup(d, tau, rho, u):
    # d_j = u d_(j-1) + tau (u rho)^j = (d + r) u^j - r (u rho)^j, run until both
    # geometric parts are constant or spent
    best = cur = d
    for j in range(1, 100_000):
        cur = u * cur + tau * (u * rho) ** j
        best = max(best, cur)
        if all(x > 1.0 - 1e-12 or x ** j < 1e-18 for x in (u, u * rho)):
            return best
    raise AssertionError("the recurrence did not settle")


def test_right_continuation_closed_form_matches_the_recurrence():
    rng = np.random.default_rng(5)
    cases = [(2.0, 1.0, rho, 1.0) for rho in (0.0, 0.3, 0.9)]  # u = 1
    for _ in range(200):
        d, tau, u = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3), 2.0 ** -rng.uniform(0.05, 3.0)
        cases += [(d, tau, rng.uniform(0.0, 1.0 / u), u), (d, tau, 1.0, u), (d, tau, 1.0 / u, u)]
    for d, tau, rho, u in cases:
        assert spaces._right_sup(d, tau, rho, u) == pytest.approx(_recurrence_sup(d, tau, rho, u), rel=1e-11)


def test_two_weight_morrey_identification():
    lam = -0.1
    p = 2
    f = indicator_shell(1, 0.0, 1.0)
    tw = two_weight_morrey_norm(f, p, 1 + lam * p, W01, W01).value
    cm = central_morrey_norm(f, p, lam, W01).value
    assert abs(tw - cm) < 1e-10


def test_two_weight_morrey_sup_example():
    f = indicator_shell(1, 0.0, 1.0)
    res = two_weight_morrey_norm(f, 1, 1.0, W01, W01)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_two_weight_morrey_rejects_p_below_1():
    # as central Morrey does: p < 1 would only give a quasi-norm
    f = indicator_shell(1, 0.5, 1.0)
    with pytest.raises(ValueError):
        two_weight_morrey_norm(f, 0.5, 0.5, W01, W01)
    with pytest.raises(ValueError):
        SpaceSpec(kind="TwoWeightMorrey", p=0.5, lam=0.5, w1=W01, w2=W01)


def test_two_weight_herz_exponent_bookkeeping():
    # w1(B_k) = 2^{k+1} for gamma=0, n=1: two-weight and one-weight Herz
    # norms of a single-annulus function differ by exactly 2^alpha
    f = indicator_shell(1, 0.5, 1.0)
    alpha = 1.0
    tw = two_weight_herz_norm(f, alpha, 2, 2, W01, W01).value
    ow = herz_norm(f, alpha, 2, 2, W01).value
    assert tw / ow == pytest.approx(2.0 ** alpha, rel=1e-10)


def test_two_weight_herz_alpha_zero_single_chunk():
    f = indicator_shell(1, 0.5, 1.0)
    assert two_weight_herz_norm(f, 0.0, 2, 2, W01, W01).value == pytest.approx(
        lq_norm(f, 2, W01, Annulus(0)), abs=1e-10
    )


def test_two_weight_morrey_herz_lambda_zero():
    f = indicator_shell(1, 0.5, 1.0)
    mh = two_weight_morrey_herz_norm(f, 0.0, 0.0, 2, 2, W01, W01).value
    h = two_weight_herz_norm(f, 0.0, 2, 2, W01, W01).value
    assert abs(mh - h) < 1e-10


def test_two_weight_morrey_herz_single_annulus():
    f = indicator_shell(1, 0.5, 1.0)
    res = two_weight_morrey_herz_norm(f, 0.0, 0.5, 1, 1, W01, W01)
    assert res.value == pytest.approx(2.0 ** -0.5, rel=1e-10)
    assert res.attained_at == 0


def test_dilation_covariance():
    # ||f(s .)||_{q, w} = s^{-(n+gamma)/q} ||f||_{q, w} for power weights
    w = Weight.power(0.5, 1)
    f = indicator_shell(1, 0.5, 2.0)
    for s in (0.5, 2.0, 3.7):
        fs = separable(1, lambda r, _s=s: f.radial_values(_s * np.asarray(r, dtype=float)),
                       support=(0.5 / s, 2.0 / s))
        lhs = lq_norm(fs, 2, w)
        rhs = s ** (-(1 + 0.5) / 2) * lq_norm(f, 2, w)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_monotone_truncation():
    f = separable(1, lambda r: np.exp(-np.asarray(r, dtype=float)),
                  support=(0.0, math.inf), exponents=(0.0, None), name="exp")
    # exp decays superpolynomially: declare -inf behaviour via support hint instead
    f = separable(1, lambda r: np.where(np.asarray(r) <= 40.0, np.exp(-np.asarray(r)), 0.0),
                  support=(0.0, 40.0), exponents=(0.0, None), name="exp")
    prev = 0.0
    for win in ((-4, 4), (-8, 8), (-16, 16)):
        val = herz_norm(f, 0.3, 2, 2, W01, window=win).value
        assert val >= prev - 1e-15
        prev = val


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(kind="CentralMorrey", p=2.0, lam=-0.1, w1=W01, q=2.0)  # extraneous q
    with pytest.raises(ValueError):
        SpaceSpec(kind="Herz", alpha=0.0, p=2.0, q=2.0)  # missing weight
    with pytest.raises(ValueError):
        SpaceSpec(kind="CentralMorrey", p=0.5, lam=-0.1, w1=W01)  # p < 1
    out_of_range = [
        dict(kind="Herz", alpha=0.0, p=1.0, q=0.5, w1=W01),
        dict(kind="MorreyHerz", alpha=0.0, lam=0.5, p=1.0, q=0.5, w1=W01),
        dict(kind="TwoWeightHerz", alpha=0.0, p=1.0, q=0.5, w1=W01, w2=W01),
        dict(kind="TwoWeightMorreyHerz", alpha=0.0, lam=0.5, p=1.0, q=0.5, w1=W01, w2=W01),
        dict(kind="Lq", q=0.5, w1=W01),
        dict(kind="CentralMorrey", p=2.0, lam=-0.5, w1=W01),  # 1 + lambda p = 0
    ]
    for params in out_of_range:  # rejected when built, not first when evaluated
        with pytest.raises(ValueError):
            SpaceSpec(**params)
    spec = SpaceSpec(kind="MorreyHerz", alpha=0.1, lam=0.5, p=2.0, q=2.0, w1=W01)
    res = spec.evaluate(indicator_shell(1, 0.5, 1.0))
    assert res.value > 0


def test_absolute_homogeneity_all_norms():
    evals = [
        lambda g: herz_norm(g, 0.3, 2, 2, W01).value,
        lambda g: morrey_herz_norm(g, 0.1, 0.4, 2, 2, W01).value,
        lambda g: central_morrey_norm(g, 2, -0.1, W01).value,
        lambda g: two_weight_morrey_norm(g, 2, 0.5, W01, W01).value,
        lambda g: two_weight_herz_norm(g, 0.3, 2, 2, W01, W01).value,
        lambda g: two_weight_morrey_herz_norm(g, 0.1, 0.4, 2, 2, W01, W01).value,
        lambda g: lq_norm(g, 2, W01),
    ]
    power = separable(1, lambda r: np.asarray(r, dtype=float) ** 0.7, support=(0.0, 3.0), exponents=(0.7, None))
    for f, ev in itertools.product((indicator_shell(1, 0.5, 2.0), power), evals):
        base = ev(f)
        assert ev(f.scaled(-2.5)) == pytest.approx(2.5 * base, rel=1e-12)
        # at p = q = 2 a power-of-two scaling scales every integral, partial sum and
        # root exactly, so one engine leaves no room for rounding.  This needs f and
        # c f to refine to the same panels: the panel test is partly absolute
        # (err <= tol), and both inputs are accepted at the same levels under NORM_TOL
        for c in (2.0, 0.5, -8.0):
            assert ev(f.scaled(c)) == abs(c) * base


@pytest.mark.parametrize("kind,params", [
    ("Lq", dict(q=2.0, w1=W01)),
    ("CentralMorrey", dict(p=2.0, lam=-0.1, w1=W01)),
    ("Herz", dict(alpha=0.0, p=2.0, q=2.0, w1=W01)),
    ("MorreyHerz", dict(alpha=0.0, lam=0.5, p=2.0, q=2.0, w1=W01)),
    ("TwoWeightMorrey", dict(p=2.0, lam=0.5, w1=W01, w2=W01)),
    ("TwoWeightHerz", dict(alpha=0.0, p=2.0, q=2.0, w1=W01, w2=W01)),
    ("TwoWeightMorreyHerz", dict(alpha=0.0, lam=0.5, p=2.0, q=2.0, w1=W01, w2=W01)),
])
def test_every_kind_rejects_a_reversed_window(kind, params):
    with pytest.raises(ValueError, match="k_min <= k_max"):
        SpaceSpec(kind, **params).evaluate(indicator_shell(1, 0.5, 1.0), window=(4, -4))


def test_norm_result_serialization():
    res = herz_norm(indicator_shell(1, 0.5, 1.0), 0.0, 2, 2, W01)
    js = res.to_json()
    assert set(js) == {"value", "k_min", "k_max", "tail_bound", "attained_at"}


def test_general_path_declares_weight_exponent_at_zero():
    # |f|^p w ~ r^(p e + gamma) at 0: converges although p e = -1.04 <= -1
    w = Weight.power(0.3, 1)
    lam = -0.4
    e = (1.0 + 0.3) * lam
    general = TestFunction(dim=1, general=lambda x: np.linalg.norm(x, axis=1) ** e,
                           radial_exponent_at_zero=e, radial_exponent_at_infinity=e)
    twin = central_morrey_norm(power_function(1, e), 2, lam, w, strict=False)
    res = central_morrey_norm(general, 2, lam, w, strict=False)
    assert res.value == pytest.approx(twin.value, rel=1e-12)


def _general_shell(n, e, a, b):
    """|x|^e on a < |x| <= b as a general point function.  Points whose norm
    rounds to just outside an edge count as inside, so the value is constant
    on each edge sphere."""
    lo, hi = a * (1.0 - 1e-12), b * (1.0 + 1e-12)

    def f(x):
        r = np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)), axis=1)
        inside = (r > lo) & (r <= hi)
        return np.where(inside, np.where(inside, r, 1.0) ** e, 0.0)

    return TestFunction(dim=n, general=f, support=(a, b), name="general_shell")


W_TILT2 = Weight(0.3, lambda p: 2.0 + (p[:, 0] ** 2 - p[:, 1] ** 2) / 2.0, 2, angular_lower_bound=1.5)


@pytest.mark.parametrize("n,norm", [
    (2, lambda f: herz_norm(f, 0.2, 2.0, 1.5, W_TILT2).value),
    (1, lambda f: morrey_herz_norm(f, -0.1, 0.3, 2.0, 2.5, Weight.power(0.3, 1)).value),
    (1, lambda f: central_morrey_norm(f, 2.0, -0.2, Weight.power(0.3, 1)).value),
    (2, lambda f: lq_norm(f, 2.0, W_TILT2, Ball(1.0))),
], ids=["herz_n2_tilted", "morrey_herz_n1", "central_morrey_n1", "lq_ball_n2_tilted"])
def test_general_path_cuts_panels_at_support_edges(n, norm):
    # edges just inside the dyadic annulus (1/2, 2]: without a cut there the
    # jump hides in the node-free gap next to a panel edge
    a, b, e = 0.501, 1.9995, 0.5
    twin = norm(separable(n, lambda r: np.asarray(r, dtype=float) ** e, support=(a, b)))
    assert norm(_general_shell(n, e, a, b)) == pytest.approx(twin, rel=1e-9)


def test_general_path_skips_shells_outside_the_support(monkeypatch):
    # only the annulus k = 1 meets the support (1, 2] of the 49 in the window
    calls = []  # one entry per shell solved
    shells = spaces.integrate_shells

    def counted(*args, **kwargs):
        calls.extend(args[2])
        return shells(*args, **kwargs)

    monkeypatch.setattr(spaces, "integrate_shells", counted)
    w = Weight.power(0.3, 1)
    res = herz_norm(_general_shell(1, 0.5, 1.0, 2.0), 0.2, 2.0, 1.5, w, window=(-24, 24))
    assert len(calls) <= 1
    twin = herz_norm(separable(1, lambda r: np.asarray(r, dtype=float) ** 0.5, support=(1.0, 2.0)),
                     0.2, 2.0, 1.5, w, window=(-24, 24))
    assert res.value == pytest.approx(twin.value, rel=1e-9)


def test_general_sphere_rule_stops_at_the_top_level(monkeypatch):
    # sqrt(|x3| / |x|) has a cusp on the equator, so no S^2 rule level settles
    # its sphere sums to NORM_TOL; the level choice stops at level 7
    # (2,097,152 nodes), as integrate_sphere does, and never builds level 8
    # (134,217,728 nodes, 3.2 GB of points)
    nodes = quadrature.sphere_nodes

    def guarded(n, level):
        if level > 7:
            raise AssertionError(f"sphere rule level {level} requested")
        return nodes(n, level)

    monkeypatch.setattr(quadrature, "sphere_nodes", guarded)
    cusp = TestFunction(dim=3, general=lambda x: np.sqrt(np.abs(x[:, 2]) / np.sqrt(np.einsum("ij,ij->i", x, x))),
                        support=(1.0, 2.0), name="equator_cusp")
    with pytest.raises(ToleranceNotMetError, match="level 7"):
        lq_norm(cusp, 2.0, Weight.power(0.0, 3))


def _both_ends():
    # support (0, inf) with a declared jump at 1.3: ~ r^0.5 at 0, ~ r^-3 at infinity
    def radial(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.3, r ** 0.5, 2.0 * r ** -3.0)

    angular = lambda p: 1.0 + 0.5 * np.atleast_2d(p)[:, 0] ** 2
    return separable(2, radial, angular, support=(0.0, math.inf), exponents=(0.5, -3.0), jumps=(1.3,))


_CLIPPED = separable(2, lambda r: np.asarray(r, dtype=float) ** 0.5 + 1.0, support=(0.3, 5.0), jumps=(1.0,))
_HERZ_EDGES = 2.0 ** np.arange(-6, 5)
_MORREY_EDGES = 2.0 ** (np.arange(-20, 17) / spaces.GRID_PER_OCTAVE)


@pytest.mark.parametrize("f", [_both_ends(), _CLIPPED], ids=["both_ends", "clipped"])
@pytest.mark.parametrize("edges", [
    np.concatenate(([0.0], _HERZ_EDGES, [math.inf])),
    np.concatenate(([0.0], _MORREY_EDGES, [math.inf])),
], ids=["herz_window", "morrey_grid"])
def test_batched_shells_match_per_shell_integrals(f, edges):
    q, tol = 1.5, spaces.NORM_TOL
    batched = spaces._shell_integrals(f, q, W_TILT2, edges)
    sphere = spaces._sphere_factor(f, q, W_TILT2, tol)
    radial = lambda r: np.abs(f.radial_values(r)) ** q * np.asarray(r, dtype=float) ** (W_TILT2.gamma + 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        lo, hi = max(lo, f.support[0]), min(hi, f.support[1])
        if hi <= lo:
            assert batched[i] == 0.0
            continue
        e0 = q * 0.5 + W_TILT2.gamma + 1 if lo == 0.0 else None
        einf = q * -3.0 + W_TILT2.gamma + 1 if math.isinf(hi) else None
        ref = integrate_interval(radial, lo, hi, tol, exponent_at_zero=e0, exponent_at_infinity=einf,
                                 align=f.cut_radii).value * sphere
        assert batched[i] == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_image_norm_solves_shells_in_few_profile_batches(monkeypatch):
    calls = []
    original = HausdorffOperator.radial_apply

    def counted(self, f, r, tol=1e-9):
        calls.append(np.size(r))
        return original(self, f, r, tol)

    monkeypatch.setattr(HausdorffOperator, "radial_apply", counted)
    hardy = HausdorffOperator(kernel_presets("hardy", 1), AngularProfile.constant(1.0, 1), 1)
    bump = separable(1, lambda r: np.asarray(r, dtype=float) ** 0.5 + 1.0, support=(0.25, 4.0), jumps=(1.0,))
    window = (-6, 6)
    res = central_morrey_norm(hardy.image(bump), 2.0, -0.2, W01, window=window)
    shells = spaces.GRID_PER_OCTAVE * (window[1] - window[0]) + 1
    assert res.value > 0.0
    assert 0 < len(calls) < shells
