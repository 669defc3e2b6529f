import math

import numpy as np
import pytest

from rough_hausdorff.bounds import c1_signed, c3_signed
from rough_hausdorff.extremals import (
    conjugate,
    herz_extremal,
    morrey_extremal,
    morrey_herz_extremal,
)
from rough_hausdorff.functions import AngularProfile, kernel_presets, omega_norm
from rough_hausdorff.operators import HausdorffOperator
from rough_hausdorff.quadrature import Annulus
from rough_hausdorff.spaces import central_morrey_norm, herz_norm, lq_norm, morrey_herz_norm
from rough_hausdorff.weights import Weight

OM1 = AngularProfile.constant(1.0, 1)
W01 = Weight.power(0.0, 1)


def test_conjugate():
    assert conjugate(2.0) == 2.0
    assert conjugate(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        conjugate(1.0)


def test_morrey_extremal_closed_form_norm():
    fam = morrey_extremal(OM1, W01, -0.1, 2.0)
    expected = 2.0 ** 0.1 * 0.8 ** -0.5 * 2.0 ** -0.5 * 2.0 ** 0.5
    assert fam.closed_form_norm == pytest.approx(expected, rel=1e-12)
    numeric = central_morrey_norm(fam.function, 2.0, -0.1, W01).value
    assert numeric == pytest.approx(fam.closed_form_norm, rel=1e-4)


@pytest.mark.parametrize("n,gamma,lam,p,omexpr", [
    (1, 0.3, -0.15, 2.5, None),
    (2, 0.5, -0.08, 2.0, None),
    (2, 0.0, -0.1, 2.0, "2 + cos(theta)"),
])
def test_morrey_extremal_closed_form_vs_quadrature(n, gamma, lam, p, omexpr):
    w = Weight.power(gamma, n)
    om = AngularProfile.constant(1.0, n) if omexpr is None else AngularProfile.from_expression(
        omexpr, n, nonvanishing=True)
    fam = morrey_extremal(om, w, lam, p)
    numeric = central_morrey_norm(fam.function, p, lam, w).value
    assert numeric == pytest.approx(fam.closed_form_norm, rel=1e-4)


def test_morrey_extremal_image_is_pure_power():
    fam = morrey_extremal(OM1, W01, -0.1, 2.0)
    assert fam.closed_form_image_exponent == pytest.approx(-0.1)
    op = HausdorffOperator(kernel_presets("hardy", 1), OM1, 1)
    amp = c1_signed(kernel_presets("hardy", 1), 1, 0.0, -0.1).value * omega_norm(OM1, 2.0) ** 2
    for r in (0.5, 1.0, 4.0):
        val = op.radial_apply(fam.function, r, tol=1e-11)
        assert val == pytest.approx(amp * r ** -0.1, rel=1e-8)


def test_morrey_extremal_lambda_zero_is_angular_only():
    fam = morrey_extremal(OM1, W01, 0.0, 2.0)
    vals = fam.function.radial_values(np.array([0.1, 1.0, 17.0]))
    assert np.allclose(vals, 1.0)


def test_morrey_extremal_rejects_p_one():
    with pytest.raises(ValueError):
        morrey_extremal(OM1, W01, -0.1, 1.0)


def test_morrey_extremal_rejects_vanishing_symbol():
    om = AngularProfile.from_expression("cos(theta)", 2, nonvanishing=False)
    w = Weight.power(0.0, 2)
    # p = 1.5 gives p' = 3 > 2: the angular exponent is positive, no blow-up
    morrey_extremal(om, w, -0.1, 1.5)
    # p = 4 gives p' = 4/3 < 2: |Omega|^{p'-2} blows up where Omega vanishes
    with pytest.raises(ValueError):
        morrey_extremal(om, w, -0.1, 4.0)


def test_herz_extremal_support_and_chunks():
    fam = herz_extremal(OM1, W01, 2.0, 0.5, 10)
    f = fam.function
    assert f(np.array([[0.9], [-0.5]])).tolist() == [0.0, 0.0]
    # chunk formula is exact for k >= 1 and zero on/below the unit ball
    assert fam.chunk_norm(-3) == 0.0
    assert fam.chunk_norm(0) == 0.0
    for k in (1, 2, 3):
        closed = fam.chunk_norm(k)
        quad = lq_norm(f, 2.0, W01, Annulus(k))
        assert quad == pytest.approx(closed, rel=1e-8)


def test_herz_extremal_chunk_formula_value():
    # a = alpha + 2^-m; chunk 1 = 2^{-a} |(2^{2a} - 1)/(2a)|^{1/2} * sqrt(2)
    m, alpha, q = 10, 0.5, 2.0
    fam = herz_extremal(OM1, W01, q, alpha, m)
    a = alpha + 2.0 ** -m
    expected = 2.0 ** -a * abs((2.0 ** (q * a) - 1.0) / (a * q)) ** (1.0 / q) * math.sqrt(2.0)
    assert fam.chunk_norm(1) == pytest.approx(expected, rel=1e-12)


def test_herz_extremal_norm_closed_form_vs_numeric():
    # small m: the geometric tail is fast enough for a windowed cross-check
    fam = herz_extremal(OM1, W01, 2.0, 0.5, 2)
    closed = fam.herz_norm_closed_form(2.0)
    res = herz_norm(fam.function, 0.5, 2.0, 2.0, W01, window=(-2, 40))
    assert res.value <= closed <= res.value + res.tail_bound + 1e-9
    assert res.value == pytest.approx(closed, rel=1e-3)


def test_herz_extremal_partial_sums_geometric():
    fam = herz_extremal(OM1, W01, 2.0, 0.5, 6)
    p = 2.0
    terms = [2.0 ** (k * 0.5 * p) * fam.chunk_norm(k) ** p for k in range(1, 30)]
    ratios = [terms[i + 1] / terms[i] for i in range(len(terms) - 1)]
    assert all(r == pytest.approx(2.0 ** (-p * 2.0 ** -6), rel=1e-12) for r in ratios)


def test_herz_extremal_parameter_guards():
    with pytest.raises(ValueError):
        herz_extremal(OM1, W01, 2.0, 0.5, 25)  # m too large: 2^-m underflow
    with pytest.raises(ValueError):
        herz_extremal(OM1, W01, 2.0, -2.0 ** -3, 3)  # alpha + 2^-m = 0
    with pytest.raises(ValueError):
        herz_extremal(OM1, W01, 1.0, 0.5, 3)  # q = 1


def test_morrey_herz_extremal_chunks():
    n, gamma, q, alpha, lam = 1, 0.0, 2.0, 0.1, 0.5
    fam = morrey_herz_extremal(OM1, W01, q, alpha, lam)
    for k in (-1, 0, 2):
        quad = lq_norm(fam.function, q, W01, Annulus(k))
        assert quad == pytest.approx(fam.chunk_norm(k), rel=1e-8)


def test_morrey_herz_extremal_constant_chunk_case():
    # constant-in-k chunks happen at lambda = alpha (the ln 2 case)
    q = 2.0
    fam = morrey_herz_extremal(OM1, W01, q, 0.5, 0.5)
    c0, c3 = fam.chunk_norm(0), fam.chunk_norm(3)
    assert c0 == pytest.approx(c3)
    assert c0 == pytest.approx(math.log(2.0) ** 0.5 * math.sqrt(2.0), rel=1e-12)
    quad = lq_norm(fam.function, q, W01, Annulus(2))
    assert quad == pytest.approx(c0, rel=1e-8)


def test_morrey_herz_extremal_image_exponent():
    # exponent arithmetic: -alpha - n/q - gamma/q + lambda
    fam = morrey_herz_extremal(OM1, W01, 2.0, 0.0, 0.5)
    assert fam.closed_form_image_exponent == pytest.approx(-0.0 - 0.5 - 0.0 + 0.5)
    fam2 = morrey_herz_extremal(OM1, Weight.power(0.0, 1), 2.0, 0.1, 0.5)
    assert fam2.closed_form_image_exponent == pytest.approx(-0.1 - 0.5 + 0.5)


def test_morrey_herz_norm_closed_form_vs_numeric():
    fam = morrey_herz_extremal(OM1, W01, 2.0, 0.1, 0.5)
    closed = fam.herz_norm_closed_form(2.0)
    numeric = morrey_herz_norm(fam.function, 0.1, 0.5, 2.0, 2.0, W01).value
    assert numeric == pytest.approx(closed, rel=1e-6)


def test_pushforward_constant_morrey_herz():
    n, gamma, q, alpha, lam = 1, 0.0, 2.0, 0.1, 0.5
    phi = kernel_presets("hardy", 1)
    fam = morrey_herz_extremal(OM1, W01, q, alpha, lam)
    op = HausdorffOperator(phi, OM1, 1)
    amp = c3_signed(phi, n, gamma, q, lam, alpha).value * omega_norm(OM1, 2.0) ** 2
    e = fam.closed_form_image_exponent
    vals = [op.radial_apply(fam.function, r, tol=1e-11) / r ** e for r in (0.3, 1.0, 5.0)]
    for v in vals:
        assert v == pytest.approx(amp, rel=1e-4)
