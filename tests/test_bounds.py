import math

import numpy as np
import pytest

from rough_hausdorff.bounds import (
    c1,
    c1_signed,
    c2,
    c3,
    c3_signed,
    c4,
    c5,
    herz_lower_integral,
    lower_bound_factor,
)
from rough_hausdorff.functions import AngularProfile, RadialKernel, kernel_presets, omega_norm
from rough_hausdorff.weights import Weight


def test_c1_examples():
    assert c1(kernel_presets("hardy", 2), 2, 0.0, -0.25).value == pytest.approx(2.0 / 3.0, rel=1e-9)
    res = c1(kernel_presets("adjoint_hardy"), 1, 0.0, 0.0)
    assert res.divergent and res.value is None
    phi = RadialKernel(lambda t: np.exp(-np.asarray(t)) * np.asarray(t), 1.0, -math.inf, "nonnegative")
    assert c1(phi, 1, 0.0, 0.0).value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("phi", [kernel_presets("hardy", 1), kernel_presets("power", -2.5, 1.0, math.inf),
                                 kernel_presets("double_exp")], ids=lambda phi: phi.name)
def test_signed_constants_flip_with_the_kernel(phi):
    neg = RadialKernel(lambda t: -phi(t), phi.exponent_at_zero, phi.exponent_at_infinity,
                       "nonpositive", phi.support, f"-{phi.name}")
    # a nonnegative kernel: the signed constants are C1 and C3 under their own ids
    for signed, plain, cid in ((c1_signed(phi, 1, 0.0, -0.1), c1(phi, 1, 0.0, -0.1), "C1_1"),
                               (c3_signed(phi, 1, 0.0, 2.0, 0.5, 0.0), c3(phi, 1, 0.0, 2.0, 0.5, 0.0), "C3_signed")):
        assert (signed.id, signed.value, signed.params) == (cid, plain.value, plain.params)
    # a nonpositive kernel: -C1 and -C3 of the kernel itself
    assert c1_signed(neg, 1, 0.0, -0.1).value == pytest.approx(-c1(neg, 1, 0.0, -0.1).value, rel=1e-12)
    assert c3_signed(neg, 1, 0.0, 2.0, 0.5, 0.0).value == pytest.approx(
        -c3(neg, 1, 0.0, 2.0, 0.5, 0.0).value, rel=1e-12)


def test_c2_examples():
    # hardy(1), n=1, gamma=0, q=2: Phi(1/t) = t on (0,1), integrand t^{-1/2}
    assert c2(kernel_presets("hardy", 1), 1, 0.0, 2.0).value == pytest.approx(2.0, rel=1e-9)
    zero = RadialKernel(lambda t: np.zeros_like(np.asarray(t, dtype=float)), math.inf, -math.inf)
    assert c2(zero, 1, 0.0, 2.0).value == pytest.approx(0.0, abs=1e-12)
    res = c2(kernel_presets("hardy", 1), 1, 0.0, 2.0, alpha=0.25)
    assert res.id == "C2_proof_alpha"
    assert res.value == pytest.approx(4.0, rel=1e-9)


def test_c2_alpha_zero_matches_plain():
    a = c2(kernel_presets("hardy", 1), 1, 0.3, 2.0).value
    b = c2(kernel_presets("hardy", 1), 1, 0.3, 2.0, alpha=0.0).value
    assert abs(a - b) < 1e-10


def test_c3_examples():
    assert c3(kernel_presets("hardy", 1), 1, 0.0, 1.0, 0.5, 0.0).value == pytest.approx(2.0, rel=1e-9)
    zero = RadialKernel(lambda t: np.zeros_like(np.asarray(t, dtype=float)), math.inf, -math.inf)
    assert c3(zero, 1, 0.0, 1.0, 0.5, 0.0).value == pytest.approx(0.0, abs=1e-12)
    # adjoint kernel, exponent 1 - 0 - 1 + 0.5 - 1 = -0.5: integrand t^{1/2} on (0,1)
    assert c3(kernel_presets("adjoint_hardy"), 1, 0.0, 1.0, 0.5, 1.0).value == pytest.approx(
        2.0 / 3.0, rel=1e-9
    )


def test_c4_examples():
    dexp = kernel_presets("double_exp")
    res = c4(dexp, 1, 0.0, 2.0, 0.5, 0.5)
    assert not res.divergent and res.value > 0
    zero = RadialKernel(lambda t: np.zeros_like(np.asarray(t, dtype=float)), math.inf, -math.inf)
    assert c4(zero, 1, 0.0, 2.0, 0.5, 0.5).value == pytest.approx(0.0, abs=1e-12)
    # hardy(1): integrand t^{-1.75} (1 + 1/t)^{1/2} on (1, inf), monotone bracket
    val = c4(kernel_presets("hardy", 1), 1, 0.0, 2.0, 0.5, 0.5).value
    assert 4.0 / 3.0 <= val <= 4.0 / 3.0 * math.sqrt(2.0)


def test_c4_parameter_checks():
    with pytest.raises(ValueError):
        c4(kernel_presets("hardy", 1), 1, 0.0, 2.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        c4(kernel_presets("hardy", 1), 1, 0.0, 2.0, 0.5, 0.5, lam=0.6)  # inconsistent lambda1
    ok = c4(kernel_presets("hardy", 1), 1, 0.0, 2.0, 0.1, 0.25, lam=0.6)
    assert not ok.divergent


def test_c5_examples():
    zero = RadialKernel(lambda t: np.zeros_like(np.asarray(t, dtype=float)), math.inf, -math.inf)
    assert c5(zero, 1, 0.0, 1.0, -0.25, 0.25).value == pytest.approx(0.0, abs=1e-12)
    dexp = kernel_presets("double_exp")
    assert c5(dexp, 1, 0.0, 2.0, 0.15, 0.25).value > 0
    # hardy(1): integrand t^{-1.25} (1+1/t)^{1/4} on (1, inf), monotone bracket
    val = c5(kernel_presets("hardy", 1), 1, 0.0, 1.0, -0.25, 0.25).value
    assert 4.0 <= val <= 4.0 * 2.0 ** 0.25


def test_c5_variants_agree_at_lambda_zero():
    phi = kernel_presets("hardy", 1)
    a = c5(phi, 1, 0.3, 2.0, 0.15, 0.25, "herz").value
    b = c5(phi, 1, 0.3, 2.0, 0.15, 0.25, "morrey_herz", lam=0.0).value
    assert abs(a - b) < 1e-10
    with pytest.raises(ValueError):
        c5(phi, 1, 0.0, 2.0, 0.15, 0.25, "morrey_herz")  # lambda missing
    with pytest.raises(ValueError):
        c5(phi, 1, 0.0, 2.0, 0.5, 0.25, alpha2=0.0)  # alpha1 inconsistent


@pytest.mark.parametrize("kind,n,gamma,lam,finite", [
    ("hardy", 1, 0.0, -0.1, True),    # integrand t^{-1-0.9} at infinity: converges
    ("hardy", 1, 0.0, 0.5, True),
    ("adjoint_hardy", 1, 0.0, 0.0, False),   # 1/t at zero
    ("adjoint_hardy", 1, 0.0, -0.5, True),   # t^{-0.5} at zero
    ("hardy", 2, 0.0, -1.0, False),   # t^{-2} t^{-1+2} = 1/t at infinity
])
def test_c1_verdict_matches_power_counting(kind, n, gamma, lam, finite):
    phi = kernel_presets(kind, n) if kind == "hardy" else kernel_presets(kind)
    res = c1(phi, n, gamma, lam)
    assert res.divergent == (not finite)


def test_herz_lower_integral_antiderivative():
    # hardy(1), gamma=0, q=2: integrand u^{-1/2 - 2^-m} over (2^{-(m-1)}, 1)
    phi = kernel_presets("hardy", 1)
    for m in (3, 6):
        eps = 2.0 ** -m
        e = 0.5 - eps
        expected = (1.0 - 2.0 ** (-(m - 1) * e)) / e
        assert herz_lower_integral(phi, 1, 0.0, 2.0, m) == pytest.approx(expected, rel=1e-9)


def test_lower_bound_factor_power_collapse():
    om = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    w = Weight.power(0.7, 2)
    for p in (1.5, 2.0, 4.0):
        rprime = p / (p - 1.0)
        factor = lower_bound_factor(om, rprime, w)
        assert factor == pytest.approx(omega_norm(om, rprime), rel=1e-10)


def test_lower_bound_factor_examples():
    om1 = AngularProfile.constant(1.0, 2)
    w = Weight.power(0.3, 2)
    assert lower_bound_factor(om1, 2.0, w) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)
    om0 = AngularProfile.constant(1.0, 1)
    assert lower_bound_factor(om0, 2.0, Weight.power(0.0, 1)) == pytest.approx(math.sqrt(2))
    om2 = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    assert lower_bound_factor(om2, 2.0, Weight.power(1.0, 2)) == pytest.approx(
        math.sqrt(9 * math.pi), rel=1e-10
    )
    with pytest.raises(ValueError):
        lower_bound_factor(om1, math.inf, w)  # p = 1 out of scope
