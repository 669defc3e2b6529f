import math

import numpy as np
import pytest

from rough_hausdorff.functions import (
    AngularProfile,
    LipschitzSymbol,
    TestFunction,
    indicator_shell,
    kernel_presets,
    lipschitz_presets,
    omega_norm,
    separable,
)
from rough_hausdorff.weights import Weight


def test_omega_norm_examples():
    assert omega_norm(AngularProfile.constant(1.0, 2), 2) == pytest.approx(math.sqrt(2 * math.pi))
    assert omega_norm(AngularProfile.constant(1.0, 1), 2, Weight.power(0.0, 1)) == pytest.approx(math.sqrt(2))
    om = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    # int (2+cos)^2 = 9 pi by direct expansion
    assert omega_norm(om, 2) == pytest.approx(math.sqrt(9 * math.pi), rel=1e-12)


def test_omega_norm_infinity():
    # max over quadrature nodes: midpoint grid misses theta = 0 by O(h^2)
    om = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    assert omega_norm(om, math.inf) == pytest.approx(3.0, rel=1e-4)


def test_kernel_presets_values():
    hardy2 = kernel_presets("hardy", 2)
    assert hardy2(np.array([2.0]))[0] == pytest.approx(0.25)
    assert hardy2(np.array([0.5]))[0] == 0.0
    adj = kernel_presets("adjoint_hardy")
    assert adj(np.array([0.5]))[0] == 1.0
    assert adj(np.array([2.0]))[0] == 0.0
    pw = kernel_presets("power", -2.5, 1.0, math.inf)
    assert pw(np.array([4.0]))[0] == pytest.approx(4.0 ** -2.5)


def test_kernel_sign_validation():
    with pytest.raises(ValueError):
        kernel_presets("unknown_kind")


def test_separable_evaluation_identity():
    rng = np.random.default_rng(3)
    f = separable(
        2,
        lambda r: np.exp(-r) * r ** 0.5,
        lambda p: 2.0 + p[:, 0],
        support=(0.0, math.inf),
        exponents=(0.5, None),
    )
    x = rng.standard_normal((10000, 2)) * np.exp(rng.uniform(-2, 2, (10000, 1)))
    r = np.linalg.norm(x, axis=1)
    direct = np.exp(-r) * r ** 0.5 * (2.0 + x[:, 0] / r)
    assert np.allclose(f(x), direct, rtol=0, atol=0)


def test_support_clipping():
    f = indicator_shell(1, 0.5, 2.0)
    assert f(np.array([[0.4], [1.0], [3.0]])).tolist() == [0.0, 1.0, 0.0]


def test_lipschitz_power_equality_along_ray():
    b = lipschitz_presets("power", 1.0, 2)
    x = np.array([[3.0, 4.0]])
    y = np.array([[0.0, 0.0]])
    assert abs(b(x)[0] - b(y)[0]) == pytest.approx(5.0)


def test_lipschitz_power_sampled_quotient():
    # 1e5 pairs, concentrated near the origin and near the diagonal
    b = lipschitz_presets("power", 0.5, 2)
    rng = np.random.default_rng(11)
    m = 100000
    x = rng.standard_normal((m, 2)) * np.exp(rng.uniform(-4, 1, (m, 1)))
    y = x + rng.standard_normal((m, 2)) * np.exp(rng.uniform(-8, 0, (m, 1)))
    d = np.linalg.norm(x - y, axis=1)
    good = d > 0
    quot = np.abs(b(x) - b(y))[good] / d[good] ** 0.5
    assert quot.max() <= 1.0 + 1e-12


def test_lipschitz_linear_cauchy_schwarz():
    b = lipschitz_presets("linear", 1.0, 2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1000, 2))
    y = rng.standard_normal((1000, 2))
    d = np.linalg.norm(x - y, axis=1)
    assert np.all(np.abs(b(x) - b(y)) <= d * (1 + 1e-12))


def test_lipschitz_constructor_rejects_bad_declaration():
    with pytest.raises(ValueError):
        LipschitzSymbol(lambda x: np.linalg.norm(np.atleast_2d(x), axis=1), 1.0, 0.5, 2)
    with pytest.raises(ValueError):
        lipschitz_presets("power", 1.5, 1)


def test_testfunction_exponent_defaults():
    f = indicator_shell(1, 0.5, 2.0)
    assert f.radial_exponent_at_zero == math.inf
    assert f.radial_exponent_at_infinity == -math.inf
    g = separable(1, lambda r: r ** -0.3, exponents=(-0.3, -0.3))
    assert g.radial_exponent_at_zero == -0.3
    with pytest.raises(ValueError):
        TestFunction(dim=1)  # neither radial nor general
