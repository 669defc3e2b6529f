import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_hausdorff.quadrature import Ball, integrate_region
from rough_hausdorff.weights import Weight, WeightError, annulus_mass, ball_mass


def test_weight_rejects_origin():
    w = Weight.power(-0.5, 2)
    with pytest.raises(WeightError):
        w(np.array([[0.0, 0.0]]))


def test_ball_mass_examples():
    assert ball_mass(Weight.power(0.0, 1), 2.0) == pytest.approx(4.0)
    assert ball_mass(Weight.power(1.0, 2), 1.0) == pytest.approx(2 * math.pi / 3)
    assert ball_mass(Weight.power(-0.5, 1), 1.0) == pytest.approx(4.0)


def test_annulus_mass_examples():
    w = Weight.power(0.0, 1)
    assert annulus_mass(w, 0) == pytest.approx(1.0)
    assert annulus_mass(w, 0) / ball_mass(w, 1.0) == pytest.approx(0.5)
    w2 = Weight.power(1.0, 2)
    assert annulus_mass(w2, 3) / ball_mass(w2, 8.0) == pytest.approx(0.875)


@pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_2_1_identity(gamma, n):
    w = Weight.power(gamma, n)
    expected = 1.0 - 2.0 ** (-gamma - n)
    for k in range(-5, 6):
        ratio = annulus_mass(w, k) / ball_mass(w, 2.0 ** k)
        assert abs(ratio - expected) < 1e-8


@pytest.mark.parametrize("gamma,n", [(-0.9, 1), (0.0, 2), (1.0, 2), (2.5, 3), (-0.5, 3)])
def test_lemma_2_1_first_identity_constant(gamma, n):
    # w(B_m) = C |B_m|^{(gamma+n)/n} with m-independent C
    w = Weight.power(gamma, n)
    vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    cs = []
    for m in range(-5, 6):
        bm = vol * (2.0 ** m) ** n
        cs.append(ball_mass(w, 2.0 ** m) / bm ** ((gamma + n) / n))
    cs = np.asarray(cs)
    assert np.max(np.abs(cs / cs[0] - 1.0)) < 1e-10


@pytest.mark.parametrize("gamma,n", [(0.5, 2), (-0.5, 2), (1.0, 3)])
def test_ball_mass_matches_quadrature(gamma, n):
    w = Weight.power(gamma, n)
    res = integrate_region(n, lambda x: w(x), Ball(1.7), 1e-8, radial_exponent_at_zero=gamma)
    assert res.value == pytest.approx(ball_mass(w, 1.7), rel=1e-6)


def test_annulus_mass_matches_quadrature():
    from rough_hausdorff.quadrature import Annulus

    w = Weight.power(0.5, 2)
    res = integrate_region(2, lambda x: w(x), Annulus(1), 1e-8)
    assert res.value == pytest.approx(annulus_mass(w, 1), rel=1e-6)


def test_ball_mass_matches_quadrature_angular_weight():
    w = Weight(0.5, lambda p: 2.0 + p[:, 0] ** 2, 2, angular_lower_bound=2.0)
    res = integrate_region(2, lambda x: w(x), Ball(1.0), 1e-8, radial_exponent_at_zero=0.5)
    assert res.value == pytest.approx(ball_mass(w, 1.0), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-3.0, max_value=3.0).filter(lambda t: abs(t) > 1e-3),
)
def test_homogeneity_structural(gamma, r, t):
    w = Weight(gamma, lambda p: 2.0 + 0.5 * (p[:, 0] ** 2 - p[:, 1] ** 2), 2,
               angular_lower_bound=1.0)
    x = np.array([[r, 0.3 * r]])
    lhs = w(t * x)[0]
    rhs = abs(t) ** gamma * w(x)[0]
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_mass_rejects_nonintegrable_degree():
    w = Weight.power(-1.0, 1)  # gamma = -n
    with pytest.raises(WeightError):
        ball_mass(w, 1.0)
    with pytest.raises(WeightError):
        annulus_mass(w, 0)


def test_angular_lower_bound_enforced():
    with pytest.raises(WeightError):
        # min of 2 + cos(2 theta) is 1, below the declared bound 1.5
        Weight(0.0, lambda p: 2.0 + (p[:, 0] ** 2 - p[:, 1] ** 2), 2, angular_lower_bound=1.5)


def test_angular_evenness_enforced():
    with pytest.raises(WeightError):
        Weight(0.0, lambda p: 2.0 + p[:, 0], 2)  # odd part breaks |t|-homogeneity
