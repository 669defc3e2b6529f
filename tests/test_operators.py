import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from rough_hausdorff.functions import (
    AngularProfile,
    TestFunction,
    indicator_shell,
    kernel_presets,
    lipschitz_presets,
    power_function,
    separable,
)
from rough_hausdorff import operators
from rough_hausdorff.harness import default_corpus
from rough_hausdorff.operators import (
    CommutatorOperator,
    HausdorffOperator,
    adjoint_hardy_apply,
    hardy_apply,
    lipschitz_pointwise_bound,
)

HARDY1 = HausdorffOperator(kernel_presets("hardy", 1), AngularProfile.constant(1.0, 1), 1)
ADJ1 = HausdorffOperator(kernel_presets("adjoint_hardy"), AngularProfile.constant(1.0, 1), 1)


def test_hardy_preset_examples():
    f = indicator_shell(1, 0.0, 1.0)
    assert HARDY1.apply(f, [2.0]) == pytest.approx(1.0, rel=1e-8)
    assert HARDY1.apply(f, [0.5]) == pytest.approx(2.0, rel=1e-8)
    assert hardy_apply(f, [2.0], 1) == pytest.approx(1.0, rel=1e-8)


def test_adjoint_hardy_example():
    f = indicator_shell(1, 0.0, 2.0)
    assert adjoint_hardy_apply(f, [1.0], 1) == pytest.approx(2 * math.log(2), rel=1e-9)
    assert ADJ1.apply(f, [1.0]) == pytest.approx(2 * math.log(2), rel=1e-9)


def test_zero_input():
    zero = separable(1, lambda r: np.zeros_like(np.asarray(r, dtype=float)), support=(0.5, 1.0))
    assert HARDY1.apply(zero, [2.0]) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_preset_equivalence_random_points(n):
    # rough transform with the hardy / adjoint presets against the direct
    # region-integral oracles
    rng = np.random.default_rng(42)
    op_h = HausdorffOperator(kernel_presets("hardy", n), AngularProfile.constant(1.0, n), n)
    op_a = HausdorffOperator(kernel_presets("adjoint_hardy"), AngularProfile.constant(1.0, n), n)
    f = indicator_shell(n, 0.5, 2.0)
    g = separable(n, lambda r: np.asarray(r) ** 0.5, support=(0.25, 4.0))
    for _ in range(12):
        r = float(10.0 ** rng.uniform(-1, 1))
        x = np.zeros(n)
        x[0] = r
        for fn in (f, g):
            hv = op_h.apply(fn, x, tol=1e-10)
            ho = hardy_apply(fn, x, n, tol=1e-10)
            assert hv == pytest.approx(ho, rel=1e-6, abs=1e-12)
            av = op_a.apply(fn, x, tol=1e-10)
            ao = adjoint_hardy_apply(fn, x, n, tol=1e-10)
            assert av == pytest.approx(ao, rel=1e-6, abs=1e-12)


def test_linearity():
    rng = np.random.default_rng(1)
    f = indicator_shell(1, 0.5, 2.0)
    g = separable(1, lambda r: np.exp(-np.asarray(r, dtype=float)), support=(0.0, 8.0),
                  exponents=(0.0, None))
    for _ in range(100):
        a, b = rng.uniform(-2, 2, 2)
        r = 10.0 ** rng.uniform(-1, 1)
        comb = TestFunction(
            dim=1,
            general=lambda x, _a=a, _b=b: _a * f(x) + _b * g(x),
            support=(0.0, 8.0),
            radial_exponent_at_zero=0.0,
            jumps=(0.5, 2.0),
        )
        lhs = HARDY1.apply(comb, [r], tol=1e-10)
        rhs = a * HARDY1.apply(f, [r], tol=1e-10) + b * HARDY1.apply(g, [r], tol=1e-10)
        assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def test_commutator_example_and_identity():
    f = indicator_shell(1, 0.0, 1.0)
    b = lipschitz_presets("power", 1.0, 1)
    cop = CommutatorOperator(HARDY1, b)
    # b(x) = |x|: H^b f(2) = 2*Hf(2) - H(|y| f)(2) = 2 - 1/2
    assert cop.apply(f, [2.0]) == pytest.approx(1.5, rel=1e-8)
    assert cop.apply_expanded(f, [2.0]) == pytest.approx(1.5, rel=1e-8)


def test_commutator_with_constant_symbol_vanishes():
    bc = lipschitz_presets("constant", 1.0, 1)
    f = indicator_shell(1, 0.0, 1.0)
    assert CommutatorOperator(HARDY1, bc).apply(f, [2.0]) == pytest.approx(0.0, abs=1e-12)
    assert CommutatorOperator(HARDY1, bc).apply_expanded(f, [2.0]) == 0.0  # b f declares f's exponent at 0


def test_commutator_identity_many_points():
    rng = np.random.default_rng(9)
    op = HausdorffOperator(kernel_presets("hardy", 2), AngularProfile.constant(1.0, 2), 2)
    b = lipschitz_presets("power", 0.5, 2)
    cop = CommutatorOperator(op, b)
    f = separable(2, lambda r: np.asarray(r) ** 0.5, lambda p: 2.0 + p[:, 0], support=(0.25, 4.0))
    for _ in range(10):
        r = 10.0 ** rng.uniform(-0.7, 0.7)
        x = np.array([r, 0.0])
        direct = cop.apply(f, x, tol=1e-10)
        expanded = cop.apply_expanded(f, x, tol=1e-10)
        assert direct == pytest.approx(expanded, rel=1e-6, abs=1e-10)


def test_separable_fast_path_matches_nested():
    om = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    shell = separable(2, lambda r: np.where((np.asarray(r) > 0.5) & (np.asarray(r) <= 2.0),
                                            np.asarray(r) ** 0.5, 0.0),
                      lambda p: 2.0 + p[:, 0], support=(0.5, 2.0))
    # unbounded: adjoint Hardy's s-range (max(r, 0.5), inf) reaches s = inf
    tail = separable(2, lambda r: np.asarray(r, dtype=float) ** -0.5, lambda p: 2.0 + p[:, 0],
                     support=(0.5, math.inf), exponents=(None, -0.5))
    for kernel, f_sep in ((kernel_presets("hardy", 2), shell), (kernel_presets("adjoint_hardy"), tail)):
        op = HausdorffOperator(kernel, om, 2)
        f_gen = TestFunction(dim=2, general=f_sep, support=f_sep.support,
                             radial_exponent_at_infinity=f_sep.radial_exponent_at_infinity)
        for r in (0.8, 1.3, 2.6):
            v1 = op.apply(f_sep, [r, 0.0], tol=1e-10)
            v2 = op.apply(f_gen, [r, 0.0], tol=1e-10)
            assert v1 == pytest.approx(v2, rel=1e-8, abs=1e-10)


def test_radial_covariance():
    om = AngularProfile.from_expression("2 + cos(theta)", 2, nonvanishing=True)
    op = HausdorffOperator(kernel_presets("hardy", 2), om, 2)
    f = TestFunction(dim=2, general=lambda x: np.where(np.linalg.norm(x, axis=1) <= 2.0, 1.0, 0.0),
                     support=(0.0, 2.0), radial_exponent_at_zero=0.0)
    r = 1.3
    vals = [op.apply(f, r * np.array([math.cos(a), math.sin(a)]), tol=1e-11)
            for a in (0.0, 1.0, 2.5)]
    assert max(vals) - min(vals) <= 1e-10 * max(abs(v) for v in vals)


def test_image_reuses_pointwise_values():
    f = indicator_shell(1, 0.0, 1.0)
    img = HARDY1.image(f)
    vals = img.radial_values(np.array([2.0, 2.0, 0.5]))
    assert vals[0] == vals[1]
    assert vals[0] == pytest.approx(1.0, rel=1e-8)
    assert vals[2] == pytest.approx(2.0, rel=1e-8)


def test_lipschitz_pointwise_bound_examples():
    b = lipschitz_presets("power", 1.0, 2)
    assert lipschitz_pointwise_bound(b, [1.0, 0.0], 1.0, [0.0, 1.0]) == pytest.approx(2.0)
    b5 = lipschitz_presets("power", 0.5, 2)
    val = lipschitz_pointwise_bound(b5, [4.0, 0.0], 0.5, [0.0, 1.0])
    assert val == pytest.approx(2.0 * math.sqrt(3.0))
    # t -> inf limit: bound -> ||b|| |x|^beta
    big_t = lipschitz_pointwise_bound(b5, [4.0, 0.0], 1e9, [0.0, 1.0])
    assert big_t == pytest.approx(2.0, rel=1e-8)


def test_origin_rejected():
    f = indicator_shell(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        HARDY1.apply(f, [0.0])


def _batch_operators():
    ops = []
    for n in (1, 2):
        ops.append(HausdorffOperator(kernel_presets("hardy", n), AngularProfile.constant(1.0, n), n))
    ops.append(ADJ1)
    ops.append(HausdorffOperator(kernel_presets("power", -0.5, 0.5, 4.0), AngularProfile.constant(1.0, 1), 1))
    return ops


def _batch_inputs(n):
    bump = separable(n, lambda r: np.asarray(r, dtype=float) ** 0.5 + 1.0, support=(0.25, 4.0),
                     jumps=(1.0,), name="bump")
    return [
        indicator_shell(n, 0.5, 2.0),
        bump,
        indicator_shell(n, 0.0, 1.0),  # support reaching 0: the expansion path
        power_function(n, -0.3),  # unbounded: an s-range reaching 0 (Hardy) or infinity (adjoint Hardy)
    ]


# empty domains (below 0.5 for Hardy on the shell), shell edges and the bump's jump
BATCH_RADII = np.array([0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5, 4.0, 8.0, 16.0, 64.0])


@pytest.mark.parametrize("op", _batch_operators(), ids=lambda op: op.phi.name)
def test_batched_radial_apply_matches_per_radius_calls(op):
    for f in _batch_inputs(op.dim):
        batched = op.radial_apply(f, BATCH_RADII, tol=1e-10)
        single = np.array([op.radial_apply(f, float(r), tol=1e-10) for r in BATCH_RADII])
        assert isinstance(op.radial_apply(f, 1.3), float)
        assert batched.shape == BATCH_RADII.shape
        np.testing.assert_allclose(batched, single, rtol=1e-14, atol=0.0, err_msg=f.name)
    # the shell gives Hardy an empty domain below its lower edge
    if op.phi.name.startswith("hardy"):
        assert op.radial_apply(_batch_inputs(op.dim)[0], BATCH_RADII[:3]).tolist() == [0.0] * 3


def test_batched_radial_apply_rejects_the_origin():
    with pytest.raises(ValueError):
        HARDY1.radial_apply(indicator_shell(1, 0.5, 2.0), np.array([1.0, 0.0]))


def test_image_solves_each_profile_call_in_one_batch(monkeypatch):
    calls = []
    original = HausdorffOperator.radial_apply

    def counted(self, f, r, tol=1e-9):
        calls.append(np.size(r))
        return original(self, f, r, tol)

    monkeypatch.setattr(HausdorffOperator, "radial_apply", counted)
    img = HARDY1.image(indicator_shell(1, 0.5, 2.0))
    radii = np.array([0.3, 1.0, 3.0, 1.0, 0.0, 3.0])
    vals = img.radial_values(radii)
    assert calls == [5]  # the five positive radii, one call
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 1.0, 0.0, 1.0], rtol=1e-9)  # 2 (min(r, 2) - 0.5) / r


def test_sphere_factor_cache_is_keyed_by_angular_factor_and_tol(monkeypatch):
    op = HausdorffOperator(kernel_presets("hardy", 2), AngularProfile.constant(1.0, 2), 2)
    stale = 0
    for k in range(200):
        # short-lived inputs: a cache keyed by id() sees recycled ids here
        f = separable(2, lambda r: np.ones_like(np.asarray(r, dtype=float)),
                      lambda p, _c=k + 1.0: np.full(np.atleast_2d(p).shape[0], _c), support=(0.5, 1.0))
        stale += op.sphere_factor(f) != pytest.approx(2.0 * math.pi * (k + 1.0), rel=1e-12)
    assert stale == 0

    calls = []
    original = operators.integrate_sphere

    def counted(n, g, tol):
        calls.append(tol)
        return original(n, g, tol)

    monkeypatch.setattr(operators, "integrate_sphere", counted)
    f = indicator_shell(2, 0.5, 1.0)
    op.sphere_factor(f, 1e-6)
    op.sphere_factor(f, 1e-6)
    op.sphere_factor(f, 1e-12)
    assert calls == [1e-6, 1e-12]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=1.2, max_value=8.0),
    st.lists(st.floats(min_value=0.05, max_value=40.0), min_size=1, max_size=25),
)
def test_batched_hardy_bump_closed_form(n, shift, lo, ratio, radii):
    # Hardy: T f(r) = sf r^-n int_lo^min(r, hi) s^(n-1) s^a ds for f = s^a on [lo, hi]
    a = shift - n  # a > -n
    hi = lo * ratio
    op = HausdorffOperator(kernel_presets("hardy", n), AngularProfile.constant(1.0, n), n)
    f = separable(n, lambda s: np.asarray(s, dtype=float) ** a, support=(lo, hi))
    r = np.array(radii)
    got = op.radial_apply(f, r, tol=1e-11)
    sf = 2.0 if n == 1 else 2.0 * math.pi
    want = np.where(r > lo, sf * r ** -n * (np.minimum(r, hi) ** (n + a) - lo ** (n + a)) / (n + a), 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_nested_commutator_apply_keeps_memory_small():
    # a general input expands every s-node over the 1024 circle nodes of
    # level 6; a breadth-first level holds hundreds of s-nodes at once
    n, e, beta, r = 2, 0.3, 0.5, 1.3
    op = HausdorffOperator(kernel_presets("hardy", n), AngularProfile.constant(1.0, n), n)
    cop = CommutatorOperator(op, lipschitz_presets("power", beta, n))
    tracemalloc.start()
    try:
        value = cop.apply(power_function(n, e), [r, 0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # b(x) H f - H(b f) for f = |x|^e, b = |x|^beta
    want = 2.0 * math.pi * r ** (e + beta) * (1.0 / (n + e) - 1.0 / (n + e + beta))
    assert value == pytest.approx(want, rel=1e-7)


_RADII = st.lists(st.floats(min_value=0.05, max_value=40.0), min_size=1, max_size=12)
_LOG_RADII = st.lists(st.floats(min_value=-3.0, max_value=3.0).map(lambda u: 10.0 ** u), min_size=1, max_size=12)


def _matches_closed_form_and_scalar_calls(op, f, radii, want):
    got = op.radial_apply(f, radii, tol=1e-10)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)
    for r, value in zip(radii, got):
        assert op.radial_apply(f, float(r), tol=1e-10) == value  # bit for bit


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.floats(min_value=0.05, max_value=0.95), _RADII)
def test_batched_image_of_powers_matches_mellin_closed_form(n, adjoint, shape, radii):
    # T|x|^e = sf r^e int Phi(t) t^(-1-e) dt: 1/(n + e) for Hardy (e > -n),
    # -1/e for adjoint Hardy (e < 0); the s-range is (0, r) for Hardy, (r, inf) for adjoint Hardy
    e = -n + shape * (n + 1.5) if not adjoint else -2.0 * shape
    kernel = kernel_presets("adjoint_hardy") if adjoint else kernel_presets("hardy", n)
    op = HausdorffOperator(kernel, AngularProfile.constant(1.0, n), n)
    r = np.array(radii)
    sf = 2.0 if n == 1 else 2.0 * math.pi
    _matches_closed_form_and_scalar_calls(op, power_function(n, e), r,
                                          sf * r ** e * (-1.0 / e if adjoint else 1.0 / (n + e)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from(["hardy", "adjoint_hardy", "gaussian"]),
       st.floats(min_value=0.1, max_value=8.0), _LOG_RADII)
@example(1, "gaussian", 1.0, [1e-9, 1e-3])
def test_batched_image_of_ball_indicators_matches_closed_form(n, kind, b, radii):
    # f = 1 on (0, b]: Hardy's s-domain (0, min(r, b)) reaches 0, giving
    # sf min(r, b)^n / (n r^n); adjoint Hardy gives sf ln(b / r) for r < b.
    # The gaussian's s-domain (0, b) holds s = r for r < b, where Phi(r/s)
    # sets in, and gives sf int_{r/b}^inf exp(-t^2)/t dt = sf E1((r/b)^2) / 2
    kernel = kernel_presets("hardy", n) if kind == "hardy" else kernel_presets(kind)
    op = HausdorffOperator(kernel, AngularProfile.constant(1.0, n), n)
    r = np.array(radii)
    sf = 2.0 if n == 1 else 2.0 * math.pi
    if kind == "hardy":
        want = sf * np.minimum(r, b) ** n / (n * r ** n)
    elif kind == "adjoint_hardy":
        want = sf * np.log(np.maximum(b / r, 1.0))
    else:
        want = 0.5 * sf * special.exp1((r / b) ** 2)
    _matches_closed_form_and_scalar_calls(op, indicator_shell(n, 0.0, b), r, want)


def _kernel_and_multiplier(kind, e, d):
    """A kernel preset and its Mellin multiplier int Phi(t) t^(-1-e) dt at e;
    the power kernel's range and exponent a = e -+ d keep the integral finite."""
    if kind == "gaussian":
        return kernel_presets("gaussian"), 0.5 * math.gamma(-e / 2.0)
    if kind == "double_exp":
        return kernel_presets("double_exp"), 2.0 * special.kv(e, 2.0)
    lo, hi = {"power_to_0": (0.0, 2.0), "power_to_inf": (0.5, math.inf), "power": (0.5, 2.0)}[kind]
    a = e + d if lo == 0.0 else e - d
    top = 0.0 if math.isinf(hi) else hi ** (a - e)
    return kernel_presets("power", a, lo, hi), (top - lo ** (a - e)) / (a - e)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from(["gaussian", "double_exp", "power_to_0", "power_to_inf", "power"]),
    st.floats(min_value=-1.7, max_value=-0.2),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.3, max_value=1.5),
    _LOG_RADII,
)
def test_powers_under_other_kernels_match_mellin_multipliers(n, kind, e, lift, d, radii):
    # T|x|^e = sf r^e int Phi(t) t^(-1-e) dt.  Under the gaussian and double_exp
    # kernels the s-range of a power is all of (0, inf), so both endpoint
    # expansions run; power(a, lo, hi) reaches infinity from lo = 0 and 0 from
    # hi = inf.  double_exp converges for every e, so it also takes e >= 0
    if kind == "double_exp":
        e += lift
    kernel, multiplier = _kernel_and_multiplier(kind, e, d)
    op = HausdorffOperator(kernel, AngularProfile.constant(1.0, n), n)
    f = power_function(n, e)
    r = np.array(radii)
    sf = 2.0 if n == 1 else 2.0 * math.pi
    want = sf * r ** e * multiplier
    # tol is absolute: a small value at a large radius may be off by 1e-10
    np.testing.assert_allclose(op.radial_apply(f, r, tol=1e-10), want, rtol=1e-9, atol=1e-10)
    # the nested path on a general twin, at the first radius
    twin = TestFunction(dim=n, general=f, radial_exponent_at_zero=e, radial_exponent_at_infinity=e)
    x = np.zeros(n)
    x[0] = r[0]
    assert op.apply(twin, x, tol=1e-10) == pytest.approx(want[0], rel=1e-9, abs=1e-10)


def test_commutator_image_of_a_step_matches_closed_form_in_one_solve_per_batch(monkeypatch):
    # g = 1 on (0.3, 1.37], 2 on (1.37, 3], the jump declared; b = |x|, Hardy n = 1:
    # [b, T] f(r) = (2/r) int (r - s) g(s) ds over (0.3, min(r, 3))
    step = separable(1, lambda r: np.where(np.asarray(r, dtype=float) > 1.37, 2.0, 1.0), support=(0.3, 3.0),
                     jumps=(1.37,), name="step")
    calls = []
    original = operators.integrate_intervals

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "integrate_intervals", counted)
    r = np.linspace(0.5, 3.0, 40)
    got = CommutatorOperator(HARDY1, lipschitz_presets("power", 1.0, 1)).image(step, tol=1e-10).radial_values(r)
    assert calls == [40]  # the batch's 40 radii in one engine call

    def moment(a, c):  # int_a^c (r - s) ds
        c = np.clip(c, a, None)
        return r * (c - a) - (c ** 2 - a ** 2) / 2.0

    want = 2.0 / r * (moment(0.3, np.minimum(r, 1.37)) + 2.0 * moment(1.37, np.minimum(r, 3.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("adjoint", [False, True], ids=["hardy", "adjoint_hardy"])
def test_commutator_image_of_powers_matches_mellin_multipliers(n, beta, adjoint):
    # [b, T]|x|^e = sf (M(e) - M(e + beta)) r^(e + beta): M(e) = 1/(n + e) for
    # Hardy (e > -n), -1/e for adjoint Hardy (e + beta < 0)
    e = -1.3 if adjoint else -0.4
    kernel = kernel_presets("adjoint_hardy") if adjoint else kernel_presets("hardy", n)
    multiplier = (lambda u: -1.0 / u) if adjoint else (lambda u: 1.0 / (n + u))
    cop = CommutatorOperator(HausdorffOperator(kernel, AngularProfile.constant(1.0, n), n),
                             lipschitz_presets("power", beta, n))
    r = np.geomspace(1e-2, 1e2, 9)
    sf = 2.0 if n == 1 else 2.0 * math.pi
    want = sf * (multiplier(e) - multiplier(e + beta)) * r ** (e + beta)
    np.testing.assert_allclose(cop.image(power_function(n, e), tol=1e-10).radial_values(r), want, rtol=1e-8)


@pytest.mark.parametrize("op", _batch_operators(), ids=lambda op: op.phi.name)
def test_commutator_image_matches_pointwise_commutators(op):
    cop = CommutatorOperator(op, lipschitz_presets("power", 0.5, op.dim))
    radii = np.array([0.3, 0.7, 1.3, 2.5, 8.0])
    for f in _batch_inputs(op.dim)[:3]:  # the shells and the bump
        img = cop.image(f, tol=1e-10).radial_values(radii)
        for r, value in zip(radii, img):
            x = np.zeros(op.dim)
            x[0] = r
            assert value == pytest.approx(cop.apply(f, x, tol=1e-10), rel=0.0, abs=1e-9), f.name
            assert value == pytest.approx(cop.apply_expanded(f, x, tol=1e-10), rel=0.0, abs=1e-9), f.name


@pytest.mark.parametrize("kernel", [kernel_presets("hardy", 1), kernel_presets("adjoint_hardy"),
                                    kernel_presets("power", -0.5, 0.5, 4.0), kernel_presets("gaussian")],
                         ids=lambda k: k.name)
def test_commutator_image_declares_the_merged_images_of_f_and_bf(kernel):
    # the declaration of r^beta T f - T(b f) built from the two images
    op = HausdorffOperator(kernel, AngularProfile.constant(1.0, 1), 1)
    b = lipschitz_presets("power", 0.5, 1)
    for f in default_corpus(1, op.omega, 2.0) + [power_function(1, -0.3)]:
        tf, tbf = op.image(f), op.image(operators._multiply_symbol(f, b))
        img = CommutatorOperator(op, b).image(f)
        assert img.support == (min(tf.support[0], tbf.support[0]), max(tf.support[1], tbf.support[1])), f.name
        assert img.radial_exponent_at_zero == min(tf.radial_exponent_at_zero + 0.5, tbf.radial_exponent_at_zero)
        assert img.radial_exponent_at_infinity == max(tf.radial_exponent_at_infinity + 0.5,
                                                      tbf.radial_exponent_at_infinity)


def test_expanded_commutator_on_a_general_input_with_a_jump():
    # b f of a general f keeps its jump and its exponent 0 at 0
    f = TestFunction(dim=1, general=lambda x: np.where(np.abs(x[:, 0]) > 0.5, 2.0, 1.0) * (x[:, 0] > 0),
                     support=(0.0, 2.0), radial_exponent_at_zero=0.0, jumps=(0.5,))
    cop = CommutatorOperator(HARDY1, lipschitz_presets("power", 0.5, 1))
    for r in (0.3, 0.5, 1.1, 3.0):
        want = cop.apply(f, [r], tol=1e-10)
        assert cop.apply_expanded(f, [r], tol=1e-10) == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_symbol_products_keep_the_jumps():
    bump = _batch_inputs(1)[1]
    general = TestFunction(dim=1, general=bump, support=bump.support, jumps=bump.jumps)
    b = lipschitz_presets("power", 0.5, 1)
    assert operators._multiply_symbol(bump, b).separable
    assert operators._multiply_symbol(bump, b).jumps == bump.jumps == (1.0,)
    assert operators._multiply_symbol(general, b).jumps == general.jumps
    assert operators._multiply_symbol(bump, lipschitz_presets("constant", 1.0, 1)).jumps == bump.jumps
