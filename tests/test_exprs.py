import math

import numpy as np
import pytest

from rough_hausdorff.exprs import ExpressionError, compile_expression, radial_expression, sphere_expression


def test_basic_arithmetic():
    f = compile_expression("2 + 3*t - t/2", ("t",))
    assert f(np.array([2.0]))[0] == pytest.approx(2 + 6 - 1)


def test_functions_and_constants():
    f = compile_expression("exp(-t) + cos(0) + abs(-2) + pow(t, 2)", ("t",))
    assert f(np.array([1.0]))[0] == pytest.approx(math.exp(-1) + 1 + 2 + 1)
    g = compile_expression("pi", ("t",))
    assert g(np.array([0.5]))[0] == pytest.approx(math.pi)


def test_pow_computes_in_float():
    # an integer base with a negative integer exponent, as 2**-20 is
    f = radial_expression("indicator(r, 0, pow(2, -20)) + pow(2, -2)")
    np.testing.assert_array_equal(f(np.array([2.0 ** -21, 1.0])), [1.25, 0.25])


def test_indicator_two_and_three_arg():
    f = compile_expression("indicator(1, 2)", ("t",))
    assert list(f(np.array([0.5, 1.5, 3.0]))) == [0.0, 1.0, 0.0]
    g = compile_expression("indicator(t, 0, inf) * t", ("t",))
    assert g(np.array([4.0]))[0] == 4.0


def test_vectorized_output_shape():
    f = radial_expression("pow(r, -2.5) * indicator(1, inf)")
    vals = f(np.array([0.5, 2.0, 4.0]))
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    assert vals[2] == pytest.approx(4.0 ** -2.5)


def test_rejects_unknown_names_and_calls():
    with pytest.raises(ExpressionError):
        compile_expression("__import__('os')", ("t",))
    with pytest.raises(ExpressionError):
        compile_expression("open('x')", ("t",))
    with pytest.raises(ExpressionError):
        compile_expression("t + y", ("t",))


def test_sphere_expressions_by_dimension():
    f1 = sphere_expression("2 + s", 1)
    assert list(f1(np.array([[-1.0], [1.0]]))) == [1.0, 3.0]
    f2 = sphere_expression("2 + cos(theta)", 2)
    assert f2(np.array([[1.0, 0.0]]))[0] == pytest.approx(3.0)
    assert f2(np.array([[-1.0, 0.0]]))[0] == pytest.approx(1.0)
    f3 = sphere_expression("cos(phi)", 3)
    assert f3(np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(1.0)
    assert f3(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
