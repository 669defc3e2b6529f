"""The one-dimensional sharp-constant integrals governing boundedness.

Each constant is a half-line integral of |Phi| against a power of t (two of
them carry an extra (1 + 1/t)^beta factor from the Lipschitz estimate).
Divergence is a value, not an exception: the necessity statements reason
about finiteness, so a divergent constant is returned flagged.

Two deliberate double-entries:

  * c2 exists in a plain form and in a variant carrying an extra t^-alpha;
    the Herz upper-bound chain actually needs the alpha variant, while the
    plain form is the one whose finiteness the lower bound produces.  Both
    are computed and reported side by side.
  * c5 has a Herz variant and a Morrey-Herz variant with different
    exponents (they coincide at lambda = 0); a tag selects one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functions import AngularProfile, RadialKernel, omega_norm
from .quadrature import DivergentIntegralError, integrate_interval
from .weights import Weight

CONSTANT_TOL = 1e-10


@dataclass(frozen=True)
class BoundConstant:
    id: str
    value: Optional[float]  # None iff divergent
    divergent: bool
    params: dict
    abs_error: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "value": "divergent" if self.divergent else self.value,
            "params": self.params,
            "abs_error": self.abs_error,
        }


def _power_integral(phi: RadialKernel, power: float, cid: str, params: dict,
                    extra_beta: float | None = None, inverted: bool = False,
                    signed: bool = False, lo: float = 0.0) -> BoundConstant:
    """integral from ``lo`` to infinity of |Phi(t)| t^{power} [ (1+1/t)^beta ] dt,
    or with Phi(1/t); Phi itself instead of |Phi| when ``signed``.

    ``power`` is the net exponent multiplying |Phi(t)| (or |Phi(1/t)|).
    """
    def ev(t):
        t = np.asarray(t, dtype=float)
        vals = phi(1.0 / t) if inverted else phi(t)
        vals = (vals if signed else np.abs(vals)) * t ** power
        if extra_beta is not None:
            vals = vals * (1.0 + 1.0 / t) ** extra_beta
        return vals

    e0, einf = phi.exponent_at_zero, phi.exponent_at_infinity
    if inverted:  # Phi(1/t) behaves like t^{-einf} at 0 and like t^{-e0} at infinity
        e0, einf = -einf, -e0
    e0, einf = e0 + power, einf + power
    if extra_beta is not None and math.isfinite(e0):
        e0 = e0 - extra_beta  # (1+1/t)^beta ~ t^-beta near 0
    edges = [c for c in phi.support if math.isfinite(c) and c > 0.0]
    if inverted:
        edges = [1.0 / c for c in edges]
    try:
        res = integrate_interval(ev, lo, math.inf, CONSTANT_TOL, exponent_at_zero=e0, exponent_at_infinity=einf,
                                 align=tuple(edges))
    except DivergentIntegralError:
        return BoundConstant(cid, None, True, params)
    return BoundConstant(cid, res.value, False, params, res.abs_error_estimate + res.tail_bound)


def c1(phi: RadialKernel, n: int, gamma: float, lam: float) -> BoundConstant:
    """integral of |Phi(t)| / t^{1 + (n+gamma) lambda} dt."""
    if gamma <= -n:
        raise ValueError("requires gamma > -n")
    params = {"n": n, "gamma": gamma, "lambda": lam}
    return _power_integral(phi, -1.0 - (n + gamma) * lam, "C1", params)


def c1_signed(phi: RadialKernel, n: int, gamma: float, lam: float) -> BoundConstant:
    """Same integral with Phi instead of |Phi|: the two-sided (corollary)
    constant for sign-definite kernels and the pushforward amplitude."""
    return _power_integral(phi, -1.0 - (n + gamma) * lam, "C1_1", {"n": n, "gamma": gamma, "lambda": lam},
                           signed=True)


def c2(
    phi: RadialKernel,
    n: int,
    gamma: float,
    q: float,
    alpha: Optional[float] = None,
) -> BoundConstant:
    """integral of |Phi(1/t)| t^{1 - 2n - gamma/q - n/q [- alpha]} dt.

    Without alpha this is the constant in the statement of the Herz
    theorem; with alpha it is the variant appearing in its upper-bound
    proof.
    """
    if gamma <= -n:
        raise ValueError("requires gamma > -n")
    if q < 1:
        raise ValueError("requires q >= 1")
    power = 1.0 - 2.0 * n - gamma / q - n / q - (alpha if alpha is not None else 0.0)
    cid = "C2" if alpha is None else "C2_proof_alpha"
    params = {"n": n, "gamma": gamma, "q": q}
    if alpha is not None:
        params["alpha"] = alpha
    return _power_integral(phi, power, cid, params, inverted=True)


def c3(
    phi: RadialKernel,
    n: int,
    gamma: float,
    q: float,
    lam: float,
    alpha: float,
) -> BoundConstant:
    """integral of |Phi(t)| / t^{1 - gamma/q - n/q + lambda - alpha} dt."""
    if q < 1:
        raise ValueError("requires q >= 1")
    if lam <= 0:
        raise ValueError("requires lambda > 0")
    params = {"n": n, "gamma": gamma, "q": q, "lambda": lam, "alpha": alpha}
    return _power_integral(phi, -(1.0 - gamma / q - n / q + lam - alpha), "C3", params)


def c3_signed(phi: RadialKernel, n: int, gamma: float, q: float, lam: float, alpha: float) -> BoundConstant:
    """Same integral as c3 with Phi instead of |Phi| (the pushforward amplitude)."""
    params = {"n": n, "gamma": gamma, "q": q, "lambda": lam, "alpha": alpha}
    return _power_integral(phi, -(1.0 - gamma / q - n / q + lam - alpha), "C3_signed", params, signed=True)


def c4(
    phi: RadialKernel,
    n: int,
    gamma: float,
    p: float,
    lambda1: float,
    beta: float,
    lam: Optional[float] = None,
) -> BoundConstant:
    """integral of |Phi(t)| t^{-1 - (gamma+n)(lambda1-1)/p} (1 + 1/t)^beta dt.

    lambda1 is the source-space exponent; when the target lambda is also
    supplied, lambda1 = lambda - beta p / (n + gamma) is recomputed and
    checked.
    """
    if gamma <= -n:
        raise ValueError("requires gamma > -n")
    if not (0.0 < beta <= 1.0):
        raise ValueError("requires 0 < beta <= 1")
    if lam is not None:
        expected = lam - beta * p / (n + gamma)
        if abs(expected - lambda1) > 1e-12:
            raise ValueError(f"lambda1 = {lambda1} inconsistent with lambda - beta p/(n+gamma) = {expected}")
    if lambda1 <= 0:
        raise ValueError("requires lambda1 > 0")
    params = {"n": n, "gamma": gamma, "p": p, "lambda1": lambda1, "beta": beta}
    power = -1.0 - (gamma + n) * (lambda1 - 1.0) / p
    return _power_integral(phi, power, "C4", params, extra_beta=beta)


def c5(
    phi: RadialKernel,
    n: int,
    gamma: float,
    q: float,
    alpha1: float,
    beta: float,
    variant: str = "herz",
    lam: Optional[float] = None,
    alpha2: Optional[float] = None,
) -> BoundConstant:
    """The commutator Herz / Morrey-Herz constant.

    herz variant:        exponent 1 - gamma/q - n/q - alpha1 (1 + gamma/n)
    morrey_herz variant: exponent 1 - gamma/q - n/q + (lambda - alpha1)(1 + gamma/n)

    Both carry the (1 + 1/t)^beta factor; alpha1 = alpha2 + n beta/(n+gamma)
    is recomputed and checked when alpha2 is supplied.
    """
    if gamma <= -n:
        raise ValueError("requires gamma > -n")
    if not (0.0 < beta <= 1.0):
        raise ValueError("requires 0 < beta <= 1")
    if alpha2 is not None:
        expected = alpha2 + n * beta / (n + gamma)
        if abs(expected - alpha1) > 1e-12:
            raise ValueError(f"alpha1 = {alpha1} inconsistent with alpha2 + n beta/(n+gamma) = {expected}")
    if variant == "herz":
        expo = 1.0 - gamma / q - n / q - alpha1 * (1.0 + gamma / n)
        cid = "C5_herz"
        params = {"n": n, "gamma": gamma, "q": q, "alpha1": alpha1, "beta": beta}
    elif variant == "morrey_herz":
        if lam is None:
            raise ValueError("morrey_herz variant needs lambda")
        expo = 1.0 - gamma / q - n / q + (lam - alpha1) * (1.0 + gamma / n)
        cid = "C5_mherz"
        params = {"n": n, "gamma": gamma, "q": q, "alpha1": alpha1, "beta": beta, "lambda": lam}
    else:
        raise ValueError(f"unknown c5 variant {variant!r}")
    return _power_integral(phi, -expo, cid, params, extra_beta=beta)


def herz_lower_integral(phi: RadialKernel, n: int, gamma: float, q: float, m: int) -> float:
    """Truncated necessity integral over S_m = {u >= 2^{-(m-1)}}:

        integral_{S_m} |Phi(1/u)| u^{1 - 2n - gamma/q - n/q - 2^{-m}} du.
    """
    if m < 1:
        raise ValueError("m >= 1")
    power = 1.0 - 2.0 * n - gamma / q - n / q - 2.0 ** (-m)
    res = _power_integral(phi, power, "C2_m", {"m": m}, inverted=True, lo=2.0 ** (-(m - 1)))
    if res.divergent:
        raise DivergentIntegralError(f"truncated necessity integral diverges at m={m}")
    return res.value


def lower_bound_factor(
    omega: AngularProfile,
    r: float,
    w: Weight,
) -> float:
    """||Omega||_{r}^{r} / ||Omega||_{r, w dsigma}^{r/p}  with r = p', 1/p + 1/p' = 1.

    For a power weight (angular part 1) this collapses to ||Omega||_{r}.
    """
    if not (1.0 < r < math.inf):
        raise ValueError("requires r = p' in (1, inf); p = 1 (r = inf) is out of scope")
    unweighted = omega_norm(omega, r)
    weighted = omega_norm(omega, r, w)
    if weighted == 0.0:
        raise ZeroDivisionError("weighted symbol norm vanishes")
    # r/p = r (1 - 1/r) = r - 1
    return unweighted ** r / weighted ** (r - 1.0)
