"""Extremal test functions witnessing the lower bounds, with their closed-form
norms, per-annulus chunk norms and operator-image exponents.

All three families are separable powers |x|^e times the angular profile
|Omega|^{r'-2} Omega (real symbols, so conjugation is the identity).  The
exponent r' - 2 is negative for r < 2, which blows up where Omega vanishes:
constructors therefore insist on a nonvanishing symbol, and on r > 1 (the
conjugate exponent is undefined at r = 1).

The Herz family is supported on {|x| >= 1}.  Consequently its k-th chunk
norm is exactly the closed form for k >= 1 and exactly zero for k <= 0: the
annulus C_0 = {1/2 < |x| <= 1} meets the support in a measure-zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .functions import AngularProfile, TestFunction, omega_norm, separable
from .weights import Weight


def conjugate(r: float) -> float:
    """Conjugate exponent r' with 1/r + 1/r' = 1 (r > 1)."""
    if r <= 1.0:
        raise ValueError("conjugate exponent needs r > 1")
    return r / (r - 1.0)


def matched_angular(omega: AngularProfile, rprime: float) -> Callable:
    """|Omega|^{r'-2} Omega as a batched callable, 0 where Omega vanishes."""
    expo = rprime - 2.0

    def h(points):
        v = omega(points)
        av = np.abs(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(av > 0, av ** expo * v, 0.0)

    return h


def _extremal_angular(omega: AngularProfile, rprime: float) -> Callable:
    """matched_angular, for a symbol that cannot vanish when r' < 2."""
    if rprime < 2.0 and not omega.nonvanishing:
        raise ValueError("extremal angular part needs a nonvanishing symbol for r' < 2")
    return matched_angular(omega, rprime)


@dataclass(frozen=True)
class ExtremalFamily:
    kind: str  # morrey | herz | morrey_herz
    params: dict
    function: TestFunction
    closed_form_norm: Optional[float] = None
    closed_form_image_exponent: Optional[float] = None
    chunk_norm: Optional[Callable[[int], float]] = None
    _norm_closed_form: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def herz_norm_closed_form(self, p: float) -> float:
        """Closed-form Herz / Morrey-Herz norm for the given outer exponent p."""
        if self._norm_closed_form is None:
            raise ValueError(f"no p-dependent closed form for kind {self.kind}")
        return self._norm_closed_form(p)


def morrey_extremal(omega: AngularProfile, weight: Weight, lam: float, p: float) -> ExtremalFamily:
    """f(x) = |x|^{(n+gamma) lambda} |Omega(x')|^{p'-2} Omega(x').

    closed_form_norm is the exact central Morrey norm
        ((n+gamma)/w(S^{n-1}))^lambda (1+lambda p)^{-1/p} w(S^{n-1})^{-1/p}
            ||Omega||_{p', w dsigma}^{p'/p},
    and the transform of f is the pure power |x|^{(n+gamma) lambda} times
    ||Omega||_{p'}^{p'} times the signed kernel integral.
    """
    if p <= 1.0:
        raise ValueError("sharpness construction requires p > 1")
    n, gamma = weight.dim, weight.gamma
    if gamma <= -n:
        raise ValueError("requires gamma > -n")
    if 1.0 + lam * p <= 0.0:
        raise ValueError("requires 1 + lambda p > 0")
    pprime = conjugate(p)
    e = (n + gamma) * lam
    h = _extremal_angular(omega, pprime)
    f = separable(
        n,
        lambda r: np.asarray(r, dtype=float) ** e,
        h,
        support=(0.0, math.inf),
        exponents=(e, e),
        name=f"morrey_extremal(lam={lam},p={p})",
    )
    wS = weight.sphere_mass
    onorm_w = omega_norm(omega, pprime, weight)
    closed = (
        ((n + gamma) / wS) ** lam
        * (1.0 + lam * p) ** (-1.0 / p)
        * wS ** (-1.0 / p)
        * onorm_w ** (pprime / p)
    )
    return ExtremalFamily(
        kind="morrey",
        params={"n": n, "gamma": gamma, "lambda": lam, "p": p},
        function=f,
        closed_form_norm=closed,
        closed_form_image_exponent=e,
    )


def herz_extremal(omega: AngularProfile, weight: Weight, q: float, alpha: float, m: int) -> ExtremalFamily:
    """f_m = 0 on |x| < 1 and |x|^{-alpha - gamma/q - n/q - 2^{-m}} |Omega|^{q'-2} Omega on |x| >= 1."""
    if q <= 1.0:
        raise ValueError("requires q > 1")
    if m < 1:
        raise ValueError("m >= 1")
    if m > 20:
        raise ValueError("m > 20: 2^-m underflows against alpha")
    eps = 2.0 ** (-m)
    if alpha + eps == 0.0:
        raise ValueError("alpha + 2^-m must be nonzero")
    n, gamma = weight.dim, weight.gamma
    qprime = conjugate(q)
    a = alpha + eps
    expo = -(alpha + gamma / q + n / q + eps)
    h = _extremal_angular(omega, qprime)
    f = separable(
        n,
        lambda r: np.asarray(r, dtype=float) ** expo,
        h,
        support=(1.0, math.inf),
        exponents=(None, expo),
        name=f"herz_extremal(alpha={alpha},m={m})",
    )
    onorm_w = omega_norm(omega, qprime, weight)
    chunk_const = abs((2.0 ** (q * a) - 1.0) / (a * q)) ** (1.0 / q) * onorm_w ** (qprime / q)

    def chunk(k: int) -> float:
        if k <= 0:
            return 0.0
        return 2.0 ** (-k * a) * chunk_const

    def norm_closed_form(p: float) -> float:
        # sum_{k>=1} 2^{k alpha p} chunk(k)^p = chunk_const^p sum_{k>=1} 2^{-k p eps}
        rho = 2.0 ** (-p * eps)
        return chunk_const * (rho / (1.0 - rho)) ** (1.0 / p)

    return ExtremalFamily(
        kind="herz",
        params={"n": n, "gamma": gamma, "q": q, "alpha": alpha, "m": m},
        function=f,
        closed_form_norm=None,
        closed_form_image_exponent=expo,
        chunk_norm=chunk,
        _norm_closed_form=norm_closed_form,
    )


def morrey_herz_extremal(omega: AngularProfile, weight: Weight, q: float, alpha: float, lam: float) -> ExtremalFamily:
    """f(x) = |x|^{-alpha - n/q - gamma/q + lambda} |Omega(x')|^{q'-2} Omega(x').

    Per-annulus chunk norms (any weight in the class):
        lambda != alpha: 2^{k(lambda-alpha)} |(1 - 2^{-q(lambda-alpha)}) / (q(lambda-alpha))|^{1/q}
                           ||Omega||_{q', w dsigma}^{q'/q}
        lambda == alpha: (ln 2)^{1/q} ||Omega||_{q', w dsigma}^{q'/q}
    (the chunk integrand is r^{(lambda-alpha) q - 1}, so the constant-chunk
    case is lambda = alpha).
    """
    if q <= 1.0:
        raise ValueError("requires q > 1")
    if lam <= 0.0:
        raise ValueError("requires lambda > 0")
    n, gamma = weight.dim, weight.gamma
    qprime = conjugate(q)
    expo = -(alpha + n / q + gamma / q - lam)
    h = _extremal_angular(omega, qprime)
    f = separable(
        n,
        lambda r: np.asarray(r, dtype=float) ** expo,
        h,
        support=(0.0, math.inf),
        exponents=(expo, expo),
        name=f"morrey_herz_extremal(alpha={alpha},lam={lam})",
    )
    onorm_w = omega_norm(omega, qprime, weight)
    s = lam - alpha
    if s != 0.0:
        chunk_const = abs((1.0 - 2.0 ** (-q * s)) / (q * s)) ** (1.0 / q) * onorm_w ** (qprime / q)
    else:
        chunk_const = math.log(2.0) ** (1.0 / q) * onorm_w ** (qprime / q)

    def chunk(k: int) -> float:
        return 2.0 ** (k * s) * chunk_const

    def norm_closed_form(p: float) -> float:
        # sup_{k0} 2^{-k0 lam} ( sum_{k<=k0} 2^{k alpha p} chunk(k)^p )^{1/p}
        # terms are chunk_const^p 2^{k lam p}; geometric with ratio 2^{-lam p}
        return chunk_const * (1.0 - 2.0 ** (-lam * p)) ** (-1.0 / p)

    return ExtremalFamily(
        kind="morrey_herz",
        params={"n": n, "gamma": gamma, "q": q, "alpha": alpha, "lambda": lam},
        function=f,
        closed_form_norm=None,
        closed_form_image_exponent=expo,
        chunk_norm=chunk,
        _norm_closed_form=norm_closed_form,
    )
