"""Pointwise and whole-space evaluation of the rough Hausdorff transform,
its Lipschitz-symbol commutator, and the Hardy / adjoint-Hardy oracles.

The transform of f at x is

    (T f)(x) = int_0^inf int_{S^{n-1}} Phi(t)/t * Omega(y') f(|x| y'/t) dsigma(y') dt,

which depends on x only through |x|.  Every evaluation runs under the one
substitution s = |x|/t,

    (T f)(x) = int_0^inf Phi(|x|/s)/s int_{S^{n-1}} Omega(y') f(s y') dsigma(y') ds,

where f's support, jumps and exponents sit at fixed s and only Phi depends
on the radius.  For separable f = g(|x|) h(x/|x|) the sphere factor
int Omega h dsigma splits off and ``radial_apply`` solves the s-integral
of Phi(r/s)/s * g(s) for all the radii it is given in one
``integrate_intervals`` call.  The nested general path (``apply``) takes
sphere sums of f in place of g; the two must agree.  The commutator image
with b = |x|^beta is one row of the same solve per radius, of
Phi(r/s)/s * (r^beta - s^beta) g(s); one builder declares both images.

Pointwise tolerances are split three ways across nesting levels so the
composed error stays under the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .functions import AngularProfile, LipschitzSymbol, RadialKernel, TestFunction, separable
from .quadrature import (
    Ball,
    Shell,
    _shift,
    _sphere_sums,
    integrate_intervals,
    integrate_region,
    integrate_sphere,
    sphere_nodes,
)


def _s_exponent(phi_e: float, f_e: float | None, vanish: float, end: str) -> float:
    """Declared exponent of Phi(r/s)/s * f(s) at one end of s: -phi_e - 1 + f_e,
    with phi_e Phi's exponent at the opposite end of t and f_e f's at this
    end; ``vanish`` (+inf at s -> 0, -inf at s -> inf) when either factor
    vanishes there."""
    if -phi_e == vanish or f_e == vanish:
        return vanish
    if f_e is None:
        raise ValueError(f"need the test function's radial exponent at {end}")
    return -phi_e - 1.0 + f_e


@dataclass
class HausdorffOperator:
    """The rough transform with kernel ``phi`` and sphere symbol ``omega``."""

    phi: RadialKernel
    omega: AngularProfile
    dim: int
    _sphere_factors: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.omega.dim != self.dim:
            raise ValueError("omega dimension mismatch")

    def sphere_factor(self, f: TestFunction, tol: float = 1e-12) -> float:
        """int_{S^{n-1}} Omega(y') h(y') dsigma(y') for separable f = g * h."""
        key = (f.angular, tol)  # the key holds the angular factor, so it cannot be recycled
        if key not in self._sphere_factors:
            def g(points):
                return self.omega(points) * f.angular_values(points)

            self._sphere_factors[key] = integrate_sphere(self.dim, g, tol).value
        return self._sphere_factors[key]

    def radial_apply(self, f: TestFunction, r, tol: float = 1e-9):
        """The radial profile of the output at radius r (separable input).

        ``r`` is a float, giving a float, or an array of radii, giving an
        array of values; all radii are one ``_s_integral`` solve of
        Phi(r/s)/s * g(s) over s = r/t.
        """
        if not f.separable:
            raise ValueError("radial_apply requires separable input")
        radii = np.asarray(r, dtype=float)
        rs = radii.ravel()
        if np.any(rs <= 0):
            raise ValueError("evaluation at the origin is out of scope")
        out = self.sphere_factor(f, tol / 3.0) * self._s_integral(lambda s, _: f.radial_values(s), f, rs, tol / 3.0)
        return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)

    def _s_integral(self, values, f: TestFunction, r: np.ndarray, tol: float) -> np.ndarray:
        """int Phi(r/s)/s * values(s, r) ds for every radius r[k], in one
        ``integrate_intervals`` solve; 0 where the domain is empty.  ``values``
        gets each point's row radius; f declares the support, jumps and
        endpoint exponents of ``values``.

        The domain is f's support clipped to (r / sup supp Phi, r / inf supp
        Phi), cut at f's declared jumps, which sit at the same s for every
        radius.  Phi(r/s) varies around s = r (t = 1), which moves with the
        radius, so a domain holding r inside is split there into two rows:
        each row's bounded block then spans at least the 8 octaves next to
        r before an endpoint expansion starts.  The endpoint exponents
        (``_s_exponent``) are formed only when some domain reaches that end.
        """
        (philo, phihi), (fl, fh) = self.phi.support, f.support
        lo = np.maximum(fl, r / phihi)
        hi = np.minimum(fh, r / philo) if philo > 0.0 else np.full(r.shape, fh)
        split = (lo < r) & (r < hi)
        owner = np.concatenate((np.arange(len(r)), np.flatnonzero(split)))
        lo, hi = np.concatenate((lo, r[split])), np.concatenate((np.where(split, r, hi), hi[split]))
        live = hi > lo
        if not live.any():
            return np.zeros(len(r))
        lo, hi, rl = lo[live], hi[live], r[owner[live]]
        e0 = _s_exponent(self.phi.exponent_at_infinity, f.radial_exponent_at_zero, math.inf, "zero") \
            if (lo == 0.0).any() else None
        einf = _s_exponent(self.phi.exponent_at_zero, f.radial_exponent_at_infinity, -math.inf, "infinity") \
            if np.isinf(hi).any() else None
        parts = integrate_intervals(lambda s, i: self.phi(rl[i] / s) / s * values(s, rl[i]), lo, hi, tol, e0, einf,
                                    align=np.tile(f.cut_radii, (len(rl), 1))).value
        return np.bincount(owner[live], parts, len(r))

    def apply(self, f: TestFunction, x, tol: float = 1e-9) -> float:
        """Transform value at a single point x != 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = float(np.linalg.norm(x))
        if r == 0.0:
            raise ValueError("evaluation at the origin is out of scope")
        if f.separable:
            return self.radial_apply(f, r, tol)
        pts, w = sphere_nodes(self.dim, 6 if self.dim > 1 else 0)
        weights = w * self.omega(pts)
        return float(self._s_integral(lambda s, _: _sphere_sums(f, s, pts, weights), f, np.array([r]), tol / 3.0)[0])

    def image(self, f: TestFunction, tol: float = 1e-9) -> TestFunction:
        """The output as a radial TestFunction whose profile solves each batch
        of positive radii in one ``radial_apply`` call (0 at r = 0)."""
        return self._radial_image(f, lambda r: self.radial_apply(f, r, tol), 0.0, f"T[{f.name}]")

    def _radial_image(self, f: TestFunction, solve, beta: float, name: str) -> TestFunction:
        """The radial output of separable f whose profile solves each batch of
        positive radii in one ``solve`` call (0 at r = 0), on f's support times
        Phi's, with exponents min(phi_0, e_0 + beta) at 0 and
        max(phi_inf, e_inf) + beta at infinity (beta = 0 for T)."""
        if not f.separable:
            raise ValueError("image construction requires separable input")

        def profile(r_batch):
            radii = np.atleast_1d(np.asarray(r_batch, dtype=float))
            vals = np.zeros(radii.shape)
            pos = radii > 0
            if np.any(pos):
                vals[pos] = solve(radii[pos])
            return vals

        phi, e0, einf = self.phi, f.radial_exponent_at_zero, f.radial_exponent_at_infinity
        return separable(
            self.dim, profile, support=(f.support[0] * phi.support[0], f.support[1] * phi.support[1]),
            exponents=(min(phi.exponent_at_zero, math.inf if e0 is None else e0 + beta),
                       max(phi.exponent_at_infinity, -math.inf if einf is None else einf) + beta),
            name=name,
        )


def hardy_apply(f: TestFunction, x, n: int, tol: float = 1e-9) -> float:
    """|x|^{-n} integral_{|y| <= |x|} f(y) dy  (direct region oracle)."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if r == 0.0:
        raise ValueError("x must be nonzero")
    res = integrate_region(
        n, f, Ball(r), tol,
        radial_exponent_at_zero=f.radial_exponent_at_zero,
    )
    return res.value / r ** n


def adjoint_hardy_apply(f: TestFunction, x, n: int, tol: float = 1e-9) -> float:
    """integral_{|y| > |x|} f(y) / |y|^n dy  (direct region oracle)."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if r == 0.0:
        raise ValueError("x must be nonzero")

    def g(y):
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        rr = np.linalg.norm(pts, axis=1)
        return np.asarray(f(pts), dtype=float) / rr ** n

    res = integrate_region(n, g, Shell(r, math.inf), tol,
                           radial_exponent_at_infinity=_shift(f.radial_exponent_at_infinity, -n))
    return res.value


@dataclass
class CommutatorOperator:
    """H^b f = b * (T f) - T(b f) for a Lipschitz symbol b."""

    base: HausdorffOperator
    symbol: LipschitzSymbol

    def apply(self, f: TestFunction, x, tol: float = 1e-9) -> float:
        """The commutator at x: T applied to g(y) = f(y) (b(x) - b(y)), whose
        multiplier grows like |y|^beta near infinity (``_product``)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        b = self.symbol
        bx = float(b(x[None, :])[0])
        return self.base.apply(_product(f, lambda y: bx - b(y), b.beta, f"(b(x)-b)*{f.name}"), x, tol)

    def apply_expanded(self, f: TestFunction, x, tol: float = 1e-9) -> float:
        """b(x) (T f)(x) - T(b f)(x); must match ``apply`` to tolerance."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bx = float(self.symbol(x[None, :])[0])
        bf = _multiply_symbol(f, self.symbol)
        return bx * self.base.apply(f, x, tol) - self.base.apply(bf, x, tol)

    def image(self, f: TestFunction, tol: float = 1e-9) -> TestFunction:
        """Whole-space commutator output for separable f and radial-power b.

        With b = |x|^beta the output is radial: at radius r it is
        sf * int Phi(r/s)/s * (r^beta - s^beta) g(s) ds, one ``_s_integral``
        solve per profile batch.  r^beta - s^beta is bounded near s = 0 and
        grows like s^beta, so f declares the integrand with its exponent at
        infinity raised by beta.
        """
        b, base = self.symbol, self.base
        if not b.name.startswith("abs_power"):
            raise ValueError("whole-space commutator image implemented for radial power symbols")
        beta = b.beta
        declared = replace(f, radial_exponent_at_infinity=_shift(f.radial_exponent_at_infinity, beta))

        def solve(r):
            values = lambda s, rk: (rk ** beta - s ** beta) * f.radial_values(s)
            return base.sphere_factor(f, tol / 3.0) * base._s_integral(values, declared, r, tol / 3.0)

        return base._radial_image(f, solve, beta, f"[b,T][{f.name}]")


def _product(f: TestFunction, multiplier, beta: float, name: str) -> TestFunction:
    """f times a multiplier that is bounded near 0 and grows like |y|^beta:
    f's support, jumps and exponent at 0, its exponent at infinity raised
    by beta."""
    return TestFunction(
        dim=f.dim,
        general=lambda y: np.asarray(f(y), dtype=float) * np.asarray(multiplier(y), dtype=float),
        support=f.support,
        radial_exponent_at_zero=f.radial_exponent_at_zero,
        radial_exponent_at_infinity=_shift(f.radial_exponent_at_infinity, beta),
        jumps=f.jumps,
        name=name,
    )


def _multiply_symbol(f: TestFunction, b: LipschitzSymbol) -> TestFunction:
    """b * f, kept separable when b is radial (|x|^beta) or linear
    (<x, e> = |x| <x', e>, beta = 1): |x|^beta joins the radial factor and
    a linear symbol's <x', e> the angular one."""
    radial_symbol = b.name.startswith("abs_power")
    if f.separable and (radial_symbol or b.name == "linear"):
        beta, radial, angular = b.beta, f.radial_values, f.angular_values
        return separable(
            f.dim,
            lambda r: np.asarray(r, dtype=float) ** beta * radial(r),
            f.angular if radial_symbol else lambda pts: b(pts) * angular(pts),
            support=f.support,
            exponents=(_shift(f.radial_exponent_at_zero, beta), _shift(f.radial_exponent_at_infinity, beta)),
            jumps=f.jumps,
            name=f"b*{f.name}",
        )
    return _product(f, b, b.beta, f"b*{f.name}")


def lipschitz_gap(b: LipschitzSymbol, x, t, yprime) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, |b(x) - b(|x| y'/t)| and its bound ||b|| |x|^beta (1 + 1/t)^beta
    (Ineq 3.8), for stacked points x, unit vectors y' and scales t."""
    x, y = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, yprime))
    r = np.linalg.norm(x, axis=1)
    bound = b.lip_norm * r ** b.beta * (1.0 + 1.0 / t) ** b.beta
    return np.abs(b(x) - b((r / t)[:, None] * y)), bound


def lipschitz_pointwise_bound(b: LipschitzSymbol, x, t: float, yprime) -> float:
    """||b|| |x|^beta (1 + 1/t)^beta, checked to dominate |b(x) - b(|x| y'/t)|."""
    if float(np.linalg.norm(x)) == 0.0 or t <= 0:
        raise ValueError("requires x != 0 and t > 0")
    actual, bound = (float(v[0]) for v in lipschitz_gap(b, x, t, yprime))
    if actual > bound * (1.0 + 1e-12):
        raise AssertionError(
            f"pointwise bound violated: |b(x)-b(|x|y'/t)| = {actual:.6g} > {bound:.6g}; "
            "the declared lip_norm is invalid"
        )
    return bound
