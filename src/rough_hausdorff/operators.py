"""Pointwise and whole-space evaluation of the rough Hausdorff transform,
its Lipschitz-symbol commutator, and the Hardy / adjoint-Hardy oracles.

The transform of f at x is

    (T f)(x) = int_0^inf int_{S^{n-1}} Phi(t)/t * Omega(y') f(|x| y'/t) dsigma(y') dt,

which depends on x only through |x|.  For separable f = g(|x|) h(x/|x|) the
sphere factor int Omega h dsigma splits off and the t-integral reduces to a
one-dimensional quadrature of Phi(t)/t * g(|x|/t) (over s = |x|/t when g
has bounded support); ``radial_apply`` solves all the radii it is given in
one ``integrate_intervals`` call.  The nested general path is kept
alongside and the two must agree.

Pointwise tolerances are split three ways across nesting levels so the
composed error stays under the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functions import AngularProfile, LipschitzSymbol, RadialKernel, TestFunction, separable
from .quadrature import (
    Ball,
    Shell,
    _sphere_sums,
    integrate_intervals,
    integrate_region,
    integrate_sphere,
    sphere_nodes,
)


def _combine_exponent_at_zero(phi_e0: float, g_einf: float | None) -> float:
    """Exponent at t -> 0 of Phi(t)/t * g(c/t)."""
    if phi_e0 == math.inf or g_einf == -math.inf:
        return math.inf
    if g_einf is None:
        raise ValueError("need the test function's radial exponent at infinity")
    return phi_e0 - 1.0 - g_einf


def _combine_exponent_at_inf(phi_einf: float, g_e0: float | None) -> float:
    if phi_einf == -math.inf or g_e0 == math.inf:
        return -math.inf
    if g_e0 is None:
        raise ValueError("need the test function's radial exponent at zero")
    return phi_einf - 1.0 - g_e0


def _per_radius(integrand, r: np.ndarray, lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray, tol: float,
                exponent_at_zero, exponent_at_infinity) -> np.ndarray:
    """integrand(x, radius) over (lo[k], hi[k]) for every radius r[k], cut
    at cuts[k], in one ``integrate_intervals`` solve; 0 where the domain is
    empty.  The two exponent callables give the declared endpoint exponents
    and are called only when a domain reaches that end."""
    out = np.zeros(len(r))
    live = hi > lo
    if live.any():
        lo, hi, rl = lo[live], hi[live], r[live]
        out[live] = integrate_intervals(lambda x, i: integrand(x, rl[i]), lo, hi, tol,
                                        exponent_at_zero() if (lo == 0.0).any() else None,
                                        exponent_at_infinity() if np.isinf(hi).any() else None,
                                        align=cuts[live]).value
    return out


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
        array of values; all radii are one ``integrate_intervals`` solve.  A
        bounded radial factor is integrated over s = r/t, whose domain is its
        support clipped to (r / sup supp Phi, r / inf supp Phi); an unbounded
        one over t.  Either is cut at the factor's declared jumps.
        """
        if not f.separable:
            raise ValueError("radial_apply requires separable input")
        radii = np.asarray(r, dtype=float)
        rs = radii.ravel()
        if np.any(rs <= 0):
            raise ValueError("evaluation at the origin is out of scope")
        sf = self.sphere_factor(f, tol / 3.0)
        fl, fh = f.support
        if math.isfinite(fh):
            philo, phihi = self.phi.support
            lo = np.maximum(fl, rs / phihi)
            hi = np.minimum(fh, rs / philo) if philo > 0.0 else np.full(rs.shape, fh)

            def e0_s():  # Phi(r/s)/s g(s) ~ s^{-phinf - 1 + e} as s -> 0
                ez, phinf = f.radial_exponent_at_zero, self.phi.exponent_at_infinity
                if phinf == -math.inf or ez == math.inf:
                    return math.inf
                if ez is None:
                    raise ValueError(f"test function {f.name!r} needs a radial exponent at 0")
                return -phinf - 1.0 + ez

            out = _per_radius(lambda s, radius: self.phi(radius / s) / s * f.radial_values(s), rs, lo, hi,
                              np.tile(f.cut_radii, (len(rs), 1)), tol / 3.0, e0_s, lambda: None)
        else:
            out = self._t_integral(lambda t, radius: self.phi(t) / t * f.radial_values(radius / t), f, rs,
                                   tol / 3.0)
        out = sf * out
        return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)

    def _t_integral(self, integrand, f: TestFunction, r: np.ndarray, tol: float) -> np.ndarray:
        """integrand(t, radius) over the t-range where Phi(t) f(r y'/t) can be
        nonzero, for every radius r[k], with the endpoint exponents that Phi
        and f declare and a cut where f jumps (t = r / jump)."""
        (philo, phihi), (fl, fh) = self.phi.support, f.support
        lo = np.maximum(philo, r / fh if 0.0 < fh < math.inf else np.zeros(r.shape))
        hi = np.minimum(phihi, r / fl if fl > 0.0 else np.full(r.shape, math.inf))
        return _per_radius(integrand, r, lo, hi, r[:, None] / np.array(f.cut_radii), tol,
                           lambda: _combine_exponent_at_zero(self.phi.exponent_at_zero, f.radial_exponent_at_infinity),
                           lambda: _combine_exponent_at_inf(self.phi.exponent_at_infinity, f.radial_exponent_at_zero))

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

        def integrand(t, radius):
            return self.phi(t) / t * _sphere_sums(f, radius / t, pts, weights)

        return float(self._t_integral(integrand, f, np.array([r]), tol / 3.0)[0])

    def image(self, f: TestFunction, tol: float = 1e-9) -> TestFunction:
        """The output as a radial TestFunction whose profile solves each batch
        of positive radii in one ``radial_apply`` call (0 at r = 0)."""
        if not f.separable:
            raise ValueError("image construction requires separable input")

        def profile(r_batch):
            radii = np.atleast_1d(np.asarray(r_batch, dtype=float))
            vals = np.zeros(radii.shape)
            pos = radii > 0
            if np.any(pos):
                vals[pos] = self.radial_apply(f, radii[pos], tol)
            return vals

        phi = self.phi
        fl, fh = f.support
        lo_img = fl * phi.support[0]
        hi_img = fh * phi.support[1]
        e0_img = min(phi.exponent_at_zero, f.radial_exponent_at_zero if f.radial_exponent_at_zero is not None else math.inf)
        einf_img = max(
            phi.exponent_at_infinity,
            f.radial_exponent_at_infinity if f.radial_exponent_at_infinity is not None else -math.inf,
        )
        return separable(
            self.dim,
            profile,
            support=(lo_img, hi_img if hi_img == hi_img else math.inf),
            exponents=(e0_img, einf_img),
            name=f"T[{f.name}]",
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

    einf = None
    if f.radial_exponent_at_infinity is not None:
        einf = f.radial_exponent_at_infinity - n
    res = integrate_region(n, g, Shell(r, math.inf), tol, radial_exponent_at_infinity=einf)
    return res.value


@dataclass
class CommutatorOperator:
    """H^b f = b * (T f) - T(b f) for a Lipschitz symbol b."""

    base: HausdorffOperator
    symbol: LipschitzSymbol

    def apply(self, f: TestFunction, x, tol: float = 1e-9) -> float:
        """The commutator at x: T applied to g(y) = f(y) (b(x) - b(y)).

        g keeps f's support, jumps and exponent at 0; near infinity
        |b(x) - b(y)| grows like |y|^beta, which raises the exponent there.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        b = self.symbol
        bx = float(b(x[None, :])[0])
        einf = f.radial_exponent_at_infinity
        g = TestFunction(
            dim=f.dim,
            general=lambda y: np.asarray(f(y), dtype=float) * (bx - np.asarray(b(y), dtype=float)),
            support=f.support,
            radial_exponent_at_zero=f.radial_exponent_at_zero,
            radial_exponent_at_infinity=einf + b.beta if einf is not None else None,
            jumps=f.jumps,
            name=f"(b(x)-b)*{f.name}",
        )
        return self.base.apply(g, x, tol)

    def apply_expanded(self, f: TestFunction, x, tol: float = 1e-9) -> float:
        """b(x) (T f)(x) - T(b f)(x); must match ``apply`` to tolerance."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bx = float(self.symbol(x[None, :])[0])
        bf = _multiply_symbol(f, self.symbol)
        return bx * self.base.apply(f, x, tol) - self.base.apply(bf, x, tol)

    def image(self, f: TestFunction, tol: float = 1e-9) -> TestFunction:
        """Whole-space commutator output for separable f and radial-power b.

        Requires a radial symbol b = |x|^beta so that b f stays separable;
        the output is then radial.
        """
        b = self.symbol
        if b.name.startswith("abs_power"):
            g_img = self.base.image(f, tol)
            gb_img = self.base.image(_multiply_symbol(f, b), tol)
            beta = b.beta

            def profile(r_batch):
                r = np.asarray(r_batch, dtype=float)
                return r ** beta * g_img.radial_values(r) - gb_img.radial_values(r)

            lo = min(g_img.support[0], gb_img.support[0])
            hi = max(g_img.support[1], gb_img.support[1])
            e0s = [e for e in (
                (g_img.radial_exponent_at_zero + beta) if g_img.radial_exponent_at_zero is not None else None,
                gb_img.radial_exponent_at_zero,
            ) if e is not None]
            einfs = [e for e in (
                (g_img.radial_exponent_at_infinity + beta) if g_img.radial_exponent_at_infinity is not None else None,
                gb_img.radial_exponent_at_infinity,
            ) if e is not None]
            return separable(
                self.base.dim,
                profile,
                support=(lo, hi),
                exponents=(min(e0s) if e0s else None, max(einfs) if einfs else None),
                name=f"[b,T][{f.name}]",
            )
        raise ValueError("whole-space commutator image implemented for radial power symbols")


def _multiply_symbol(f: TestFunction, b: LipschitzSymbol) -> TestFunction:
    """b * f, kept separable when b is radial (|x|^beta) or linear <x, e>."""
    if f.separable and b.name.startswith("abs_power"):
        beta = b.beta
        radial = f.radial_values
        e0 = f.radial_exponent_at_zero + beta if f.radial_exponent_at_zero is not None else None
        einf = f.radial_exponent_at_infinity + beta if f.radial_exponent_at_infinity is not None else None
        return separable(
            f.dim,
            lambda r: np.asarray(r, dtype=float) ** beta * radial(r),
            f.angular,
            support=f.support,
            exponents=(e0, einf),
            name=f"b*{f.name}",
        )
    if f.separable and b.name == "linear":
        radial = f.radial_values
        angular = f.angular_values
        e0 = f.radial_exponent_at_zero + 1.0 if f.radial_exponent_at_zero is not None else None
        einf = f.radial_exponent_at_infinity + 1.0 if f.radial_exponent_at_infinity is not None else None
        return separable(
            f.dim,
            lambda r: np.asarray(r, dtype=float) * radial(r),
            lambda pts: np.asarray(b(pts), dtype=float) * angular(pts),
            support=f.support,
            exponents=(e0, einf),
            name=f"b*{f.name}",
        )
    general = lambda x: np.asarray(f(x), dtype=float) * np.asarray(b(x), dtype=float)
    return TestFunction(dim=f.dim, general=general, support=f.support, name=f"b*{f.name}")


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
