"""Operands of the transform machinery: angular symbols, radial kernels,
test functions and Lipschitz multiplier symbols.

Everything is real-valued; the norms and constants in play depend only on
absolute values, and for a real angular symbol the extremal angular part
|O|^{p'-2} O is sign-preserving (conjugation is the identity), so the real
theory exercises every claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import exprs
from .quadrature import integrate_sphere, sphere_nodes
from .weights import Weight

OMEGA_TOL = 1e-11


@dataclass(frozen=True)
class AngularProfile:
    """Real symbol on S^{dim-1}; ``nonvanishing`` witnesses |value| > 0 a.e."""

    eval: Callable[[np.ndarray], np.ndarray]
    dim: int
    nonvanishing: bool = False

    def __post_init__(self):
        pts, _ = sphere_nodes(self.dim, 3 if self.dim > 1 else 0)
        vals = np.asarray(self.eval(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("angular profile must be finite on the sphere")
        if self.nonvanishing and np.any(np.abs(vals) == 0.0):
            raise ValueError("declared nonvanishing but vanishes at a quadrature node")

    def __call__(self, points) -> np.ndarray:
        return np.asarray(self.eval(np.atleast_2d(np.asarray(points, dtype=float))), dtype=float)

    @staticmethod
    def constant(value: float, dim: int) -> "AngularProfile":
        def fn(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            return np.full(pts.shape[0], float(value))

        return AngularProfile(fn, dim, nonvanishing=value != 0.0)

    @staticmethod
    def from_expression(source: str, dim: int, nonvanishing: bool = False) -> "AngularProfile":
        return AngularProfile(exprs.sphere_expression(source, dim), dim, nonvanishing)


def omega_norm(
    omega: AngularProfile,
    r: float,
    weight: Optional[Weight] = None,
) -> float:
    """L^r norm of the symbol on the sphere, weighted by the angular part of
    ``weight`` when given; r = inf takes the max over quadrature nodes."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = omega.dim
    if math.isinf(r):
        pts, _ = sphere_nodes(n, 6 if n > 1 else 0)
        return float(np.abs(omega(pts)).max())

    def g(points):
        v = np.abs(omega(points)) ** r
        if weight is not None:
            v = v * np.asarray(weight.angular(points), dtype=float)
        return v

    total = integrate_sphere(n, g, OMEGA_TOL).value
    return total ** (1.0 / r)


@dataclass(frozen=True)
class RadialKernel:
    """Radial kernel t -> Phi(t) on (0, inf) with declared endpoint exponents,
    sign class and support interval (used to clip quadrature panels)."""

    eval: Callable[[np.ndarray], np.ndarray]
    exponent_at_zero: float
    exponent_at_infinity: float
    sign: str = "mixed"  # nonnegative | nonpositive | mixed
    support: tuple[float, float] = (0.0, math.inf)
    name: str = "kernel"

    def __post_init__(self):
        if self.sign not in ("nonnegative", "nonpositive", "mixed"):
            raise ValueError(f"bad sign class {self.sign!r}")
        ts = np.geomspace(1e-3, 1e3, 61)
        vals = np.asarray(self.eval(ts), dtype=float)
        if self.sign == "nonnegative" and np.any(vals < 0):
            raise ValueError("kernel declared nonnegative but takes negative values")
        if self.sign == "nonpositive" and np.any(vals > 0):
            raise ValueError("kernel declared nonpositive but takes positive values")

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(t, dtype=float)), dtype=float)


# the parameters of each kernel preset, in the order of its ``name:arg:...`` string form
KERNEL_PARAMETERS = {
    "hardy": ("n",),
    "adjoint_hardy": (),
    "power": ("a", "lo", "hi"),
    "gaussian": (),
    "double_exp": (),
}


def kernel_presets(kind: str, *args, **kwargs) -> RadialKernel:
    """Kernel presets; parameters by position (KERNEL_PARAMETERS order) or by name.

    hardy(n):        Phi(t) = t^-n on (1, inf)   -> the Hardy operator
    adjoint_hardy:   Phi(t) = 1 on (0, 1)        -> the adjoint Hardy operator
    power(a, lo, hi): Phi(t) = t^a on (lo, hi)
    gaussian:        Phi(t) = exp(-t^2)
    double_exp:      Phi(t) = exp(-t - 1/t)
    """
    params = dict(zip(KERNEL_PARAMETERS.get(kind, ()), args), **kwargs)
    if kind == "hardy":
        n = int(params["n"])

        def hardy(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(t > 1.0, t ** float(-n), 0.0)

        return RadialKernel(hardy, math.inf, float(-n), "nonnegative", (1.0, math.inf), f"hardy:{n}")
    if kind == "adjoint_hardy":

        def adj(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 0.0) & (t < 1.0), 1.0, 0.0)

        return RadialKernel(adj, 0.0, -math.inf, "nonnegative", (0.0, 1.0), "adjoint_hardy")
    if kind == "power":
        a = float(params["a"])
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", math.inf))
        if not (0.0 <= lo < hi):
            raise ValueError("bad power kernel range")

        def pw(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where((t > lo) & (t < hi), t ** a, 0.0)
            return vals

        e0 = a if lo == 0.0 else math.inf
        einf = a if math.isinf(hi) else -math.inf
        return RadialKernel(pw, e0, einf, "nonnegative", (lo, hi), f"power:{a}")
    if kind == "gaussian":

        def gauss(t):
            t = np.asarray(t, dtype=float)
            return np.exp(-t * t)

        return RadialKernel(gauss, 0.0, -math.inf, "nonnegative", (0.0, math.inf), "gaussian")
    if kind == "double_exp":

        def dexp(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.exp(-t - 1.0 / t)

        return RadialKernel(dexp, math.inf, -math.inf, "nonnegative", (0.0, math.inf), "double_exp")
    raise ValueError(f"unknown kernel preset {kind!r}")


@dataclass(frozen=True)
class TestFunction:
    """Function on R^n, preferably separable radial(|x|) * angular(x/|x|).

    ``support`` = (r_min, r_max) is a contract: f vanishes for |x| outside
    it, and every norm integrates only over the part of each shell inside
    it.  The radial exponents describe power behaviour of the radial factor
    near 0 / inf and default to +-inf outside a bounded support.
    """

    __test__ = False  # not a pytest collection target

    dim: int
    radial: Optional[Callable[[np.ndarray], np.ndarray]] = None
    angular: Optional[Callable[[np.ndarray], np.ndarray]] = None
    general: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: tuple[float, float] = (0.0, math.inf)
    radial_exponent_at_zero: Optional[float] = None
    radial_exponent_at_infinity: Optional[float] = None
    jumps: tuple[float, ...] = ()  # declared interior radial discontinuities
    name: str = "f"

    def __post_init__(self):
        if (self.radial is None) == (self.general is None):
            raise ValueError("exactly one of radial / general must be given")
        if self.radial is not None and self.angular is None:
            object.__setattr__(self, "angular", lambda pts: np.ones(np.atleast_2d(pts).shape[0]))
        e0, einf = self.radial_exponent_at_zero, self.radial_exponent_at_infinity
        if e0 is None:
            e0 = math.inf if self.support[0] > 0.0 else None
        if einf is None:
            einf = -math.inf if math.isfinite(self.support[1]) else None
        object.__setattr__(self, "radial_exponent_at_zero", e0)
        object.__setattr__(self, "radial_exponent_at_infinity", einf)

    @property
    def separable(self) -> bool:
        return self.radial is not None

    @property
    def cut_radii(self) -> tuple[float, ...]:
        """The declared jumps at finite positive radii: panel cut points of any
        integral of f.  Support edges need no cut: every domain is clipped to them."""
        return tuple(j for j in self.jumps if math.isfinite(j) and j > 0.0)

    def radial_values(self, r) -> np.ndarray:
        if not self.separable:
            raise ValueError("not separable")
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        vals = np.asarray(self.radial(r), dtype=float)
        if lo > 0.0 or math.isfinite(hi):
            vals = np.where((r >= lo) & (r <= hi), vals, 0.0)
        return vals

    def angular_values(self, points) -> np.ndarray:
        if not self.separable:
            raise ValueError("not separable")
        return np.asarray(self.angular(np.atleast_2d(points)), dtype=float)

    def __call__(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if self.separable:
            r = np.linalg.norm(pts, axis=1)
            out = np.zeros(pts.shape[0])
            pos = r > 0.0
            if np.any(pos):
                out[pos] = self.radial_values(r[pos]) * self.angular_values(pts[pos] / r[pos, None])
            if np.any(~pos):
                # radial limit at the origin; angular factor averaged to 1 by convention
                out[~pos] = self.radial_values(np.full(np.sum(~pos), 1e-300))
            return out
        return np.asarray(self.general(pts), dtype=float)

    def scaled(self, c: float) -> "TestFunction":
        if self.separable:
            radial = self.radial
            return replace(self, radial=lambda r, _f=radial: c * np.asarray(_f(r), dtype=float),
                           name=f"{c}*{self.name}")
        general = self.general
        return replace(self, general=lambda x, _f=general: c * np.asarray(_f(x), dtype=float),
                       name=f"{c}*{self.name}")


def separable(
    dim: int,
    radial: Callable[[np.ndarray], np.ndarray],
    angular: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    support: tuple[float, float] = (0.0, math.inf),
    exponents: tuple[Optional[float], Optional[float]] = (None, None),
    jumps: tuple[float, ...] = (),
    name: str = "f",
) -> TestFunction:
    return TestFunction(
        dim=dim,
        radial=radial,
        angular=angular,
        support=support,
        radial_exponent_at_zero=exponents[0],
        radial_exponent_at_infinity=exponents[1],
        jumps=jumps,
        name=name,
    )


def power_function(dim: int, exponent: float, angular=None, name: str | None = None) -> TestFunction:
    """|x|^exponent times an optional angular factor, on all of R^n."""
    return separable(
        dim,
        lambda r: np.asarray(r, dtype=float) ** exponent,
        angular,
        support=(0.0, math.inf),
        exponents=(exponent, exponent),
        name=name or f"power:{exponent}",
    )


def indicator_shell(dim: int, lo: float, hi: float, angular=None, name: str | None = None) -> TestFunction:
    return separable(
        dim,
        lambda r: np.where((np.asarray(r, dtype=float) > lo) & (np.asarray(r, dtype=float) <= hi), 1.0, 0.0),
        angular,
        support=(lo, hi),
        exponents=(0.0 if lo == 0.0 else None, 0.0 if math.isinf(hi) else None),
        name=name or f"shell:{lo}:{hi}",
    )


@dataclass(frozen=True)
class LipschitzSymbol:
    """Symbol b with |b(x) - b(y)| <= lip_norm |x - y|^beta (declared)."""

    eval: Callable[[np.ndarray], np.ndarray]
    beta: float
    lip_norm: float
    dim: int
    name: str = "b"
    validate: bool = True

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")
        if self.lip_norm <= 0:
            raise ValueError("lip_norm must be positive")
        if self.validate:
            rng = np.random.default_rng(20240817)
            m = 256
            x = rng.standard_normal((m, self.dim)) * np.exp(rng.uniform(-3, 3, (m, 1)))
            y = x + rng.standard_normal((m, self.dim)) * np.exp(rng.uniform(-6, 1, (m, 1)))
            dx = np.linalg.norm(x - y, axis=1)
            good = dx > 0
            lhs = np.abs(self(x) - self(y))[good]
            rhs = self.lip_norm * dx[good] ** self.beta
            if np.any(lhs > rhs * (1.0 + 1e-9)):
                raise ValueError("sampled difference quotient exceeds declared lip_norm")

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.eval(np.atleast_2d(np.asarray(x, dtype=float))), dtype=float)


def lipschitz_presets(kind: str, beta: float = 1.0, dim: int = 1, direction=None) -> LipschitzSymbol:
    """Presets: ``power`` is b(x) = |x|^beta (lip norm exactly 1, attained along
    rays through 0); ``linear`` is b(x) = <x, e> with beta = 1."""
    if kind == "power":

        def b_pow(x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            return np.linalg.norm(pts, axis=1) ** beta

        return LipschitzSymbol(b_pow, beta, 1.0, dim, name=f"abs_power:{beta}")
    if kind == "linear":
        e = np.zeros(dim)
        if direction is None:
            e[0] = 1.0
        else:
            e = np.asarray(direction, dtype=float)
            e = e / np.linalg.norm(e)

        def b_lin(x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            return pts @ e

        return LipschitzSymbol(b_lin, 1.0, 1.0, dim, name="linear")
    if kind == "constant":
        return LipschitzSymbol(
            lambda x: np.zeros(np.atleast_2d(x).shape[0]), beta, 1.0, dim, name="constant"
        )
    raise ValueError(f"unknown lipschitz preset {kind!r}")
