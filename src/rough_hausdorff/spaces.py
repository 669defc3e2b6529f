"""Numerical evaluators for the weighted norms: L^q, central Morrey, Herz,
Morrey-Herz, and the two-weight Morrey / Herz / Morrey-Herz variants.

Conventions shared by every evaluator:

  * All seven kinds run on one engine, ``_dyadic_norm``: the supremum over
    k0 of a prefactor times the p-th root of the partial sum of the shell
    terms up to k0, on a window [k_min, k_max] (k_min <= k_max).  Shell
    weights and prefactors are powers of the radius, passed as affine log2s.
    The Herz-type kinds take no prefactor, so their supremum is the whole
    sum; L^q is the Herz norm at alpha = 0, p = q.  The Morrey kinds are the
    same supremum at alpha = 0, q = p over the quarter-dyadic grid of radii
    R = 2^(j/4), with a ball-mass power as prefactor.  Below the window the
    grid reaches down to a support bounded away from 0.  Past each other
    edge f's support crosses, the terms continue at the ratio of the last
    two (``_edge_ratio``): the mass below the window joins every partial
    sum, however small, the supremum beyond it is in closed form
    (``_right_sup``), and a continuation that fails to settle is divergent.
  * Every norm reduces to integrals of |f|^q w over shells a < |x| < b
    (dyadic annuli, or the segments between grid radii), computed by one
    helper, ``_shell_integrals``.  It clips each shell to f's support,
    skips the empty ones and solves the rest in one engine call; only the
    regions of ``lq_norm`` reach 0 or infinity.  A separable function
    factors exactly into a radial integral per shell times one sphere
    integral per norm: its shells are one breadth-first
    ``integrate_intervals`` solve (for an operator image, one profile batch
    per panel-tree level).  Any other function is one ``integrate_shells``
    solve.

Every kind is one ``_Kind`` entry of ``_KINDS``: the parameters it takes
(in its norm function's argument order), its range rules and its norm
function.  ``SpaceSpec`` checks the rules when it is built and the seven
public norm functions check the same rules when called, so each rule is
written once.  q < 1 is rejected: the shell norms would only be
quasi-norms and every boundedness statement exercised here assumes q >= 1.
Every shell integral runs at the one tolerance ``NORM_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .functions import TestFunction
from .quadrature import (
    Annulus,
    Ball,
    Shell,
    _radial_bounds,
    integrate_intervals,
    integrate_shells,
    integrate_sphere,
)
from .weights import Weight, ball_mass

DEFAULT_WINDOW = (-24, 24)
GRID_PER_OCTAVE = 4
NORM_TOL = 1e-11


class NormDivergentError(ArithmeticError):
    """A norm evaluated as divergent; carries the partial NormResult."""

    def __init__(self, message: str, partial: "NormResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class NormResult:
    value: float
    k_min: int
    k_max: int
    tail_bound: float
    attained_at: Optional[int] = None
    diverged: bool = False

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "diverged"}


def _sphere_factor(f: TestFunction, q: float, w: Weight, tol: float) -> float:
    """integral over S^{n-1} of |angular part|^q * (weight angular part)."""

    def g(points):
        return np.abs(f.angular_values(points)) ** q * np.asarray(w.angular(points), dtype=float)

    return integrate_sphere(f.dim, g, tol).value


def _shell_integrals(f: TestFunction, q: float, w: Weight, edges) -> np.ndarray:
    """integral of |f|^q w over each shell edges[i] < |x| < edges[i+1], at ``NORM_TOL``.

    Each shell is clipped to f.support and skipped when that leaves it
    empty; the others are one solve.  A separable f is a radial integral
    per shell, all in one ``integrate_intervals`` call, times one sphere
    factor; any other f is one ``integrate_shells`` call.  Both declare
    |f|^q w ~ r^{q e + gamma} at 0 and infinity, e being f's radial
    exponent there.
    """
    align, tol = f.cut_radii, NORM_TOL
    edges = np.asarray(edges, dtype=float)
    slo, shi = f.support
    lo, hi = np.maximum(edges[:-1], slo), np.minimum(edges[1:], shi)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    out = np.zeros(len(live))
    expo = w.gamma + f.dim - 1 if f.separable else w.gamma  # integrate_shells adds the r^{n-1} itself

    def declared(e, end: str):  # q e + expo, +-inf when f vanishes near that end
        if e is None:
            raise ValueError(f"test function {f.name!r} needs a radial exponent at {end} for integrals reaching it")
        return q * e + expo

    e0 = declared(f.radial_exponent_at_zero, "0") if (lo == 0.0).any() else None
    einf = declared(f.radial_exponent_at_infinity, "infinity") if np.isinf(hi).any() else None
    if f.separable:
        def radial(r, i):
            return np.abs(f.radial_values(r)) ** q * r ** expo

        cuts = np.tile(align, (len(lo), 1)) if align else None
        radial_integrals = integrate_intervals(radial, lo, hi, tol, e0, einf, cuts).value
        out[live] = radial_integrals * _sphere_factor(f, q, w, tol)
    else:
        out[live] = integrate_shells(f.dim, lambda x: np.abs(f(x)) ** q * w(x), lo, hi, tol, e0, einf, align).value
    return out


def lq_norm(
    f: TestFunction,
    q: float,
    w: Weight,
    region="all",
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> float:
    """Weighted L^q norm over a region ('all', Ball, Annulus or Shell); over
    all of R^n it is the Herz norm at alpha = 0, p = q."""
    _check("Lq", q)
    if isinstance(region, (Ball, Annulus, Shell)):
        return float(_shell_integrals(f, q, w, _radial_bounds(region))[0]) ** (1.0 / q)
    if region != "all":
        raise ValueError(f"unknown region {region!r}")
    return herz_norm(f, 0.0, q, q, w, window).value


# ---------------------------------------------------------------------------
# the dyadic engine: Herz-type sums and Morrey-type suprema
# ---------------------------------------------------------------------------

def _log2_ball_power(w: Weight, s: float) -> tuple[float, float]:
    """(a, b) with log2 of w(B(0, 2^k))^s = a k + b."""
    return s * (w.dim + w.gamma), s * math.log2(ball_mass(w, 1.0))


def _edge_ratio(terms: np.ndarray) -> float:
    """The per-step ratio rho of the terms beyond the last of ``terms`` (pass
    them reversed for the left edge): 0 when the edge term is 0, inf for a
    lone edge term (it shows no rate, so the norm is not certified),
    otherwise the ratio of the last two terms (exact for the geometric shell
    terms of a pure power)."""
    if terms[-1] == 0.0:
        return 0.0
    if len(terms) < 2 or terms[-2] == 0.0:
        return math.inf
    return float(terms[-1] / terms[-2])


def _right_sup(d: float, tau: float, rho: float, u: float) -> float:
    """sup over j >= 0 of u^j (d + tau (rho + ... + rho^j)), in closed form.

    With r = tau rho / (1 - rho) the j-th value is (d + r) u^j - r (u rho)^j:
    two geometric sequences, with at most one stationary point between them.
    It is evaluated as u^j (d + tau rho expm1(j L) / expm1(L)), L = log rho,
    which stays exact as rho -> 1, where the sum is j tau.  The divergent
    cases (u rho > 1 beyond the caller's band, or u = 1 with rho near 1) are
    the caller's; u rho >= 1 here is taken as exactly 1.
    """
    if rho == 0.0:
        return d
    if u == 1.0:
        return d + tau * rho / (1.0 - rho)
    lu, L = math.log(u), math.log(rho)
    if lu + L >= 0.0:  # u rho = 1: the values run monotonically from d to -r
        return max(d, tau * rho / (rho - 1.0))

    def at(j: int) -> float:
        return u ** j * (d + tau * (j if L == 0.0 else rho * math.expm1(j * L) / math.expm1(L)))

    if L == 0.0:
        x = -d / tau - 1.0 / lu
    else:  # no real root: the values fall from j = 0 on
        arg = -d * math.expm1(L) / (tau * rho)
        x = (math.log1p(arg) - math.log1p(L / lu)) / L if arg > -1.0 else 0.0
    if not x > 0.0:
        return d
    return max(d, at(math.floor(x)), at(math.ceil(x)))


def _dyadic_norm(
    f: TestFunction,
    q: float,
    w_chunk: Weight,
    weight: tuple[float, float],
    p: float,
    window: tuple[int, int],
    strict: bool,
    prefactor: Optional[tuple[float, float]] = None,
    per_octave: int = 1,
) -> NormResult:
    """sup over k0 of 2^{P(k0)} (sum_{k<=k0} tau_k)^{1/p}, over the window's
    terms tau_k = 2^{p W(k)} ||f chi_k||_{q, w_chunk}^p.

    The shells are 2^{k - 1/per_octave} < |x| <= 2^k for the grid points k =
    j / per_octave of the window, on every grid under the engine's one rule
    pair G10/K21.  W and P are powers of the radius, given as their log2
    (a, b) = a k + b: ``weight`` and ``prefactor`` (a <= 0, so the prefactor
    falls by s = -a / per_octave per step).

    The grid reaches down to the shell holding a positive support start
    below the window (at most 64 octaves); beyond each grid edge f's support
    crosses, the terms continue geometrically at that side's ``_edge_ratio``
    (inf also for a left edge term of 0 under a power law f declares at 0).
    The mass below the window, the terms below it plus tau_first rho_L /
    (1 - rho_L), joins every partial sum; beyond the right edge the
    supremand is the prefactor at the window's last point times
    ``_right_sup``^{1/p}, with u = 2^{-p s}.  The norm diverges when the
    supremand grows outward by more than 2^{1e-9} per step (the
    scale-invariant extremals sit exactly at 1), or, undamped, when the
    terms decay by less than 0.9999 per step.

    Without a prefactor (the Herz-type kinds) the supremum is the whole sum,
    and the value is the window's sum; the Morrey-type kinds report the
    continued supremum, attained at a grid index j or beyond the window
    (None).  tail_bound is the continued supremum less the window's own; a
    divergent norm keeps the window's value, with tail_bound = inf.
    """
    k_min, k_max = window
    if k_min > k_max:
        raise ValueError(f"window [{k_min}, {k_max}] needs k_min <= k_max")
    j_lo, j_hi = per_octave * k_min, per_octave * k_max
    slo = f.support[0]
    # the grid reaches down to the shell holding a positive support start below the window
    j0 = min(j_lo, max(math.ceil(per_octave * math.log2(slo)), j_lo - 64 * per_octave)) if slo > 0.0 else j_lo
    ks = np.arange(j0, j_hi + 1) / per_octave
    edges = 2.0 ** (np.arange(j0 - 1, j_hi + 1) / per_octave)
    integrals = _shell_integrals(f, q, w_chunk, edges)
    tau = 2.0 ** (p * (weight[0] * ks + weight[1])) * integrals ** (p / q)
    i0 = j_lo - j0  # the window's terms are tau[i0:]
    root = 1.0 / p
    # no terms lie beyond an edge that f's support does not cross
    rho_l = _edge_ratio(tau[::-1]) if slo < edges[0] else 0.0
    if slo == 0.0 and tau[0] == 0.0 and f.radial_exponent_at_zero not in (None, math.inf):
        rho_l = math.inf  # f declares a power law at 0, yet its edge term shows none
    rho_r = _edge_ratio(tau) if f.support[1] > edges[-1] else 0.0
    herz = prefactor is None
    a, b = prefactor or (0.0, 0.0)
    s = -a / per_octave
    u = 2.0 ** (-p * s)
    reasons = []
    if rho_l >= 0.9999 or 2.0 ** s * rho_l ** root > 2.0 ** 1e-9:
        reasons.append(f"left shell terms fail to decay (ratio {rho_l:.6g} per step, slope {s:g})")
    if (u * rho_r) ** root > 2.0 ** 1e-9 or (u == 1.0 and rho_r >= 0.9999):
        reasons.append(f"right shell terms fail to decay (ratio {rho_r:.6g} per step, slope {s:g})")
    partial = np.cumsum(tau[i0:])
    prefac = 2.0 ** (a * ks[i0:] + b)
    own = float(tau[i0:].sum()) ** root if herz else float(np.max(prefac * partial ** root))
    value, attained, continued = own, None, math.inf
    if not reasons:
        left = tau[:i0].sum() + tau[0] * rho_l / (1.0 - rho_l)
        vals = prefac * (left + partial) ** root
        idx = int(np.argmax(vals))
        beyond = prefac[-1] * _right_sup(left + partial[-1], tau[-1], rho_r, u) ** root
        continued = max(float(vals[idx]), beyond)
        if not herz:
            value, attained = continued, (int(j_lo + idx) if vals[idx] >= beyond else None)
    result = NormResult(value, k_min, k_max, max(continued - own, 0.0), attained, bool(reasons))
    if reasons and strict:
        label = "Herz-type sum" if herz else "Morrey-type supremum"
        raise NormDivergentError(f"{label} diverges: " + "; ".join(reasons), result)
    return result


def herz_norm(
    f: TestFunction,
    alpha: float,
    p: float,
    q: float,
    w: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """Weighted Herz norm (sum_k 2^{k alpha p} ||f chi_k||_{q,w}^p)^{1/p}."""
    _check("Herz", alpha, p, q)
    return _dyadic_norm(f, q, w, (alpha, 0.0), p, window, strict)


def two_weight_herz_norm(
    f: TestFunction,
    alpha: float,
    p: float,
    q: float,
    w1: Weight,
    w2: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """(sum_k w1(B_k)^{alpha p / n} ||f chi_k||_{q, w2}^p)^{1/p}."""
    _check("TwoWeightHerz", alpha, p, q)
    return _dyadic_norm(f, q, w2, _log2_ball_power(w1, alpha / f.dim), p, window, strict)


def morrey_herz_norm(
    f: TestFunction,
    alpha: float,
    lam: float,
    p: float,
    q: float,
    w: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_{k0} 2^{-k0 lam} (sum_{k<=k0} 2^{k alpha p} ||f chi_k||_{q,w}^p)^{1/p}."""
    _check("MorreyHerz", alpha, lam, p, q)
    return _dyadic_norm(f, q, w, (alpha, 0.0), p, window, strict, (-lam, 0.0))


def two_weight_morrey_herz_norm(
    f: TestFunction,
    alpha: float,
    lam: float,
    p: float,
    q: float,
    w1: Weight,
    w2: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_{k0} w1(B_{k0})^{-lam/n} (sum_{k<=k0} w1(B_k)^{alpha p/n} ||f chi_k||_{q,w2}^p)^{1/p}."""
    _check("TwoWeightMorreyHerz", alpha, lam, p, q)
    n = f.dim
    return _dyadic_norm(f, q, w2, _log2_ball_power(w1, alpha / n), p, window, strict,
                        _log2_ball_power(w1, -lam / n))


def central_morrey_norm(
    f: TestFunction,
    p: float,
    lam: float,
    w: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_R ( w(B_R)^{-(1+lam p)} integral_{B_R} |f|^p w )^{1/p}, over the
    grid radii R = 2^(j/4) of the window."""
    _check("CentralMorrey", p, lam)
    return _dyadic_norm(f, p, w, (0.0, 0.0), p, window, strict,
                        _log2_ball_power(w, -(1.0 + lam * p) / p), GRID_PER_OCTAVE)


def two_weight_morrey_norm(
    f: TestFunction,
    p: float,
    lam: float,
    w1: Weight,
    w2: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_R ( w2(B_R)^{-lam} integral_{B_R} |f|^p w1 )^{1/p}, over the grid
    radii R = 2^(j/4) of the window."""
    _check("TwoWeightMorrey", p, lam)
    return _dyadic_norm(f, p, w1, (0.0, 0.0), p, window, strict, _log2_ball_power(w2, -lam / p), GRID_PER_OCTAVE)


# ---------------------------------------------------------------------------
# the norm kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """A norm kind: the parameters it takes, in its norm function's argument
    order; its range rules, each a (text, test) pair whose test takes the
    parameter values by name; and its evaluator, called as
    norm(f, *parameter values, window=..., strict=...)."""

    params: tuple[str, ...]
    rules: tuple[tuple[str, Callable[..., bool]], ...]
    norm: Callable[..., NormResult]


_Q_AT_LEAST_1 = ("q >= 1", lambda q, **_: q >= 1)
_P_AT_LEAST_1 = ("p >= 1", lambda p, **_: p >= 1)
_P_POSITIVE = ("p > 0", lambda p, **_: p > 0)
_LAM_NONNEGATIVE = ("lambda >= 0", lambda lam, **_: lam >= 0)
_HERZ_RULES = (_P_POSITIVE, _Q_AT_LEAST_1)
_MORREY_HERZ_RULES = (*_HERZ_RULES, _LAM_NONNEGATIVE)

# Each evaluator looks its norm function up by name when called, so a
# wrapper installed on the module attribute (a profiler, a tracer) sees it.
_KINDS = {
    "Lq": _Kind(
        ("q", "w1"), (_Q_AT_LEAST_1,),
        lambda f, q, w, window, strict: herz_norm(f, 0.0, q, q, w, window, strict)),
    "CentralMorrey": _Kind(
        ("p", "lam", "w1"), (_P_AT_LEAST_1, ("1 + lambda p > 0", lambda p, lam, **_: 1 + lam * p > 0)),
        lambda *args, **kw: central_morrey_norm(*args, **kw)),
    "Herz": _Kind(
        ("alpha", "p", "q", "w1"), _HERZ_RULES,
        lambda *args, **kw: herz_norm(*args, **kw)),
    "MorreyHerz": _Kind(
        ("alpha", "lam", "p", "q", "w1"), _MORREY_HERZ_RULES,
        lambda *args, **kw: morrey_herz_norm(*args, **kw)),
    "TwoWeightMorrey": _Kind(
        ("p", "lam", "w1", "w2"), (_P_AT_LEAST_1, ("lambda > 0", lambda lam, **_: lam > 0)),
        lambda *args, **kw: two_weight_morrey_norm(*args, **kw)),
    "TwoWeightHerz": _Kind(
        ("alpha", "p", "q", "w1", "w2"), _HERZ_RULES,
        lambda *args, **kw: two_weight_herz_norm(*args, **kw)),
    "TwoWeightMorreyHerz": _Kind(
        ("alpha", "lam", "p", "q", "w1", "w2"), _MORREY_HERZ_RULES,
        lambda *args, **kw: two_weight_morrey_herz_norm(*args, **kw)),
}


def _check(kind: str, *values) -> None:
    """Raise ValueError unless ``values``, the leading parameters of ``kind``
    in order, meet every range rule of that kind."""
    named = dict(zip(_KINDS[kind].params, values))
    for text, test in _KINDS[kind].rules:
        if not test(**named):
            raise ValueError(f"{kind} requires {text}")


@dataclass(frozen=True)
class SpaceSpec:
    """A norm selection: kind plus exactly the parameters that kind uses."""

    kind: str
    p: Optional[float] = None
    q: Optional[float] = None
    alpha: Optional[float] = None
    lam: Optional[float] = None
    w1: Optional[Weight] = None
    w2: Optional[Weight] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        used = _KINDS[self.kind].params
        for name in ("p", "q", "alpha", "lam", "w1", "w2"):
            val = getattr(self, name)
            if name in used and val is None:
                raise ValueError(f"{self.kind} requires {name}")
            if name not in used and val is not None:
                raise ValueError(f"{self.kind} does not take {name}")
        _check(self.kind, *self._values())

    def _values(self) -> list:
        return [getattr(self, name) for name in _KINDS[self.kind].params]

    def evaluate(
        self,
        f: TestFunction,
        window: tuple[int, int] = DEFAULT_WINDOW,
        strict: bool = True,
    ) -> NormResult:
        return _KINDS[self.kind].norm(f, *self._values(), window=window, strict=strict)
