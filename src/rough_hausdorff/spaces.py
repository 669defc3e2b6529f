"""Numerical evaluators for the weighted norms: L^q, central Morrey, Herz,
Morrey-Herz, and the two-weight Morrey / Herz / Morrey-Herz variants.

Conventions shared by every evaluator:

  * Z-indexed dyadic sums are truncated to a window [k_min, k_max]; tail
    bounds come from geometric fits of the last two shell terms on each
    side, and a norm is reported divergent (rather than silently truncated)
    when those terms fail to decay.  L^q over R^n is one of these sums:
    the Herz norm at alpha = 0, p = q.  Morrey-Herz suprema continue past
    the right edge by a recurrence on the damped partial sums (see
    ``_morrey_herz_engine``).
  * Continuous suprema over radii R > 0 run on the quarter-dyadic grid
    R = 2^(j/4); a supremand still climbing at the window edge is likewise
    reported divergent.
  * Every norm reduces to integrals of |f|^q w over shells a < |x| < b
    (dyadic annuli, or the segments between grid radii), computed by one
    helper, ``_shell_integrals``.  It clips each shell to f's support,
    skips the empty ones and solves the rest in one engine call, the shell
    from 0 and the shell out to infinity included.  A separable function
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
from dataclasses import dataclass
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
        return {
            "value": self.value,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "tail_bound": self.tail_bound,
            "attained_at": self.attained_at,
        }


def _sphere_factor(f: TestFunction, q: float, w: Weight, tol: float) -> float:
    """integral over S^{n-1} of |angular part|^q * (weight angular part)."""

    def g(points):
        return np.abs(f.angular_values(points)) ** q * np.asarray(w.angular(points), dtype=float)

    return integrate_sphere(f.dim, g, tol).value


def _shell_integrals(f: TestFunction, q: float, w: Weight, edges, tol: float,
                     orders: tuple[int, int] = (10, 21)) -> np.ndarray:
    """integral of |f|^q w over each shell edges[i] < |x| < edges[i+1].

    Each shell is clipped to f.support and skipped when that leaves it
    empty; the others are one solve.  A separable f is a radial integral
    per shell, all in one ``integrate_intervals`` call under the rule pair
    ``orders``, times one sphere factor; any other f is one
    ``integrate_shells`` call.  Both declare |f|^q w ~ r^{q e + gamma} at 0
    and infinity, e being f's radial exponent there.
    """
    align = f.cut_radii
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
        radial_integrals = integrate_intervals(radial, lo, hi, tol, e0, einf, orders, cuts).value
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
        return float(_shell_integrals(f, q, w, _radial_bounds(region), NORM_TOL)[0]) ** (1.0 / q)
    if region != "all":
        raise ValueError(f"unknown region {region!r}")
    return herz_norm(f, 0.0, q, q, w, window).value


def _side_tail(terms: np.ndarray, side: str) -> tuple[float, bool, str]:
    """Geometric tail bound for nonnegative terms beyond one window edge.

    Returns (tail, diverged, reason).  The fit uses the last two nonzero
    terms; exact for geometric (pure power shell) decay.
    """
    seq = terms if side == "right" else terms[::-1]
    total = float(seq.sum())
    nz = np.nonzero(seq)[0]
    if len(nz) == 0:
        return 0.0, False, ""
    last = nz[-1]
    if last < len(seq) - 1:
        # terms vanish before the edge: compactly supported side
        return 0.0, False, ""
    if len(nz) < 2 or nz[-2] != last - 1:
        return float(seq[last]), False, "single edge term"
    a, b = float(seq[last - 1]), float(seq[last])
    if b < 1e-13 * max(total, 1.0):
        return b, False, ""
    rho = b / a if a > 0 else 1.0
    if rho >= 0.9999:
        return math.inf, True, f"{side} shell terms fail to decay (ratio {rho:.4f})"
    return b * rho / (1.0 - rho), False, ""


def _sum_with_tails(terms: np.ndarray) -> tuple[float, float, bool, str]:
    total = float(terms.sum())
    tail_r, div_r, why_r = _side_tail(terms, "right")
    tail_l, div_l, why_l = _side_tail(terms, "left")
    diverged = div_r or div_l
    why = "; ".join(x for x in (why_r, why_l) if x)
    return total, tail_l + tail_r, diverged, why


def _power_sum_norm(total: float, tail: float, p: float) -> tuple[float, float]:
    """(sum)^{1/p} with the tail re-expressed at the norm level."""
    value = total ** (1.0 / p) if total > 0 else 0.0
    bumped = (total + tail) ** (1.0 / p) if math.isfinite(tail) else math.inf
    return value, max(0.0, bumped - value)


# ---------------------------------------------------------------------------
# Herz-type sums
# ---------------------------------------------------------------------------

def _log2_ball_power(w: Weight, s: float, n: int) -> Callable[[int], float]:
    """k -> log2 of w(B(0, 2^k))^{s/n}."""
    return lambda k: (s / n) * math.log2(ball_mass(w, 2.0 ** k))


def _terms(
    f: TestFunction,
    q: float,
    w_chunk: Weight,
    log2_weight: Callable[[int], float],
    p: float,
    window: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """The window's k and its terms tau_k = 2^{p log2_weight(k)} ||f chi_k||_{q, w_chunk}^p."""
    ks = np.arange(window[0], window[1] + 1)
    edges = 2.0 ** np.arange(window[0] - 1, window[1] + 1)
    chunks = _shell_integrals(f, q, w_chunk, edges, NORM_TOL) ** (1.0 / q)
    return ks, np.array([2.0 ** (p * log2_weight(int(k))) for k in ks]) * chunks ** p


def _herz_engine(
    f: TestFunction,
    q: float,
    w_chunk: Weight,
    log2_weight: Callable[[int], float],
    p: float,
    window: tuple[int, int],
    strict: bool,
) -> NormResult:
    """(sum_k tau_k)^{1/p} over the terms of ``_terms``."""
    _, tau = _terms(f, q, w_chunk, log2_weight, p, window)
    total, tail, diverged, why = _sum_with_tails(tau)
    value, norm_tail = _power_sum_norm(total, tail, p)
    result = NormResult(value, window[0], window[1], norm_tail, None, diverged)
    if diverged and strict:
        raise NormDivergentError(f"Herz-type sum diverges: {why}", result)
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
    return _herz_engine(f, q, w, lambda k: alpha * k, p, window, strict)


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
    return _herz_engine(f, q, w2, _log2_ball_power(w1, alpha, f.dim), p, window, strict)


def _morrey_herz_engine(
    f: TestFunction,
    q: float,
    w_chunk: Weight,
    log2_weight: Callable[[int], float],
    log2_prefactor: Callable[[int], float],
    p: float,
    lam_slope: float,
    window: tuple[int, int],
    strict: bool,
) -> NormResult:
    """sup over k0 of 2^{log2_prefactor(k0)} (sum_{k<=k0} tau_k)^{1/p}.

    lam_slope is the decrease of log2_prefactor per unit k0 (>= 0).  Terms
    may legitimately grow with k (ratio up to 2^{p lam_slope} is exactly
    compensated by the prefactor; the scale-invariant extremals sit at that
    marginal rate), so the beyond-window supremum is controlled by a
    geometric continuation fitted to the last two shell terms: with rho the
    term ratio, the supremand changes by (rho 2^{-p lam_slope})^{1/p} per
    step beyond the edge, divergent when that exceeds 1.
    """
    k_min, k_max = window
    ks, tau = _terms(f, q, w_chunk, log2_weight, p, window)
    prefix = np.cumsum(tau)
    prefac = np.array([2.0 ** log2_prefactor(int(k)) for k in ks])
    sup_vals = prefac * prefix ** (1.0 / p)
    idx = int(np.argmax(sup_vals))
    value = float(sup_vals[idx])
    attained = int(ks[idx])
    diverged = False
    reasons: list[str] = []
    tail_bound = 0.0

    # right continuation: tau_{k_max + j} modeled as tau[-1] rho^j.  The
    # supremand at k_max + j is 2^{log2_prefactor(k_max)} d_j^{1/p} with
    # d_j = u d_{j-1} + tau[-1] (u rho)^j, u = 2^{-p lam_slope}, d_0 = prefix[-1].
    # For u rho <= 1 the increments obey D_{j+1} = u D_j + tau[-1] (u rho)^j (u rho - 1),
    # so d_j falls for good once it falls, and d_j <= d_0 + j tau[-1] cannot overflow.
    if tau[-1] > 1e-13 * max(prefix[-1], 1e-300):
        rho = tau[-1] / tau[-2] if len(tau) > 1 and tau[-2] > 0 else 1.0
        u = 2.0 ** (-p * lam_slope)
        step = (u * rho) ** (1.0 / p)
        if step > 2.0 ** 1e-9:
            diverged = True
            reasons.append(f"supremand climbs beyond the right edge (ratio {step:.6g} per step)")
        else:
            d = prefix[-1]
            for j in range(1, 4000):
                d_next = u * d + tau[-1] * (u * rho) ** j
                if d_next <= d:
                    break
                d = d_next
            best_beyond = 2.0 ** log2_prefactor(k_max) * d ** (1.0 / p)
            if best_beyond > value:
                tail_bound += best_beyond - value
                value = best_beyond
                attained = None

    # left continuation: prefixes below k_min modeled by tau[0] * rho_L^j
    if len(tau) > 1 and tau[0] > 1e-13 * max(prefix[-1], 1e-300) and tau[1] > 0:
        rho_left = tau[0] / tau[1]
        # supremand at k_min - j ~ 2^{lam_slope j} * (tau[0] rho_L^j / (1 - rho_L))^{1/p}
        step = 2.0 ** lam_slope * rho_left ** (1.0 / p)
        if rho_left < 1.0:
            base = 2.0 ** log2_prefactor(k_min) * (tau[0] / (1.0 - rho_left)) ** (1.0 / p)
            if step > 1.0 + 1e-9:
                diverged = True
                reasons.append("supremand climbs beyond the left edge")
            else:
                cand = base * step
                if cand > value:
                    tail_bound += cand - value
                    value = cand
                    attained = None
        elif lam_slope > 0.0:
            diverged = True
            reasons.append("left shell terms fail to decay under a positive damping exponent")

    result = NormResult(value, k_min, k_max, tail_bound, attained, diverged)
    if diverged and strict:
        raise NormDivergentError("Morrey-Herz-type supremum diverges: " + "; ".join(reasons), result)
    return result


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
    return _morrey_herz_engine(f, q, w, lambda k: alpha * k, lambda k0: -lam * k0, p, lam, window, strict)


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
    lam_slope = lam * (n + w1.gamma) / n
    return _morrey_herz_engine(f, q, w2, _log2_ball_power(w1, alpha, n), _log2_ball_power(w1, -lam, n),
                               p, lam_slope, window, strict)


# ---------------------------------------------------------------------------
# Morrey-type suprema over continuous radii
# ---------------------------------------------------------------------------

def _morrey_sup(
    f: TestFunction,
    p: float,
    w_int: Weight,
    w_mass: Weight,
    expo: float,
    window: tuple[int, int],
    strict: bool,
    label: str,
) -> NormResult:
    """sup over the grid radii R = 2^(j/4) in the window of
    (w_mass(B_R)^{-expo} * integral_{B_R} |f|^p w_int)^{1/p}.

    A supremand that peaks at a window edge and still climbs over the three
    grid radii there makes the norm divergent.
    """
    k_min, k_max = window
    js = np.arange(GRID_PER_OCTAVE * k_min, GRID_PER_OCTAVE * k_max + 1)
    radii = 2.0 ** (js / GRID_PER_OCTAVE)
    # integral of |f|^p w_int over B(0, R) for each grid radius R
    cum = np.cumsum(_shell_integrals(f, p, w_int, np.concatenate(([0.0], radii)), NORM_TOL, orders=(6, 13)))
    with np.errstate(divide="ignore"):
        lognorm = np.array([-expo * math.log(ball_mass(w_mass, float(R))) for R in radii])
        vals = np.where(cum > 0.0, np.exp((np.log(np.where(cum > 0, cum, 1.0)) + lognorm) / p), 0.0)
    idx = int(np.argmax(vals))
    value = float(vals[idx])
    attained = int(js[idx])
    diverged = False
    reasons = []
    for side, sl in (("right", slice(-3, None)), ("left", slice(None, 3))):
        edge = vals[sl] if side == "right" else vals[sl][::-1]
        at_edge = idx == (len(vals) - 1 if side == "right" else 0)
        if at_edge and len(edge) == 3 and edge[-1] >= edge[-2] >= edge[-3] and edge[-1] > (1.0 + 1e-6) * edge[-3] > 0:
            diverged = True
            reasons.append(f"supremand still climbing at the {side} edge")
    result = NormResult(value, k_min, k_max, 0.0, attained, diverged)
    if diverged and strict:
        raise NormDivergentError(f"{label} supremum diverges: " + "; ".join(reasons), result)
    return result


def central_morrey_norm(
    f: TestFunction,
    p: float,
    lam: float,
    w: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_R ( w(B_R)^{-(1+lam p)} integral_{B_R} |f|^p w )^{1/p}."""
    _check("CentralMorrey", p, lam)
    return _morrey_sup(f, p, w, w, 1.0 + lam * p, window, strict, "central Morrey")


def two_weight_morrey_norm(
    f: TestFunction,
    p: float,
    lam: float,
    w1: Weight,
    w2: Weight,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = True,
) -> NormResult:
    """sup_R ( w2(B_R)^{-lam} integral_{B_R} |f|^p w1 )^{1/p}."""
    _check("TwoWeightMorrey", p, lam)
    return _morrey_sup(f, p, w1, w2, lam, window, strict, "two-weight Morrey")


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
