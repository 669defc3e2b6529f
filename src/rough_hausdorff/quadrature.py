"""Quadrature engines: one adaptive interval engine on (a, b), 0 <= a < b <= inf
(with a batched form for many bounded intervals), spheres S^{n-1} (n <= 3)
and radial regions.

Interval integrals run over panels whose endpoints are powers of two (this
keeps the jump points of the indicator presets, in particular t = 1, on
panel boundaries).  An endpoint at 0 or infinity expands outward in
u = ln t, so that power-law behaviour becomes exponential decay in u, panels
widening geometrically once the integrand is in its power-law regime, until
either

  * panel contributions certify a geometric tail (declared endpoint
    exponents give the exact panel ratio for power-law tails; the observed
    per-octave ratio is taken when it is worse), or
  * contributions stop decaying, which is reported as divergence.

Declared endpoint exponents are the first divergence gate: an integrand
declared ~ t^{e0} at 0 and ~ t^{einf} at infinity converges iff e0 > -1 and
einf < -1 (with +-inf allowed for one-sided compact support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

LN2 = math.log(2.0)


class DivergentIntegralError(ArithmeticError):
    """Integral diverges (declared exponents or observed non-decay)."""


class ToleranceNotMetError(ArithmeticError):
    """Panel/node budget exhausted before reaching requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    tail_bound: float


@dataclass(frozen=True)
class Ball:
    radius: float


@dataclass(frozen=True)
class Annulus:
    k: int


@dataclass(frozen=True)
class Shell:
    a: float
    b: float  # math.inf allowed


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = roots_legendre(order)
    return _GL_CACHE[order]


_PAIRS: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _pair(orders: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """(low nodes, low weights, high nodes, high weights) of a Gauss-Legendre rule pair."""
    if orders not in _PAIRS:
        _PAIRS[orders] = (*_gl(orders[0]), *_gl(orders[1]))
    return _PAIRS[orders]


_REL_FLOOR = 5e-15  # no panel is refined below machine precision x its L1 mass
_REL = 1e-12  # every interval integral is accepted at max(tol, _REL |value|)
_MAX_PANELS = 4000  # expansion panels per side before ToleranceNotMetError
_BLOCK_PANELS = 512  # first-level panels per breadth-first block of integrate_intervals


def _judge(glo, ghi, half, tol, depth: int, pair: tuple[np.ndarray, ...]):
    """The rule pair and acceptance test shared by every adaptive panel loop.

    ``glo`` / ``ghi`` hold the integrand at the low- and high-order nodes of
    ``pair`` on one panel (1-D) or on a stack of panels (2-D, one row each),
    ``half`` the panel half-widths.  Returns (value, error estimate, accepted).
    """
    _, wlo, _, whi = pair
    slo, shi, sabs = np.dot(glo, wlo), np.dot(ghi, whi), np.dot(np.abs(ghi), whi)
    if ghi.ndim == 1:  # one panel: Python float arithmetic is cheaper than numpy scalars
        slo, shi, sabs = float(slo), float(shi), float(sabs)
    vhi = half * shi
    err = abs(vhi - half * slo)
    accepted = (err <= tol) | (err <= _REL_FLOOR * (half * sabs)) | (depth >= 48) | (half <= 1e-300)
    return vhi, err, accepted


def _panel(g, a: float, b: float, tol: float, depth: int = 0,
           orders: tuple[int, int] = (10, 21)) -> tuple[float, float]:
    """Adaptive Gauss-Legendre on [a, b]; returns (value, error estimate).

    Bisection only triggers on disagreement between the low- and high-order
    rules, i.e. effectively at interior non-smooth points.
    """
    pair = _pair(orders)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ghi = np.asarray(g(mid + half * pair[2]), dtype=float)
    glo = np.asarray(g(mid + half * pair[0]), dtype=float)
    vhi, err, accepted = _judge(glo, ghi, half, tol, depth, pair)
    if accepted:
        return vhi, err
    lv, le = _panel(g, a, mid, 0.5 * tol, depth + 1, orders)
    rv, re = _panel(g, mid, b, 0.5 * tol, depth + 1, orders)
    return lv + rv, le + re


def _panels_breadth_first(g, a: np.ndarray, b: np.ndarray, tol: np.ndarray, owner: np.ndarray,
                          count: int, orders: tuple[int, int] = (10, 21)) -> tuple[np.ndarray, np.ndarray]:
    """``_panel`` on many panels at once, one tree level per integrand call.

    Panel j spans [a[j], b[j]] with tolerance tol[j] and belongs to integral
    owner[j] < count; ``g(x, owner)`` evaluates each point x under the
    integral named by its owner.  Bisection and acceptance follow ``_panel``
    under the same rule pair ``orders`` exactly, so every integral gets the
    same panel tree; only the order in which accepted panels are summed
    differs.  Returns per-integral (values, error estimates).
    """
    pair = _pair(orders)
    nodes = np.concatenate((pair[0], pair[2]))
    nlo = len(pair[0])
    value = np.zeros(count)
    err = np.zeros(count)
    depth = 0
    while a.size:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * nodes
        gx = np.asarray(g(x.ravel(), np.repeat(owner, len(nodes))), dtype=float).reshape(x.shape)
        v, e, accepted = _judge(gx[:, :nlo], gx[:, nlo:], half, tol, depth, pair)
        if accepted.all():
            return value + np.bincount(owner, v, count), err + np.bincount(owner, e, count)
        value += np.bincount(owner[accepted], v[accepted], count)
        err += np.bincount(owner[accepted], e[accepted], count)
        split = ~accepted
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        tol = 0.5 * tol[split]
        tol = np.concatenate((tol, tol))
        owner = owner[split]
        owner = np.concatenate((owner, owner))
        depth += 1
    return value, err


def _panel_tol(tol: float, j: int) -> float:
    # sum over both sides of tol / (7 (1 + j^2)) stays below 0.5 tol
    return max(tol / (7.0 * (1.0 + j * j)), 1e-17)


def _log_panel(g, a: float, b: float, tol: float, orders=(10, 21)) -> tuple[float, float]:
    """Panel integral of g over [a, b] in u = ln t coordinates."""

    def gu(u):
        t = np.exp(np.asarray(u, dtype=float))
        return np.asarray(g(t), dtype=float) * t

    return _panel(gu, math.log(a), math.log(b), tol, orders=orders)


def _expand(g, edge: float, direction: int, tol: float, rho_oct: float | None,
            orders: tuple[int, int], value: float) -> tuple[float, float, float]:
    """Outward panel expansion from ``edge`` toward 0 (direction -1) or infinity (+1).

    ``rho_oct`` is the declared per-octave decay ratio of panel values
    (< 1 for a convergent power-law side; None when no exponent is known,
    in which case only observed decay with unit-octave panels is used).
    ``value`` is the integral accumulated so far; the tail is certified
    against max(tol, _REL |value|) / 8.  Returns (value, error, tail bound).
    """
    threshold = max(tol, _REL * abs(value)) / 8.0
    width = 1.0
    total = 0.0
    err = 0.0
    tail = math.inf
    zeros = 0
    history: list[tuple[float, float]] = []  # (|value|, width)
    hits = 0
    for step in range(_MAX_PANELS):
        if direction > 0:
            a, b = edge, edge * 2.0 ** width
        else:
            a, b = edge * 2.0 ** (-width), edge
        v, e = _log_panel(g, a, b, _panel_tol(tol, step), orders)
        total += v
        err += e
        if v == 0.0:
            zeros += 1
            if zeros >= 6:
                tail = 0.0
                break
        else:
            zeros = 0
            history.append((abs(v), width))
            if width == 1.0 and len(history) >= 3 and step >= 8:
                a1, a2, a3 = history[-1][0], history[-2][0], history[-3][0]
                if a1 > threshold and a1 >= 0.999 * a2 >= 0.999 * 0.999 * a3 > 0:
                    raise DivergentIntegralError(
                        f"panel contributions fail to decay near {b if direction > 0 else a:.3g}"
                    )
            rho = _effective_rho(history, rho_oct)
            if rho is not None and rho < 1.0:
                rho_w = rho ** width
                tail = abs(v) * rho_w / (1.0 - rho_w)
                if tail <= threshold:
                    hits += 1
                    if hits >= 2 or tail == 0.0 or width > 1.0:
                        break
                else:
                    hits = 0
        edge = b if direction > 0 else a
        if rho_oct is not None and step >= 3 and abs(v) <= 1e-2 * max(abs(value), abs(total)):
            width = min(width * 2.0, 8.0)
    else:
        raise ToleranceNotMetError("panel budget exhausted during expansion")
    if not math.isfinite(tail):
        raise ToleranceNotMetError("could not certify endpoint tail")
    return total, err, tail


def _effective_rho(history, rho_oct: float | None) -> float | None:
    obs = None
    if len(history) >= 2:
        (v1, w1), (v0, w0) = history[-1], history[-2]
        if v0 > 0 and v1 > 0:
            obs = (v1 / v0) ** (2.0 / (w0 + w1))
    if rho_oct is None:
        return min(obs, 0.999999) if obs is not None else None
    if obs is None:
        return rho_oct
    return min(max(rho_oct, obs), 0.999999)


def _rho_toward_inf(exponent_at_infinity: float | None) -> float | None:
    if exponent_at_infinity is None:
        return None
    if exponent_at_infinity == -math.inf:
        return 0.0
    return 2.0 ** (exponent_at_infinity + 1.0)


def _rho_toward_zero(exponent_at_zero: float | None) -> float | None:
    if exponent_at_zero is None:
        return None
    if exponent_at_zero == math.inf:
        return 0.0
    return 2.0 ** (-(exponent_at_zero + 1.0))


def integrate_interval(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    exponent_at_zero: float | None = None,
    exponent_at_infinity: float | None = None,
    orders: tuple[int, int] = (10, 21),
    align: tuple[float, ...] = (),
) -> QuadratureResult:
    """Integrate g over (a, b), 0 <= a < b <= inf; tolerance is max(tol, 1e-12 |value|).

    Finite positive endpoints bound a block of panels cut at powers of two
    and at ``align`` (known jump locations: a jump hiding in the node-free
    gap at a panel edge would otherwise defeat the two-rule error
    estimate).  An endpoint at 0 or inf expands outward from that block,
    the declared exponents giving the tail certification and the first
    divergence gate.
    """
    if not (0.0 <= a < b):
        raise ValueError(f"bad interval ({a}, {b})")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == 0.0 and exponent_at_zero is not None and exponent_at_zero <= -1.0:
        raise DivergentIntegralError("declared exponent at 0 violates convergence")
    if math.isinf(b) and exponent_at_infinity is not None and exponent_at_infinity >= -1.0:
        raise DivergentIntegralError("declared exponent at infinity violates convergence")

    inner = a if a > 0.0 else (min(b, 1.0) if math.isfinite(b) else 1.0) * 0.5 ** 8
    outer = b if math.isfinite(b) else max(a, 1.0) * 2.0 ** 8
    cuts = sorted({inner, outer}
                  | {2.0 ** k for k in range(math.floor(math.log2(inner)) + 1,
                                             math.ceil(math.log2(outer)))
                     if inner < 2.0 ** k < outer}
                  | {c for c in align if inner < c < outer})
    value = err = tail = 0.0
    for i in range(len(cuts) - 1):
        v, e = _panel(g, cuts[i], cuts[i + 1], _panel_tol(tol, i), orders=orders)
        value += v
        err += e

    sides = []
    if a == 0.0:
        sides.append((inner, -1, _rho_toward_zero(exponent_at_zero)))
    if math.isinf(b):
        sides.append((outer, +1, _rho_toward_inf(exponent_at_infinity)))
    for edge, direction, rho in sides:
        v, e, side_tail = _expand(g, edge, direction, tol, rho, orders, value)
        value += v
        err += e
        tail += side_tail

    if err + tail > max(tol, _REL * abs(value)):
        raise ToleranceNotMetError(
            f"error estimate {err:.3g} + tail {tail:.3g} exceeds tol {tol:.3g}"
        )
    return QuadratureResult(value, err, tail)


def integrate_intervals(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: float,
    align: np.ndarray | None = None,
    orders: tuple[int, int] = (10, 21),
) -> np.ndarray:
    """Integrate over many bounded intervals (a[i], b[i]), 0 < a[i] < b[i] < inf, in one solve.

    ``g(x, i)`` evaluates integral i[k] at point x[k].  ``align[i]`` lists
    integral i's extra cut points (non-finite entries are ignored).  Each
    integral is cut and given panel tolerances exactly as
    ``integrate_interval(g_i, a[i], b[i], tol, orders=orders, align=align[i])``
    does, and the panels are refined together by ``_panels_breadth_first``
    under the rule pair ``orders``, so the values match that call to rounding.

    The integrals are solved in consecutive blocks of whole integrals, each
    holding at most ``_BLOCK_PANELS`` first-level panels by the count
    dyadic cuts + align columns + 1 per integral (one integral with more
    forms a block alone), so the working arrays stay bounded however many
    integrals one call carries.  A block never splits an integral, and an
    integral's sum runs in the same order in any block, so every value is
    bit for bit the one a call holding its block alone gives.  Raises
    ToleranceNotMetError when any integral misses its tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count = len(a)
    if count == 0:
        return np.zeros(0)
    if not np.all((0.0 < a) & (a < b) & (b < math.inf)):
        raise ValueError("integrate_intervals needs 0 < a < b < inf")
    extra = np.empty((count, 0)) if align is None else np.asarray(align, dtype=float).reshape(count, -1)
    # dyadic cuts 2^k with floor(log2 a) < k < ceil(log2 b), as in integrate_interval
    klo = np.floor(np.log2(a)) + 1.0
    khi = np.ceil(np.log2(b))
    ends = np.cumsum(np.maximum(khi - klo, 0.0) + extra.shape[1] + 1.0)  # panel bound, accumulated
    value = np.empty(count)
    start = 0
    while start < count:
        done = ends[start - 1] if start else 0.0
        stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK_PANELS, side="right")))
        blk = slice(start, stop)
        lo, hi, panel_tol, owner = _first_panels(a[blk], b[blk], klo[blk], khi[blk], extra[blk], tol)
        v, e = _panels_breadth_first(lambda x, i, first=start: g(x, i + first), lo, hi, panel_tol, owner,
                                     stop - start, orders)
        if np.any(e > np.maximum(tol, _REL * np.abs(v))):
            raise ToleranceNotMetError("interval tolerance not met")
        value[blk] = v
        start = stop
    return value


def _first_panels(a, b, klo, khi, extra, tol: float):
    """The panels integrals (a[i], b[i]) start from: cut at the powers of two
    2^k, klo[i] <= k < khi[i], and at the entries of extra[i] inside, with the
    ``_panel_tol`` of each panel's index.  Returns (lower edges, upper edges,
    tolerances, owning integral) in integral order."""
    count = len(a)
    ks = np.arange(klo.min(), max(khi.max(), klo.min()))
    dyadic = np.where((ks >= klo[:, None]) & (ks < khi[:, None]), np.ldexp(1.0, ks.astype(int)), math.inf)
    cuts = np.concatenate((dyadic, extra), axis=1)
    cuts = np.where((cuts > a[:, None]) & (cuts < b[:, None]), cuts, math.inf)
    cuts = np.sort(np.concatenate((a[:, None], cuts, b[:, None]), axis=1), axis=1)
    keep = np.isfinite(cuts)
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    row = np.nonzero(keep)[0]
    edge = cuts[keep]
    first = np.searchsorted(row, np.arange(count))
    inner = row[1:] == row[:-1]  # consecutive cuts of one integral bound a panel
    j = (np.arange(len(edge) - 1) - first[row[:-1]])[inner].astype(float)
    panel_tol = np.maximum(tol / (7.0 * (1.0 + j * j)), 1e-17)  # _panel_tol, vectorised
    return edge[:-1][inner], edge[1:][inner], panel_tol, row[:-1][inner]


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

def sphere_nodes(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights on S^{n-1} at refinement ``level``.

    n=1: the two points {-1, +1} with unit weights (counting measure).
    n=2: midpoint/trapezoid rule on the circle (spectral accuracy).
    n=3: Gauss-Legendre in cos(polar) x trapezoid in azimuth.
    """
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = 16 << level
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(m, 2.0 * math.pi / m)
        return pts, w
    if n == 3:
        mp = 8 << level
        mt = 16 << level
        u, wu = _gl(mp)  # u = cos(polar)
        theta = 2.0 * math.pi * (np.arange(mt) + 0.5) / mt
        su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        x = np.outer(su, np.cos(theta)).ravel()
        y = np.outer(su, np.sin(theta)).ravel()
        z = np.outer(u, np.ones(mt)).ravel()
        w = np.outer(wu, np.full(mt, 2.0 * math.pi / mt)).ravel()
        return np.stack([x, y, z], axis=1), w
    raise ValueError("sphere quadrature implemented for n in {1, 2, 3}")


def integrate_sphere(n: int, g: Callable[[np.ndarray], np.ndarray], tol: float) -> QuadratureResult:
    """Integrate g over S^{n-1} against surface measure (counting measure for n=1)."""
    if n == 1:
        pts, w = sphere_nodes(1, 0)
        vals = np.asarray(g(pts), dtype=float)
        return QuadratureResult(float(np.dot(w, vals)), 0.0, 0.0)
    if n not in (2, 3):
        raise ValueError("sphere quadrature implemented for n in {1, 2, 3}")
    prev = None
    for level in range(0, 12 if n == 2 else 8):
        pts, w = sphere_nodes(n, level)
        val = float(np.dot(w, np.asarray(g(pts), dtype=float)))
        if prev is not None:
            err = abs(val - prev)
            if err <= tol:
                return QuadratureResult(val, err, 0.0)
        prev = val
    raise ToleranceNotMetError("sphere quadrature did not reach tolerance")


def sphere_surface(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# region integrals via polar factorization
# ---------------------------------------------------------------------------

def _radial_bounds(region) -> tuple[float, float]:
    if isinstance(region, Ball):
        if region.radius <= 0:
            raise ValueError("ball radius must be positive")
        return 0.0, region.radius
    if isinstance(region, Annulus):
        return 2.0 ** (region.k - 1), 2.0 ** region.k
    if isinstance(region, Shell):
        if not (0.0 <= region.a < region.b):
            raise ValueError("bad shell bounds")
        return region.a, region.b
    raise TypeError(f"unknown region {region!r}")


def integrate_region(
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    region,
    tol: float,
    radial_exponent_at_zero: float | None = None,
    radial_exponent_at_infinity: float | None = None,
    align: tuple[float, ...] = (),
) -> QuadratureResult:
    """Integrate f over a radial region of R^n via polar factorization.

    ``f`` takes batched points of shape (m, n).  The sphere rule level is
    chosen adaptively on probe radii, then the radial integral runs with
    that fixed rule; declared exponents describe the point function's
    behaviour near 0/inf (the r^{n-1} factor is added internally), and
    ``align`` lists radii where it jumps, as in ``integrate_interval``.
    """
    a, b = _radial_bounds(region)

    level = 0
    if n > 1:
        lo = a if a > 0 else (b / 64.0 if math.isfinite(b) else 2.0 ** -6)
        hi = b if math.isfinite(b) else max(2.0 * lo, 2.0 ** 6)
        probes = np.geomspace(max(lo, 1e-12), hi, 5)
        for level in range(0, 10):
            pts, w = sphere_nodes(n, level)
            pts2, w2 = sphere_nodes(n, level + 1)
            worst = 0.0
            for r in probes:
                v1 = float(np.dot(w, np.asarray(f(r * pts), dtype=float)))
                v2 = float(np.dot(w2, np.asarray(f(r * pts2), dtype=float)))
                worst = max(worst, abs(v1 - v2))
            if worst <= tol * 1e-3 or worst <= tol / max(b - a if math.isfinite(b) else 1.0, 1.0) * 0.1:
                level = level + 1
                break

    pts, w = sphere_nodes(n, level)

    def radial(r_batch):
        r = np.asarray(r_batch, dtype=float)
        coords = r[:, None, None] * pts[None, :, :]
        flat = coords.reshape(-1, n)
        vals = np.asarray(f(flat), dtype=float).reshape(len(r), -1)
        return (vals @ w) * r ** (n - 1)

    e0 = None
    if radial_exponent_at_zero is not None:
        e0 = radial_exponent_at_zero + (n - 1)
    einf = None
    if radial_exponent_at_infinity is not None:
        einf = radial_exponent_at_infinity + (n - 1)
    return integrate_interval(radial, a, b, tol, exponent_at_zero=e0, exponent_at_infinity=einf,
                              align=align)
