"""Quadrature engines: one adaptive interval engine, spheres S^{n-1} (n <= 3)
and radial shells.

``integrate_intervals`` solves many integrals over (a[i], b[i]),
0 <= a[i] < b[i] <= inf, at once; ``integrate_interval`` is its one-row
form, and every 1-D integral of the package goes through it.  Each
integral's bounded block of panels has endpoints at powers of two (this
keeps the jump points of the indicator presets, in particular t = 1, on
panel boundaries), and the blocks of all integrals are refined together,
one tree level per integrand call.  Every panel of every integral runs
under one rule pair, the Gauss-Kronrod pair G10/K21 of QUADPACK: 21 nodes,
valued by K21, with G10 on its Gauss subset as the error estimate.  A level
is held in memory, so one integral may hold at most ``_MAX_PANELS`` live
panels at a level; a refinement that outruns its tolerances raises
ToleranceNotMetError there.
An endpoint at 0 or infinity expands outward in u = ln t, so that
power-law behaviour becomes exponential decay in u, panels widening
geometrically once the integrand is in its power-law regime, until either

  * panel contributions certify a geometric tail (declared endpoint
    exponents give the exact panel ratio for power-law tails; the observed
    per-octave ratio is taken when it is worse), or
  * contributions stop decaying, which is reported as divergence.

Declared endpoint exponents are the first divergence gate: an integrand
declared ~ t^{e0} at 0 and ~ t^{einf} at infinity converges iff e0 > -1 and
einf < -1 (with +-inf allowed for one-sided compact support).

Shell integrals of a point function in R^n (``integrate_shells``, with the
one-shell form ``integrate_region``) are radial integrals of sphere sums;
``_sphere_sums`` evaluates those in chunks of 2^14 // (sphere nodes) radii
(at least one), however many radii a tree level carries.
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


# The G10/K21 pair of QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, 1983) on [-1, 1], by symmetry:
# the positive K21 nodes outside in (the 2nd, 4th, ... are G10's), their K21 weights and the one at 0, G10's weights.
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845, 0.7808177265864169,
       0.6794095682990244, 0.5627571346686047, 0.4333953941292472, 0.2943928627014602, 0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996, 0.0931254545836976,
       0.10938715880229764, 0.12349197626206584, 0.13470921731147334, 0.14277593857706009, 0.14773910490133849,
       0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635, 0.29552422471475287)
_NODES = np.concatenate((np.negative(_XK), [0.0], _XK[::-1]))  # ascending; the G10 nodes are _NODES[1::2]
_K21 = np.concatenate((_WK, _WK[-2::-1]))
_G10 = np.concatenate((_WG, _WG[::-1]))

_REL_FLOOR = 5e-15  # no panel is refined below machine precision x its L1 mass
_REL = 1e-12  # every interval integral is accepted at max(tol, _REL |value|)
_MAX_PANELS = 4000  # live panels of one integral at one tree level; expansion panels per side
# first-level panels per breadth-first block of integrate_intervals: a level's arrays stay near 43 KB.
# With 31 nodes per panel, 512 (127 KB) made one run of the bundled campaign take about 300,000 minor
# page faults as glibc trimmed and regrew its heap, and 256 (64 KB) about 500
_BLOCK_PANELS = 256
_SPHERE_TOP = {2: 11, 3: 7}  # the finest sphere rule level: 32,768 nodes on S^1, 2,097,152 on S^2


def _judge(gx, half, tol, depth: int):
    """The rule pair and acceptance test of the adaptive panel loop.

    ``gx`` holds the integrand at the 21 nodes ``_NODES`` on a stack of
    panels (one row each), ``half`` the panel half-widths.  Returns (K21
    values, their distances from G10, accepted).  The rule sums are einsum
    loops, not BLAS: those sum a row in the same order however many rows the
    stack has, so no integral depends on the others in a call.
    """
    vhi = half * np.einsum("...j,j->...", gx, _K21)
    err = abs(vhi - half * np.einsum("...j,j->...", gx[..., 1::2], _G10))
    accepted = err <= tol
    if not accepted.all():
        sabs = np.einsum("...j,j->...", np.abs(gx), _K21)
        accepted = accepted | (err <= _REL_FLOOR * (half * sabs)) | (depth >= 48) | (half <= 1e-300)
    return vhi, err, accepted


def _panels_breadth_first(g, a: np.ndarray, b: np.ndarray, tol: np.ndarray, owner: np.ndarray,
                          count: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod on many panels at once, one tree level per integrand call.

    Panel j spans [a[j], b[j]] with tolerance tol[j] and belongs to integral
    owner[j] < count; ``g(x, owner)`` evaluates each point x under the
    integral named by its owner.  A panel whose rules G10 and K21
    disagree by more than its tolerance is bisected and each half gets half
    the tolerance, so bisection only triggers at interior non-smooth
    points.  Every panel gets the tree a depth-first recursion would build;
    an integral's accepted panels are summed level by level, in the same
    order whatever other integrals share the call.  Returns per-integral
    (values, error estimates).

    Raises ToleranceNotMetError as soon as one integral holds more than
    ``_MAX_PANELS`` live panels at one level: the whole level is in memory,
    so a refinement that outruns its tolerances must stop there.
    """
    value = np.zeros(count)
    err = np.zeros(count)
    depth = 0
    while a.size:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _NODES
        gx = np.asarray(g(x.ravel(), owner.repeat(len(_NODES))), dtype=float).reshape(x.shape)
        v, e, accepted = _judge(gx, half, tol, depth)
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
        if len(owner) > _MAX_PANELS and np.bincount(owner).max() > _MAX_PANELS:
            raise ToleranceNotMetError(f"more than {_MAX_PANELS} live panels in one integral")
        depth += 1
    return value, err


def _panel_tol(tol: float, j):
    # the tolerance of panel j (a number or an array); the sum over both sides
    # of tol / (7 (1 + j^2)) stays below 0.5 tol
    return np.maximum(tol / (7.0 * (1.0 + j * j)), 1e-17)


def _expand(g, edge: float, direction: int, tol: float, rho_oct: float | None, value: float) -> tuple[float, float, float]:
    """Outward panel expansion from ``edge`` toward 0 (direction -1) or infinity (+1).

    ``g(x, owner)`` is the integrand, called with owner 0; each step is one
    panel in u = ln t, solved by ``_panels_breadth_first``.  ``rho_oct`` is
    the declared per-octave decay ratio of panel values (< 1 for a
    convergent power-law side; None when no exponent is known, in which
    case only observed decay with unit-octave panels is used).  ``value`` is
    the integral accumulated so far; the tail is certified against
    max(tol, _REL |value|) / 8.  Returns (value, error, tail bound).
    """

    def gu(u, owner):
        t = np.exp(u)
        return np.asarray(g(t, owner), dtype=float) * t

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
        v, e = _panels_breadth_first(gu, np.array([math.log(a)]), np.array([math.log(b)]),
                                     np.atleast_1d(_panel_tol(tol, step)), np.zeros(1, dtype=int), 1)
        v, e = float(v[0]), float(e[0])
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


def _rho_per_octave(exponent: float | None, direction: int) -> float | None:
    """Per-octave ratio of the panel values of t^e toward 0 (direction -1)
    or infinity (+1): 0 for a side that vanishes (e = +-inf; the divergence
    gate has rejected the other sign), None when no exponent is declared."""
    if exponent is None:
        return None
    if math.isinf(exponent):
        return 0.0
    return 2.0 ** (direction * (exponent + 1.0))


def _shift(exponent: float | None, c: float) -> float | None:
    """A declared exponent shifted by c; None (undeclared) stays None."""
    return None if exponent is None else exponent + c


def integrate_interval(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    exponent_at_zero: float | None = None,
    exponent_at_infinity: float | None = None,
    align: tuple[float, ...] = (),
) -> QuadratureResult:
    """Integrate g over (a, b), 0 <= a < b <= inf: the one-row form of ``integrate_intervals``."""
    res = integrate_intervals(lambda x, i: g(x), [a], [b], tol, exponent_at_zero, exponent_at_infinity,
                              [align] if len(align) else None)
    return QuadratureResult(float(res.value[0]), float(res.abs_error_estimate[0]), float(res.tail_bound[0]))


def integrate_intervals(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    tol: float,
    exponent_at_zero: float | None = None,
    exponent_at_infinity: float | None = None,
    align: np.ndarray | None = None,
) -> QuadratureResult:
    """Integrate over many intervals (a[i], b[i]), 0 <= a[i] < b[i] <= inf, in one solve.

    ``g(x, i)`` evaluates integral i[k] at point x[k]; integral i is
    accepted at max(tol, 1e-12 |value i|).  Each integral's bounded block
    runs from a[i] to b[i], an end at 0 replaced by min(b[i], 1) 2^-8 and an
    end at inf by max(a[i], 1) 2^8, and is cut into panels at the powers of
    two and at the finite entries of ``align[i]`` (known jump locations: a
    jump hiding in the node-free gap at a panel edge would otherwise defeat
    the two-rule error estimate); panel j gets the tolerance
    ``_panel_tol(tol, j)``.  The blocks of all integrals are refined
    together by ``_panels_breadth_first``, in consecutive batches of whole
    integrals holding at most ``_BLOCK_PANELS`` first-level panels by the
    count dyadic cuts + align columns + 1 (one integral with more forms a
    batch alone), so the working arrays stay bounded however many integrals
    one call carries.
    An integral reaching 0 or inf then expands outward from its block
    (``_expand``).  ``exponent_at_zero`` / ``exponent_at_infinity`` declare
    the integrand ~ t^e of the integrals reaching that end: they certify
    the tail and are the first divergence gate.

    No integral's value depends on the others in the call: each is bit for
    bit its one-row call.  Returns a QuadratureResult of arrays (values,
    error estimates, tail bounds); raises ToleranceNotMetError when any
    integral misses its tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all((0.0 <= a) & (a < b)):
        raise ValueError("intervals need 0 <= a < b <= inf")
    if not tol > 0:
        raise ValueError("tol must be positive")
    to_zero, to_inf = a == 0.0, np.isinf(b)
    if to_zero.any() and exponent_at_zero is not None and exponent_at_zero <= -1.0:
        raise DivergentIntegralError("declared exponent at 0 violates convergence")
    if to_inf.any() and exponent_at_infinity is not None and exponent_at_infinity >= -1.0:
        raise DivergentIntegralError("declared exponent at infinity violates convergence")
    inner = np.where(to_zero, np.minimum(b, 1.0) * 0.5 ** 8, a)
    outer = np.where(to_inf, np.maximum(a, 1.0) * 2.0 ** 8, b)

    count = len(a)
    extra = np.empty((count, 0)) if align is None else np.asarray(align, dtype=float).reshape(count, -1)
    # dyadic cuts 2^k with floor(log2 inner) < k < ceil(log2 outer)
    klo = np.floor(np.log2(inner)) + 1.0
    khi = np.ceil(np.log2(outer))
    ends = np.cumsum(np.maximum(khi - klo, 0.0) + extra.shape[1] + 1.0)  # panel bound, accumulated
    value = np.empty(count)
    err = np.empty(count)
    start = 0
    while start < count:
        done = ends[start - 1] if start else 0.0
        stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK_PANELS, side="right")))
        blk = slice(start, stop)
        lo, hi, panel_tol, owner = _first_panels(inner[blk], outer[blk], klo[blk], khi[blk], extra[blk], tol)
        value[blk], err[blk] = _panels_breadth_first(lambda x, i, first=start: g(x, i + first), lo, hi,
                                                     panel_tol, owner, stop - start)
        start = stop

    tail = np.zeros(count)
    sides = ((inner, -1, exponent_at_zero, to_zero), (outer, +1, exponent_at_infinity, to_inf))
    for i in np.flatnonzero(to_zero | to_inf):
        for edge, direction, exponent, reaches in sides:
            if reaches[i]:
                v, e, t = _expand(lambda x, o, i=i: g(x, o + i), float(edge[i]), direction, tol,
                                  _rho_per_octave(exponent, direction), float(value[i]))
                value[i] += v
                err[i] += e
                tail[i] += t

    missed = np.flatnonzero(err + tail > np.maximum(tol, _REL * np.abs(value)))
    if missed.size:
        i = missed[0]
        raise ToleranceNotMetError(
            f"integral {i}: error estimate {err[i]:.3g} + tail {tail[i]:.3g} exceeds tol {tol:.3g}"
        )
    return QuadratureResult(value, err, tail)


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
    return edge[:-1][inner], edge[1:][inner], _panel_tol(tol, j), row[:-1][inner]


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
    if n not in _SPHERE_TOP:
        raise ValueError("sphere quadrature implemented for n in {1, 2, 3}")
    prev = None
    for level in range(_SPHERE_TOP[n] + 1):
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
    """Integrate f over a radial region of R^n: the one-shell form of ``integrate_shells``."""
    a, b = _radial_bounds(region)
    res = integrate_shells(n, f, [a], [b], tol, radial_exponent_at_zero, radial_exponent_at_infinity, align)
    return QuadratureResult(float(res.value[0]), float(res.abs_error_estimate[0]), float(res.tail_bound[0]))


def integrate_shells(
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    tol: float,
    radial_exponent_at_zero: float | None = None,
    radial_exponent_at_infinity: float | None = None,
    align: tuple[float, ...] = (),
) -> QuadratureResult:
    """Integrate f over each shell a[i] < |x| < b[i] of R^n, 0 <= a[i] < b[i] <= inf,
    via polar factorization.

    ``f`` takes batched points of shape (m, n).  Each shell gets its own
    sphere rule level, chosen on probe radii (``_sphere_levels``); the
    radial integrals then run as one ``integrate_intervals`` solve, each
    point under its shell's rule.  Declared exponents describe the point
    function's behaviour near 0/inf (the r^{n-1} factor is added
    internally), and ``align`` lists radii where it jumps.  Returns a
    QuadratureResult of arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    level = _sphere_levels(n, f, a, b, tol)
    rules = {lv: sphere_nodes(n, lv) for lv in np.unique(level).tolist()}

    def radial(r, i):
        out = np.empty(len(r))
        for lv, (pts, w) in rules.items():
            sel = level[i] == lv
            out[sel] = _sphere_sums(f, r[sel], pts, w)
        return out * r ** (n - 1)

    return integrate_intervals(radial, a, b, tol, _shift(radial_exponent_at_zero, n - 1),
                               _shift(radial_exponent_at_infinity, n - 1),
                               align=np.tile(align, (len(a), 1)) if len(align) else None)


def _sphere_levels(n: int, f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Per shell, the sphere rule level one above the first level whose
    refinement moves the sphere sum of f by at most max(1e-3 tol,
    0.1 tol / max(b - a, 1)) at all five probe radii.  Each level's sums
    are evaluated once: the finer sums of the shells still undecided are
    the coarser sums of the next step.  Raises ToleranceNotMetError when a
    shell is still undecided at ``_SPHERE_TOP``."""
    level = np.zeros(len(a), dtype=int)
    if n == 1:
        return level
    if n not in _SPHERE_TOP:
        raise ValueError("sphere quadrature implemented for n in {1, 2, 3}")
    finite = np.isfinite(b)
    lo = np.where(a > 0, a, np.where(finite, b / 64.0, 2.0 ** -6))
    hi = np.where(finite, b, np.maximum(2.0 * lo, 2.0 ** 6))
    probes = np.geomspace(np.maximum(lo, 1e-12), hi, 5, axis=1)
    gate = np.maximum(tol * 1e-3, tol / np.maximum(np.where(finite, b - a, 1.0), 1.0) * 0.1)
    undecided = np.arange(len(a))
    coarse = _sphere_sums(f, probes.ravel(), *sphere_nodes(n, 0)).reshape(-1, 5)
    for lv in range(_SPHERE_TOP[n]):
        fine = _sphere_sums(f, probes[undecided].ravel(), *sphere_nodes(n, lv + 1)).reshape(-1, 5)
        done = np.abs(coarse - fine).max(axis=1) <= gate[undecided]
        level[undecided[done]] = lv + 1
        undecided, coarse = undecided[~done], fine[~done]
        if not undecided.size:
            return level
    raise ToleranceNotMetError(f"sphere rule undecided at level {_SPHERE_TOP[n]}")


def _sphere_sums(f, radii: np.ndarray, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w[j] f(radii[k] pts[j]) for each radius, evaluated in chunks of
    at most 2^14 // len(w) radii, so the points in flight stay bounded
    however many radii a breadth-first level carries."""
    step = max(1, 2 ** 14 // len(w))
    out = np.empty(len(radii))
    for s in range(0, len(radii), step):
        r = radii[s:s + step]
        vals = np.asarray(f((r[:, None, None] * pts).reshape(-1, pts.shape[1])), dtype=float)
        out[s:s + step] = vals.reshape(len(r), -1) @ w
    return out
