"""Closed forms the benchmark checks the package's outputs against.

Everything here is written from the definitions, with math and
scipy.special only; nothing is taken from the package under test.

* Weighted norms of power-weighted shells f(x) = |x|^e 1_{(a, b]}(|x|),
  angular factor 1, under weights |x|^gamma * angular with a known sphere
  mass.  Every shell integral is an elementary power integral; the dyadic
  sums and the suprema are taken exactly as the spaces define them, the
  continuous suprema on the quarter-dyadic radius grid R = 2^(j/4) that
  the evaluators use.
* The Hardy kernel Phi(t) = t^-n on (1, inf): pointwise images of shells,
  powers and the |x|^beta commutator, and the constants C1-C5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import hyp2f1

GRID_PER_OCTAVE = 4
WINDOW = (-24, 24)

# Even angular weight profiles in the package's expression grammar, with
# their exact masses over the sphere: cos(2 theta) integrates to 0 on S^1,
# and cos(2 phi) to -4 pi / 3 on S^2.
TILTED_WEIGHTS = {
    2: ("2 + cos(2*theta)/2", 4.0 * math.pi),
    3: ("2 + cos(2*phi)/2", 22.0 * math.pi / 3.0),
}

# Nonvanishing sphere symbols Omega with their exact integrals over the sphere.
OMEGAS = {
    1: ("2 + s", 4.0),
    2: ("2 + cos(theta)", 4.0 * math.pi),
    3: ("2 + cos(phi)", 8.0 * math.pi),
}


def sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WeightForm:
    """|x|^gamma times an angular profile of total sphere mass ``mass``."""

    gamma: float
    dim: int
    mass: float

    def ball(self, radius: float) -> float:
        return radius ** (self.dim + self.gamma) * self.mass / (self.dim + self.gamma)


def _power_integral(s: float, lo: float, hi: float) -> float:
    """Integral of r^s over (lo, hi)."""
    if hi <= lo:
        return 0.0
    if s == -1.0:
        return math.log(hi / lo)
    return (hi ** (s + 1.0) - lo ** (s + 1.0)) / (s + 1.0)


@dataclass(frozen=True)
class ShellForm:
    """f(x) = |x|^e on a < |x| <= b, zero elsewhere."""

    e: float
    a: float
    b: float

    def moment(self, w: WeightForm, q: float, lo: float, hi: float) -> float:
        """Integral of |f|^q w over lo < |x| < hi."""
        s = self.e * q + w.gamma + w.dim - 1.0
        return w.mass * _power_integral(s, max(lo, self.a), min(hi, self.b))


def shell_norm(kind: str, f: ShellForm, par: dict, w1: WeightForm, w2: WeightForm | None = None,
               window: tuple[int, int] = WINDOW) -> float:
    """The ``kind`` norm of the shell f, with parameters p, q, alpha, lam in ``par``."""
    k_min, k_max = window
    n = w1.dim
    if kind == "Lq":
        q = par["q"]
        return f.moment(w1, q, 0.0, math.inf) ** (1.0 / q)
    if kind in ("CentralMorrey", "TwoWeightMorrey"):
        p, lam = par["p"], par["lam"]
        best = 0.0
        for j in range(GRID_PER_OCTAVE * k_min, GRID_PER_OCTAVE * k_max + 1):
            radius = 2.0 ** (j / GRID_PER_OCTAVE)
            if kind == "CentralMorrey":
                scale = w1.ball(radius) ** -(1.0 + lam * p)
            else:
                scale = w2.ball(radius) ** -lam
            best = max(best, (scale * f.moment(w1, p, 0.0, radius)) ** (1.0 / p))
        return best
    p, q, alpha = par["p"], par["q"], par["alpha"]
    two_weight = kind.startswith("TwoWeight")
    chunk_w = w2 if two_weight else w1
    terms = []
    for k in range(k_min, k_max + 1):
        chunk = f.moment(chunk_w, q, 2.0 ** (k - 1), 2.0 ** k) ** (1.0 / q)
        factor = w1.ball(2.0 ** k) ** (alpha / n) if two_weight else 2.0 ** (k * alpha)
        terms.append((factor * chunk) ** p)
    if kind in ("Herz", "TwoWeightHerz"):
        return sum(terms) ** (1.0 / p)
    if kind in ("MorreyHerz", "TwoWeightMorreyHerz"):
        lam = par["lam"]
        best, running = 0.0, 0.0
        for k, term in zip(range(k_min, k_max + 1), terms):
            running += term
            pre = w1.ball(2.0 ** k) ** (-lam / n) if two_weight else 2.0 ** (-k * lam)
            best = max(best, pre * running ** (1.0 / p))
        return best
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Hardy kernel Phi(t) = t^-n on (1, inf):  T f(x) = sf * |x|^-n int_0^|x| s^(n-1) g(s) ds
# for f = g(|x|) h(x/|x|), where sf is the integral of Omega * h over the sphere.
# ---------------------------------------------------------------------------

def hardy_shell_image(n: int, sf: float, a: float, b: float, r: float) -> float:
    if r <= a:
        return 0.0
    return sf * (min(r, b) ** n - a ** n) / (n * r ** n)


def hardy_power_image(n: int, sf: float, e: float, r: float) -> float:
    return sf * r ** e / (n + e)


def hardy_power_commutator(n: int, sf: float, e: float, beta: float, r: float) -> float:
    """(b T f - T(b f))(x) for b = |x|^beta and f = |x|^e."""
    return sf * r ** (e + beta) * (1.0 / (n + e) - 1.0 / (n + e + beta))


def _inverse_power(d: float) -> float | None:
    """Integral of t^(-1-d) over (1, inf) = 1/d, or None when it diverges."""
    return 1.0 / d if d > 0.0 else None


def _lipschitz_moment(c: float, beta: float) -> float | None:
    """Integral of u^(c-1) (1+u)^beta over (0, 1), or None when it diverges (c <= 0)."""
    return float(hyp2f1(-beta, c, c + 1.0, -1.0)) / c if c > 0.0 else None


def hardy_c1(n: int, gamma: float, lam: float) -> float | None:
    return _inverse_power(n + (n + gamma) * lam)


def adjoint_hardy_c1(n: int, gamma: float, lam: float) -> float | None:
    """Phi = 1 on (0, 1): integral of t^(-1-(n+gamma) lam) over (0, 1)."""
    d = -(n + gamma) * lam
    return 1.0 / d if d > 0.0 else None


def hardy_c2(n: int, gamma: float, q: float) -> float | None:
    """Integral of Phi(1/t) t^(1-2n-gamma/q-n/q) = t^(1-n-gamma/q-n/q) over (0, 1)."""
    c = 2.0 - n - gamma / q - n / q
    return 1.0 / c if c > 0.0 else None


def hardy_c3(n: int, gamma: float, q: float, lam: float, alpha: float) -> float | None:
    return _inverse_power(n - gamma / q - n / q + lam - alpha)


def hardy_c4(n: int, gamma: float, p: float, lambda1: float, beta: float) -> float | None:
    power = -1.0 - (gamma + n) * (lambda1 - 1.0) / p
    return _lipschitz_moment(n - power - 1.0, beta)


def hardy_c5(n: int, gamma: float, q: float, alpha1: float, beta: float, variant: str,
             lam: float | None = None) -> float | None:
    expo = 1.0 - gamma / q - n / q
    if variant == "herz":
        expo -= alpha1 * (1.0 + gamma / n)
    else:
        expo += (lam - alpha1) * (1.0 + gamma / n)
    return _lipschitz_moment(n + expo - 1.0, beta)


def relative_miss(value: float, expected: float, rel: float, floor: float) -> str | None:
    """None when |value - expected| <= rel |expected| + floor, else the cause."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"got {value!r}, expected {expected!r}"
    if abs(value - expected) <= rel * abs(expected) + floor:
        return None
    return f"got {value!r}, expected {expected!r} (rel {abs(value - expected) / max(abs(expected), 1e-300):.3g})"
