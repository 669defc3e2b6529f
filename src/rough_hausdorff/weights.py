"""Absolutely homogeneous weights |x|^gamma * angular(x/|x|) and their masses.

The factored representation makes homogeneity structural: evaluation is
literally |x|^gamma times the angular profile, so w(t x) = |t|^gamma w(x)
holds to machine precision by construction.  Ball and annulus masses have
the closed forms

    w(B(0,R)) = R^(n+gamma) * w(S^{n-1}) / (n + gamma)          (gamma > -n)
    w(C_k)    = (1 - 2^(-gamma-n)) * w(B(0, 2^k))

which every mass operation below uses; direct quadrature cross-checks live
in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import integrate_sphere, sphere_nodes


class WeightError(ValueError):
    """Invalid weight construction or operation (e.g. gamma <= -n masses)."""


def _ones_angular(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.ones(pts.shape[0])


@dataclass(frozen=True)
class Weight:
    """Weight of degree ``gamma`` with angular profile on S^{dim-1}.

    ``angular`` takes batched unit vectors of shape (m, dim) and returns
    positive values; ``angular_lower_bound`` is a declared witness that
    angular >= c, checked on the quadrature node set at construction.
    """

    gamma: float
    angular: Callable[[np.ndarray], np.ndarray]
    dim: int
    angular_lower_bound: float | None = None
    sphere_mass: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise WeightError("dim must be >= 1")
        pts, _ = sphere_nodes(self.dim, 3 if self.dim > 1 else 0)
        vals = np.asarray(self.angular(pts), dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise WeightError("angular profile must be finite and positive")
        # |t|-homogeneity for negative t forces antipodal symmetry
        anti = np.asarray(self.angular(-pts), dtype=float)
        if np.max(np.abs(anti - vals)) > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
            raise WeightError(
                "angular profile must be even (antipodal-symmetric): "
                "|t|-degree homogeneity fails for t < 0 otherwise"
            )
        c = self.angular_lower_bound
        if c is not None:
            if c <= 0:
                raise WeightError("angular_lower_bound must be positive")
            if np.any(vals < c - 1e-12):
                raise WeightError(
                    f"angular profile drops below declared bound {c} "
                    f"(min sampled {vals.min():.6g})"
                )
        mass = integrate_sphere(self.dim, self.angular, 1e-11).value
        if not (0.0 < mass < math.inf):
            raise WeightError("angular mass must be finite and positive")
        object.__setattr__(self, "sphere_mass", mass)

    def __call__(self, x) -> np.ndarray:
        """Evaluate the weight at batched points (m, dim); x = 0 is rejected."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0.0):
            raise WeightError("weight undefined at the origin")
        return r ** self.gamma * np.asarray(self.angular(pts / r[:, None]), dtype=float)

    @staticmethod
    def power(gamma: float, dim: int) -> "Weight":
        """The power weight |x|^gamma (angular part identically 1)."""
        return Weight(gamma, _ones_angular, dim, angular_lower_bound=1.0)


def ball_mass(w: Weight, radius: float) -> float:
    """w(B(0, R)) by the closed form; requires gamma > -n."""
    if w.gamma <= -w.dim:
        raise WeightError(f"gamma={w.gamma} <= -n={-w.dim}: ball mass diverges")
    if radius <= 0:
        raise WeightError("radius must be positive")
    return radius ** (w.dim + w.gamma) * w.sphere_mass / (w.dim + w.gamma)


def annulus_mass(w: Weight, k: int) -> float:
    """w(C_k) for the dyadic annulus C_k = B(0, 2^k) \\ B(0, 2^(k-1))."""
    return ball_mass(w, 2.0 ** k) - ball_mass(w, 2.0 ** (k - 1))
