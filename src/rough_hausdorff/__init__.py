"""Rough Hausdorff operators on weighted Herz, central Morrey and
Morrey-Herz spaces: norm evaluators, sharp-constant integrals, extremal
families and a theorem-verification harness."""

from .functions import (
    AngularProfile,
    LipschitzSymbol,
    RadialKernel,
    TestFunction,
    kernel_presets,
    lipschitz_presets,
    omega_norm,
    separable,
)
from .operators import CommutatorOperator, HausdorffOperator, adjoint_hardy_apply, hardy_apply
from .quadrature import (
    Annulus,
    Ball,
    DivergentIntegralError,
    QuadratureResult,
    Shell,
    ToleranceNotMetError,
    integrate_region,
    integrate_sphere,
)
from .spaces import (
    NormDivergentError,
    NormResult,
    SpaceSpec,
    central_morrey_norm,
    herz_norm,
    lq_norm,
    morrey_herz_norm,
    two_weight_herz_norm,
    two_weight_morrey_herz_norm,
    two_weight_morrey_norm,
)
from .weights import Weight, WeightError, annulus_mass, ball_mass

__version__ = "0.1.0"

__all__ = [
    "AngularProfile",
    "Annulus",
    "Ball",
    "CommutatorOperator",
    "DivergentIntegralError",
    "HausdorffOperator",
    "LipschitzSymbol",
    "NormDivergentError",
    "NormResult",
    "QuadratureResult",
    "RadialKernel",
    "Shell",
    "SpaceSpec",
    "TestFunction",
    "ToleranceNotMetError",
    "Weight",
    "WeightError",
    "adjoint_hardy_apply",
    "annulus_mass",
    "ball_mass",
    "central_morrey_norm",
    "hardy_apply",
    "herz_norm",
    "integrate_region",
    "integrate_sphere",
    "kernel_presets",
    "lipschitz_presets",
    "lq_norm",
    "morrey_herz_norm",
    "omega_norm",
    "separable",
    "two_weight_herz_norm",
    "two_weight_morrey_herz_norm",
    "two_weight_morrey_norm",
]
