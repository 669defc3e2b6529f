"""Theorem-verification campaigns: upper-bound ratio sweeps, lower-bound
extremal ratios, the annulus-mass identities, the Lipschitz pointwise
inequality, negative controls, and report generation.

Every per-theorem fact is one frozen ``TheoremSpec`` entry of
``THEOREM_TABLE``; adding a theorem means adding one entry.

Upper-bound checks compare corpus ratios ||T f||_target / ||f||_source
against K * C * ||Omega|| * (||b||), where C is the governing constant and
K is the tracked slack: the explicit product of factors the proof chain
pays.  For a weight w with angular part bounded below by c,

    Morrey:           K = (w(S^{n-1}) / c)^{1/p}
    Herz:             K = (w(S^{n-1}) / c)^{1/q} * (1 + 2^{|alpha|})
    Morrey-Herz:      K = (w(S^{n-1}) / c)^{1/q} * (1 + 2^{|lambda-alpha|})
    commutator cases additionally pay ((n+gamma)/w1(S^{n-1}))^{beta/(n+gamma)}
    for the |x|^beta -> ball-size substitution, and the shift factor uses
    the transported index (1 + 2^{|s|}).

For power weights (c = 1) the Morrey K is attained exactly by the
scale-invariant extremal, so K * C1 * ||Omega||_{p'} is the sharp two-sided
constant the reports quote.

The Herz lower bound follows the truncated-scale route: the reported ratio
at stage m is the exact lower-bound functional

    L(m) = 2^{-(m-1) 2^{-m}} w(S^{n-1})^{1/q} C2(m) * factor,

provably below ||T f_m|| / ||f_m||, nondecreasing in m, and converging to
the untruncated constant; a pointwise chain inequality is spot-checked by
quadrature at sample radii.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import bounds as bmod
from . import exprs
from .extremals import conjugate, herz_extremal, matched_angular, morrey_extremal, morrey_herz_extremal
from .functions import (
    AngularProfile,
    LipschitzSymbol,
    RadialKernel,
    TestFunction,
    indicator_shell,
    kernel_presets,
    lipschitz_presets,
    omega_norm,
    separable,
)
from .operators import CommutatorOperator, HausdorffOperator, lipschitz_gap
from .spaces import SpaceSpec
from .weights import Weight, annulus_mass, ball_mass

PASS, FAIL, SKIPPED, DIVERGENT, ERROR = "PASS", "FAIL", "SKIPPED", "DIVERGENT-AS-PREDICTED", "ERROR"

CASE_WINDOW = (-16, 20)  # dyadic window of a case when neither it nor the config sets one


class ConfigError(ValueError):
    """Bad harness configuration (exit code 2)."""


@dataclass
class ReportRow:
    case_id: str
    quantity: str
    value: float | str
    bound: float | str
    margin: float | str
    verdict: str
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TheoremCase:
    id: str
    theorem: str
    params: dict
    kernel: Optional[RadialKernel] = None
    omega: Optional[AngularProfile] = None
    w1: Optional[Weight] = None
    w2: Optional[Weight] = None
    symbol: Optional[LipschitzSymbol] = None
    corpus: list = field(default_factory=list)
    extremal_ms: list = field(default_factory=list)
    window: tuple[int, int] = CASE_WINDOW
    expect: str = "pass"


@dataclass
class VerificationReport:
    rows: list
    metadata: dict
    plots: dict = field(default_factory=dict)  # name -> list[(x, y)]

    def to_canonical_json(self) -> str:
        """Deterministic report body; volatile fields (runtime) excluded."""
        meta = {k: v for k, v in self.metadata.items() if k != "runtime_seconds"}
        body = {"metadata": meta, "rows": [r.to_json() for r in self.rows]}
        return json.dumps(body, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["case_id", "quantity", "value", "bound", "margin", "verdict"])
        for r in self.rows:
            writer.writerow([
                r.case_id, r.quantity, _fmt(r.value), _fmt(r.bound), _fmt(r.margin), r.verdict,
            ])
        return out.getvalue()

    @property
    def failed(self) -> bool:
        return any(r.verdict in (FAIL, ERROR) for r in self.rows)

    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# default corpus
# ---------------------------------------------------------------------------

def default_corpus(n: int, omega: AngularProfile, rprime: float, size: int = 20) -> list[TestFunction]:
    """Deterministic separable test functions: indicator shells, compact power
    bumps and truncated exponentials crossed with angular profiles
    {1, 2 + first coordinate, |Omega|-matched}."""

    def bump(a: float, lo: float, hi: float, name: str) -> Callable:
        return separable(
            n,
            lambda r, _a=a: np.asarray(r, dtype=float) ** _a,
            support=(lo, hi),
            name=name,
        )

    radials = [
        indicator_shell(n, 1.0, 2.0, name="shell_1_2"),
        indicator_shell(n, 0.25, 4.0, name="shell_.25_4"),
        indicator_shell(n, 2.0 ** -6, 2.0 ** 6, name="shell_wide"),
        bump(0.5, 0.5, 2.0, "bump_r^.5"),
        bump(-0.5, 0.25, 1.0, "bump_r^-.5"),
        bump(1.0, 0.125, 8.0, "bump_r^1"),
        separable(n, lambda r: np.exp(-np.asarray(r, dtype=float)),
                  support=(0.0, 6.0), exponents=(0.0, None), name="texp"),
    ]

    def ang_tilt(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return 2.0 + pts[:, 0]

    angulars = [(None, "ang1"), (ang_tilt, "ang2+x1"), (matched_angular(omega, rprime), "angmatch")]
    corpus = []
    for rad in radials:
        for ang, aname in angulars:
            corpus.append(
                separable(
                    n,
                    rad.radial,
                    ang,
                    support=rad.support,
                    exponents=(rad.radial_exponent_at_zero, rad.radial_exponent_at_infinity),
                    name=f"{rad.name}__{aname}",
                )
            )
    return corpus[:size]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_upper(case: TheoremCase, tol_rel: float = 1e-3) -> list[ReportRow]:
    """Max corpus ratio against the tracked bound K * C * ||Omega|| (* ||b||)."""
    constant = _constant_for(case)
    rows = [ReportRow(case.id, constant.id, "divergent" if constant.divergent else constant.value,
                      "", "", DIVERGENT if constant.divergent else PASS,
                      "governing constant")]
    if constant.divergent:
        rows[-1].detail = "upper check inapplicable (constant divergent)"
        return rows

    if not case.corpus:
        return rows

    onorm = omega_norm(case.omega, _omega_conjugate(case.theorem, case.params))
    K = tracked_slack(case.theorem, case.params, case.w1, case.w2)
    bound = K * constant.value * onorm
    if case.symbol is not None:
        bound *= case.symbol.lip_norm

    src, tgt = _spec(case.theorem).norms(case.params, case.w1, case.w2)
    best = 0.0
    best_name = ""
    skipped = 0
    op = HausdorffOperator(case.kernel, case.omega, case.w1.dim)
    if case.symbol is not None:
        op = CommutatorOperator(op, case.symbol)
    for f in case.corpus:
        nf = src.evaluate(f, case.window).value
        if not (nf > 0.0 and math.isfinite(nf)):
            skipped += 1
            continue
        nt = tgt.evaluate(op.image(f), case.window).value
        ratio = nt / nf
        if ratio > best:
            best, best_name = ratio, f.name
    if skipped == len(case.corpus):
        rows.append(ReportRow(case.id, "upper_max_ratio", "", bound, "", SKIPPED,
                              f"no corpus member has a positive finite source norm on window {list(case.window)}"))
        return rows
    verdict = PASS if best <= bound * (1.0 + tol_rel) else FAIL
    rows.append(ReportRow(
        case.id, "upper_max_ratio", best, bound, bound * (1.0 + tol_rel) - best, verdict,
        f"argmax {best_name}; tracked slack K={K:.6g}; {skipped} degenerate corpus members skipped",
    ))
    return rows


def _lower_setup(case: TheoremCase) -> tuple[float, float, float]:
    """(r', the lower-bound factor, ||Omega||_{r'}) for the extremal routes."""
    rprime = _omega_conjugate(case.theorem, case.params)
    return rprime, bmod.lower_bound_factor(case.omega, rprime, case.w1), omega_norm(case.omega, rprime)


def _pure_power_lower(case: TheoremCase, tol_rel: float, extremal: Callable,
                      sharp: bool = False) -> list[ReportRow]:
    """Lower bound from a scale-invariant extremal f, whose image is the pure power
    amp |x|^e: amp, measured over two decades of radii, is checked against the signed
    constant, and the ratio is |amp| ||(|x|^e)|| / ||f||.  ``extremal(case)`` gives
    (family, ||f||, signed constant, ||(|x|^e)||); ``sharp`` adds the row checking
    that the ratio attains K * C * ||Omega||."""
    constant = _constant_for(case)
    if constant.divergent:
        return [ReportRow(case.id, "lower", "divergent", "", "", DIVERGENT,
                          f"{constant.id} divergent: boundedness fails")]
    rprime, factor, onorm = _lower_setup(case)
    fam, fam_norm, signed, power_norm = extremal(case)
    amp_pred = signed.value * onorm ** rprime
    op = HausdorffOperator(case.kernel, case.omega, case.w1.dim)
    amps = np.asarray([op.radial_apply(fam.function, r, tol=1e-10) / r ** fam.closed_form_image_exponent
                       for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 25.0)])
    amp = float(np.mean(amps))
    spread = float(np.max(np.abs(amps - amp)) / max(abs(amp), 1e-300))
    rows = [ReportRow(case.id, "pushforward_amplitude", amp, amp_pred,
                      abs(amp - amp_pred) / abs(amp_pred), PASS if spread < 1e-6 and
                      abs(amp - amp_pred) <= tol_rel * abs(amp_pred) else FAIL,
                      f"power-law fit spread {spread:.2e}")]
    ratio = abs(amp) * power_norm / fam_norm
    lower = constant.value * factor
    rows.append(ReportRow(case.id, "extremal_ratio", ratio, lower, ratio - lower,
                          PASS if ratio >= lower * (1.0 - tol_rel) else FAIL,
                          f"operator-norm lower bound {constant.id} * factor"))
    if sharp:
        bound = tracked_slack(case.theorem, case.params, case.w1) * constant.value * onorm
        rows.append(ReportRow(case.id, "sharp_constant", ratio, bound,
                              abs(ratio - bound) / bound,
                              PASS if abs(ratio - bound) <= tol_rel * bound else FAIL,
                              "two-sided constant K * C1 * ||Omega||_{p'} attained"))
    return rows


def _morrey_power(case: TheoremCase):
    p, n, gamma, wS = case.params, case.w1.dim, case.w1.gamma, case.w1.sphere_mass
    fam = morrey_extremal(case.omega, case.w1, p["lambda"], p["p"])
    power_norm = ((n + gamma) / wS) ** p["lambda"] * (1.0 + p["lambda"] * p["p"]) ** (-1.0 / p["p"])
    return fam, fam.closed_form_norm, bmod.c1_signed(case.kernel, n, gamma, p["lambda"]), power_norm


def _morrey_herz_power(case: TheoremCase):
    p, n, gamma, wS = case.params, case.w1.dim, case.w1.gamma, case.w1.sphere_mass
    q, s = p["q"], p["lambda"] - p["alpha"]
    fam = morrey_herz_extremal(case.omega, case.w1, q, p["alpha"], p["lambda"])
    power_chunk = (abs((1.0 - 2.0 ** (-q * s)) / (q * s)) if s != 0.0 else math.log(2.0)) ** (1.0 / q) * wS ** (1.0 / q)
    power_norm = power_chunk * (1.0 - 2.0 ** (-p["lambda"] * p["p"])) ** (-1.0 / p["p"])
    signed = bmod.c3_signed(case.kernel, n, gamma, q, p["lambda"], p["alpha"])
    return fam, fam.herz_norm_closed_form(p["p"]), signed, power_norm


def _herz_lower(case: TheoremCase, tol_rel: float) -> list[ReportRow]:
    """The truncated-scale lower-bound functional L(m) and its pointwise chain."""
    p, n, gamma, wS = case.params, case.w1.dim, case.w1.gamma, case.w1.sphere_mass
    q = p["q"]
    rprime, factor, onorm = _lower_setup(case)
    rows: list[ReportRow] = []
    ms = case.extremal_ms or [6, 8, 10]
    ratios = []
    for m in ms:
        c2m = bmod.herz_lower_integral(case.kernel, n, gamma, q, m)
        eps = 2.0 ** (-m)
        lm = 2.0 ** (-(m - 1) * eps) * wS ** (1.0 / q) * c2m * factor
        ratios.append(lm)
        thr = 0.95 * c2m * factor
        rows.append(ReportRow(case.id, f"lower_ratio_m{m}", lm, thr, lm - thr,
                              PASS if lm >= thr else FAIL,
                              "truncated-scale lower-bound functional"))
    mono = all(ratios[i] <= ratios[i + 1] + 1e-12 for i in range(len(ratios) - 1))
    rows.append(ReportRow(case.id, "lower_monotone_in_m", float(mono), 1.0,
                          0.0 if mono else -1.0, PASS if mono else FAIL,
                          f"ratios {['%.6g' % r for r in ratios]}"))
    # pointwise chain inequality at sample radii, for the last stage m (and its c2m):
    # T f_m (x) >= C2(m) ||O||^{q'} |x|^{-A}
    fam = herz_extremal(case.omega, case.w1, q, p["alpha"], m)
    op = HausdorffOperator(case.kernel, case.omega, n)
    A = -fam.closed_form_image_exponent
    worst = math.inf
    for r in (2.0 ** m * 0.75, 2.0 ** (m + 1) * 0.75):
        hv = abs(op.radial_apply(fam.function, r, tol=1e-10))
        lowerpt = c2m * onorm ** rprime * r ** (-A)
        worst = min(worst, hv / lowerpt)
    rows.append(ReportRow(case.id, "pointwise_chain", worst, 1.0, worst - 1.0,
                          PASS if worst >= 1.0 - 1e-8 else FAIL,
                          f"min over sampled radii of Tf_m(x) / (C2(m) ||O||^q' |x|^-A), m={m}"))
    return rows


def check_lower(case: TheoremCase, tol_rel: float = 1e-3) -> list[ReportRow]:
    """Lower-bound (necessity) checks via the extremal families."""
    if case.kernel.sign == "mixed":
        return [ReportRow(case.id, "lower", "", "", "", SKIPPED, "kernel lacks constant sign")]
    lower = _spec(case.theorem).lower
    if lower is None:
        return [ReportRow(case.id, "lower", "", "", "", SKIPPED,
                          "no necessity direction for commutator theorems")]
    return lower(case, tol_rel)


def check_lemma_2_1(gammas=(-0.9, -0.5, 0.0, 1.0, 2.5), dims=(1, 2, 3),
                    ks=range(-5, 6), tol: float = 1e-8) -> list[ReportRow]:
    rows = []
    for n in dims:
        for gamma in gammas:
            w = Weight.power(gamma, n)
            expected = 1.0 - 2.0 ** (-gamma - n)
            worst = 0.0
            for k in ks:
                ratio = annulus_mass(w, k) / ball_mass(w, 2.0 ** k)
                worst = max(worst, abs(ratio - expected))
            rows.append(ReportRow(
                "lemma_2_1", f"annulus_ball_ratio_n{n}_gamma{gamma:g}", worst, tol,
                tol - worst, PASS if worst < tol else FAIL,
                f"max over k in [{min(ks)}, {max(ks)}] of |w(C_k)/w(B_k) - (1 - 2^-gamma-n)|",
            ))
    return rows


def check_ineq_3_8(b: LipschitzSymbol, sample_count: int = 10000, seed: int = 7,
                   case_id: str = "ineq_3_8") -> ReportRow:
    """Pointwise bound |b(x) - b(|x| y'/t)| <= ||b|| |x|^beta (1 + 1/t)^beta
    on log-uniform samples; FAILs with a witness point on violation."""
    rng = np.random.default_rng(seed)
    n = b.dim
    t, x, y = np.empty(sample_count), np.empty((sample_count, n)), np.empty((sample_count, n))
    for i in range(sample_count):  # draws in per-sample order, so the seed fixes every sample
        t[i] = 10.0 ** rng.uniform(-3, 3)
        xi = rng.standard_normal(n)
        x[i] = xi * (10.0 ** rng.uniform(-2, 2) / max(np.linalg.norm(xi), 1e-12))
        yi = rng.standard_normal(n)
        y[i] = yi / max(np.linalg.norm(yi), 1e-12)
    actual, bound = lipschitz_gap(b, x, t, y)
    slack = np.divide(actual, bound, out=np.full(sample_count, math.inf), where=bound > 0)
    i = int(np.argmax(slack))
    worst = max(float(slack[i]), 0.0)
    ok = worst <= 1.0 + 1e-12
    witness = (x[i].tolist(), float(t[i]), y[i].tolist())
    return ReportRow(
        case_id, f"pointwise_bound_{b.name}", worst, 1.0, 1.0 - worst,
        PASS if ok else FAIL,
        f"max slack ratio over {sample_count} samples" + ("" if ok else f"; witness {witness}"),
    )


def check_divergence_control(case: TheoremCase, windows=(8, 16, 24)) -> list[ReportRow]:
    """With a divergent governing constant, window-truncated extremals must
    show monotone ratio growth as the truncation widens."""
    p = case.params
    n, gamma = case.w1.dim, case.w1.gamma
    e = (n + gamma) * p["lambda"]
    op = HausdorffOperator(case.kernel, case.omega, n)
    norm = SpaceSpec("CentralMorrey", p=p["p"], lam=p["lambda"], w1=case.w1)
    rows = []
    ratios = []
    for wsize in windows:
        lo, hi = 2.0 ** (-wsize), 2.0 ** wsize
        f = separable(
            n,
            lambda r, _e=e: np.asarray(r, dtype=float) ** _e,
            support=(lo, hi),
            name=f"truncated_extremal_w{wsize}",
        )
        img = op.image(f)
        win = (-wsize - 4, wsize + 4)
        nf = norm.evaluate(f, win)
        nh = norm.evaluate(img, win, strict=False)
        ratios.append(nh.value / nf.value)
        rows.append(ReportRow(case.id, f"ratio_window_{wsize}", ratios[-1], "", "", DIVERGENT,
                              "truncated-extremal ratio at dyadic window"))
    growing = all(ratios[i + 1] >= ratios[i] * 1.05 for i in range(len(ratios) - 1))
    rows.append(ReportRow(case.id, "ratio_growth", ratios[-1] / ratios[0], 1.05, "",
                          DIVERGENT if growing else FAIL,
                          f"ratios {['%.4g' % r for r in ratios]} must grow monotonically"))
    return rows


# ---------------------------------------------------------------------------
# the theorem table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremSpec:
    """What the harness knows of one theorem."""

    hypotheses: Callable  # (params, n, gamma) -> None, or the violated hypothesis
    constant: Callable  # (kernel, n, gamma, params) -> the governing BoundConstant C
    slack: Callable  # (params, w1, w2) -> the tracked proof-chain factor K
    norms: Callable  # (params, w1, w2) -> the (source, target) SpaceSpec pair
    omega_exponent: str  # the parameter r whose conjugate r' measures Omega
    lower: Optional[Callable] = None  # (case, tol_rel) -> rows; None: no necessity direction
    control: Optional[Callable] = None  # case -> rows checking that ratios grow when C diverges


def _lambda1(p: dict, n: float, gamma: float) -> float:
    """The commutator's source Morrey index lambda - beta p / (n + gamma)."""
    return p["lambda"] - p["beta"] * p["p"] / (n + gamma)


def _pair(source: SpaceSpec, **target) -> tuple[SpaceSpec, SpaceSpec]:
    """(source, source with the ``target`` fields changed)."""
    return source, replace(source, **target)


def _sphere_slack(w: Weight, r: float) -> float:
    """(w(S^{n-1}) / c)^{1/r}, c the weight's declared angular lower bound."""
    if w.angular_lower_bound is None:
        raise ConfigError("upper checks need weights with a declared angular lower bound")
    return (w.sphere_mass / w.angular_lower_bound) ** (1.0 / r)


def _ball_slack(p: dict, w1: Weight, w: Weight) -> float:
    """((n+gamma) / w(S^{n-1}))^{beta/(n+gamma)}, n and gamma those of w1."""
    ng = w1.dim + w1.gamma
    return (ng / w.sphere_mass) ** (p["beta"] / ng)


def _commutator_slack(p: dict, w1: Weight, w2: Weight, index: float, lam: Optional[float] = None) -> float:
    """The two-weight Herz-type commutators: w2's sphere slack, the ball-size
    substitution, the shift factor at the transported index (n+gamma) index / n,
    and for a Morrey-Herz index lam with p < 1 the p-sum factor."""
    n, ng = w1.dim, w1.dim + w1.gamma
    k = _sphere_slack(w2, p["q"]) * _ball_slack(p, w1, w1) * (1.0 + 2.0 ** abs(ng * index / n))
    if lam is not None and p["p"] < 1.0:
        k *= (1.0 - 2.0 ** (-ng * lam * p["p"] / n)) ** (-1.0 / p["p"])
    return k


def _morrey_hypotheses(p: dict, n: float, gamma: float) -> Optional[str]:
    if not (1.0 <= p["p"] < math.inf):
        return "requires 1 <= p < inf"
    if 1.0 + p["lambda"] * p["p"] <= 0.0:
        return f"1 + lambda p = {1 + p['lambda'] * p['p']:.3g} <= 0"
    return None


def _herz_hypotheses(p: dict, n: float, gamma: float) -> Optional[str]:
    if not (1.0 <= p["p"] < math.inf and 1.0 <= p["q"] < math.inf):
        return "requires 1 <= p, q < inf"
    return None


def _morrey_herz_hypotheses(p: dict, n: float, gamma: float) -> Optional[str]:
    if not (1.0 <= p["q"] < math.inf and 0.0 < p["p"] < math.inf):
        return "requires 1 <= q and 0 < p"
    if p["lambda"] <= 0.0:
        return "requires lambda > 0"
    return None


def _commutator_morrey_hypotheses(p: dict, n: float, gamma: float) -> Optional[str]:
    if not (1.0 <= p["p"] < math.inf):
        return "requires 1 <= p"
    if not (0.0 < p["beta"] <= 1.0):
        return "requires 0 < beta <= 1"
    lam1 = _lambda1(p, n, gamma)
    if lam1 <= 0.0:
        return f"lambda1 = {lam1:.3g} <= 0"
    return None


def _commutator_herz_hypotheses(p: dict, n: float, gamma: float, morrey_herz: bool) -> Optional[str]:
    if not (1.0 <= p["q"] < math.inf):
        return "requires 1 <= q"
    if not morrey_herz and not (1.0 <= p["p"] < math.inf):
        return "requires 1 <= p"
    if not (0.0 < p["beta"] <= 1.0):
        return "requires 0 < beta <= 1"
    expected = p["alpha2"] + n * p["beta"] / (n + gamma)
    if abs(expected - p["alpha1"]) > 1e-12:
        return "alpha1 != alpha2 + n beta/(n+gamma)"
    if morrey_herz and p["lambda"] < 0.0:
        return "requires lambda >= 0"
    if morrey_herz and p["p"] < 1.0 and p["lambda"] <= 0.0:
        # the p-sum factor (1 - 2^{-(n+gamma) lambda p / n})^{-1/p} of the slack needs lambda > 0
        return "requires lambda > 0 when p < 1"
    return None


_MORREY = TheoremSpec(
    hypotheses=_morrey_hypotheses,
    constant=lambda phi, n, gamma, p: bmod.c1(phi, n, gamma, p["lambda"]),
    slack=lambda p, w1, w2: _sphere_slack(w1, p["p"]),
    norms=lambda p, w1, w2: _pair(SpaceSpec("CentralMorrey", p=p["p"], lam=p["lambda"], w1=w1)),
    omega_exponent="p",
    lower=partial(_pure_power_lower, extremal=_morrey_power),
    control=check_divergence_control,
)
_HERZ = TheoremSpec(
    hypotheses=_herz_hypotheses,
    # the upper-bound chain needs the proof's alpha variant
    constant=lambda phi, n, gamma, p: bmod.c2(phi, n, gamma, p["q"], alpha=p["alpha"]),
    slack=lambda p, w1, w2: _sphere_slack(w1, p["q"]) * (1.0 + 2.0 ** abs(p["alpha"])),
    norms=lambda p, w1, w2: _pair(SpaceSpec("Herz", alpha=p["alpha"], p=p["p"], q=p["q"], w1=w1)),
    omega_exponent="q",
    lower=_herz_lower,
)
_MORREY_HERZ = TheoremSpec(
    hypotheses=_morrey_herz_hypotheses,
    constant=lambda phi, n, gamma, p: bmod.c3(phi, n, gamma, p["q"], p["lambda"], p["alpha"]),
    slack=lambda p, w1, w2: _sphere_slack(w1, p["q"]) * (1.0 + 2.0 ** abs(p["lambda"] - p["alpha"])),
    norms=lambda p, w1, w2: _pair(SpaceSpec("MorreyHerz", alpha=p["alpha"], lam=p["lambda"], p=p["p"],
                                            q=p["q"], w1=w1)),
    omega_exponent="q",
    lower=partial(_pure_power_lower, extremal=_morrey_herz_power),
)

THEOREM_TABLE = {
    "T3_1": _MORREY,
    "T3_2": _HERZ,
    "T3_3": _MORREY_HERZ,
    "T3_4": TheoremSpec(
        hypotheses=_commutator_morrey_hypotheses,
        constant=lambda phi, n, gamma, p: bmod.c4(phi, n, gamma, p["p"], _lambda1(p, n, gamma), p["beta"],
                                                  lam=p["lambda"]),
        slack=lambda p, w1, w2: _ball_slack(p, w1, w2) * _sphere_slack(w1, p["p"]),
        norms=lambda p, w1, w2: _pair(SpaceSpec("TwoWeightMorrey", p=p["p"], lam=_lambda1(p, w1.dim, w1.gamma),
                                                w1=w1, w2=w2), lam=p["lambda"]),
        omega_exponent="p",
    ),
    "T3_5": TheoremSpec(
        hypotheses=partial(_commutator_herz_hypotheses, morrey_herz=False),
        constant=lambda phi, n, gamma, p: bmod.c5(phi, n, gamma, p["q"], p["alpha1"], p["beta"], "herz",
                                                  alpha2=p["alpha2"]),
        slack=lambda p, w1, w2: _commutator_slack(p, w1, w2, p["alpha1"]),
        norms=lambda p, w1, w2: _pair(SpaceSpec("TwoWeightHerz", alpha=p["alpha1"], p=p["p"], q=p["q"],
                                                w1=w1, w2=w2), alpha=p["alpha2"]),
        omega_exponent="q",
    ),
    "T3_6": TheoremSpec(
        hypotheses=partial(_commutator_herz_hypotheses, morrey_herz=True),
        constant=lambda phi, n, gamma, p: bmod.c5(phi, n, gamma, p["q"], p["alpha1"], p["beta"], "morrey_herz",
                                                  lam=p["lambda"], alpha2=p["alpha2"]),
        slack=lambda p, w1, w2: _commutator_slack(p, w1, w2, p["lambda"] - p["alpha1"], p["lambda"]),
        norms=lambda p, w1, w2: _pair(SpaceSpec("TwoWeightMorreyHerz", alpha=p["alpha1"], lam=p["lambda"],
                                                p=p["p"], q=p["q"], w1=w1, w2=w2), alpha=p["alpha2"]),
        omega_exponent="q",
    ),
    "Cor3_1": replace(_MORREY, lower=partial(_pure_power_lower, extremal=_morrey_power, sharp=True)),
    "Cor3_2": _HERZ,
    "Cor3_3": _MORREY_HERZ,
}

THEOREMS = (*THEOREM_TABLE, "Lemma2_1", "Ineq3_8")


def _spec(theorem: str) -> TheoremSpec:
    if theorem not in THEOREM_TABLE:
        raise ConfigError(f"theorem {theorem} has no entry in the theorem table")
    return THEOREM_TABLE[theorem]


def tracked_slack(theorem: str, params: dict, w1: Weight, w2: Optional[Weight] = None) -> float:
    """The explicit proof-chain constant K for the upper bound of ``theorem``."""
    return _spec(theorem).slack(params, w1, w2)


def validate_case(case: TheoremCase) -> Optional[str]:
    """None when the theorem's hypotheses hold, else the violation reason.
    Every theorem of the table needs gamma > -n, checked first: the indices
    and constants divide by n + gamma."""
    spec = THEOREM_TABLE.get(case.theorem)
    if spec is None:
        return None
    n = case.params.get("n", case.w1.dim if case.w1 else 1)
    gamma = case.w1.gamma if case.w1 else 0.0
    if gamma <= -n:
        return f"gamma={gamma} <= -n"
    return spec.hypotheses(case.params, n, gamma)


def _constant_for(case: TheoremCase) -> bmod.BoundConstant:
    return _spec(case.theorem).constant(case.kernel, case.w1.dim, case.w1.gamma, case.params)


def _omega_conjugate(theorem: str, params: dict) -> Optional[float]:
    """r' for the exponent r that measures Omega; None when r <= 1, as r' = inf is out of scope."""
    r = params[_spec(theorem).omega_exponent]
    return conjugate(r) if r > 1.0 else None


# ---------------------------------------------------------------------------
# configuration and the suite driver
# ---------------------------------------------------------------------------

@contextmanager
def _spec_errors(kind: str, spec):
    """Re-raise what a malformed spec trips (a missing key, a bad value, an
    unknown preset, an unparsable expression) as ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{kind} spec {spec!r}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} spec {spec!r}: {exc}") from exc


def _build_weight(spec: dict) -> Weight:
    with _spec_errors("weight", spec):
        gamma = float(spec["gamma"])
        dim = int(spec["dim"])
        angular = spec.get("angular", "const")
        if angular == "const":
            return Weight.power(gamma, dim)
        fn = exprs.sphere_expression(angular, dim)
        return Weight(gamma, fn, dim, angular_lower_bound=spec.get("angular_lower_bound"))


def _build_omega(spec: dict) -> AngularProfile:
    with _spec_errors("omega", spec):
        dim = int(spec["dim"])
        expr = spec.get("expr", "1")
        if expr.strip() == "1":
            return AngularProfile.constant(1.0, dim)
        return AngularProfile.from_expression(expr, dim, nonvanishing=spec.get("nonvanishing", True))


def _build_kernel(spec: dict) -> RadialKernel:
    """A kernel preset from its config form {"preset": name, <parameters by name>}."""
    with _spec_errors("kernel", spec):
        params = dict(spec)
        return kernel_presets(params.pop("preset"), **params)


def _build_symbol(spec: dict, dim: int) -> LipschitzSymbol:
    with _spec_errors("symbol", spec):
        return lipschitz_presets(spec.get("kind", "power"), float(spec.get("beta", 1.0)), dim)


def load_config(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc.strerror}") from exc
    else:
        text = source.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def default_config() -> dict:
    import importlib.resources as res

    with res.files("rough_hausdorff").joinpath("configs/default.json").open("r") as fh:
        return json.load(fh)


def _window(value, where: str) -> tuple[int, int]:
    """``value`` as a dyadic window: two integers k_min <= k_max, else ConfigError."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(k, int) and not isinstance(k, bool) for k in value) and value[0] <= value[1]):
        raise ConfigError(f"{where}: window {value!r} is not two integers k_min <= k_max")
    return tuple(value)


def _case_from_config(entry: dict, registries: dict, window: tuple[int, int]) -> TheoremCase:
    try:
        theorem = entry["theorem"]
        if theorem not in THEOREMS:
            raise ConfigError(f"case {entry.get('id')}: unknown theorem {theorem!r}")
        params = dict(entry.get("params", {}))
        w1 = registries["weights"][entry["weight"]] if "weight" in entry else None
        if "weight2" in entry:
            w2 = registries["weights"][entry["weight2"]]
        else:
            w2 = w1
        omega = registries["omegas"][entry["omega"]] if "omega" in entry else None
        kernel = registries["kernels"][entry["kernel"]] if "kernel" in entry else None
        symbol = None
        if "symbol" in entry:
            symbol = _build_symbol(entry["symbol"], w1.dim if w1 else 1)
            params.setdefault("beta", symbol.beta)
        corpus: list[TestFunction] = []
        if entry.get("corpus") == "default" and omega is not None and w1 is not None:
            rprime = _omega_conjugate(theorem, params)
            if rprime is not None:  # otherwise run_case skips the case
                corpus = default_corpus(w1.dim, omega, rprime, int(entry.get("corpus_size", 20)))
        return TheoremCase(
            id=entry["id"],
            theorem=theorem,
            params=params,
            kernel=kernel,
            omega=omega,
            w1=w1,
            w2=w2,
            symbol=symbol,
            corpus=corpus,
            extremal_ms=list(entry.get("extremal_ms", [])),
            window=_window(entry.get("window", window), f"case {entry['id']}"),
            expect=entry.get("expect", "pass"),
        )
    except KeyError as exc:
        raise ConfigError(f"case {entry.get('id', '?')}: missing key {exc}") from exc


def run_case(case: TheoremCase, tol_rel: float) -> list[ReportRow]:
    if case.theorem == "Lemma2_1":
        return check_lemma_2_1()
    if case.theorem == "Ineq3_8":
        rows = []
        for beta in case.params.get("betas", (0.25, 0.5, 1.0)):
            b = lipschitz_presets("power", beta, case.params.get("n", 1))
            rows.append(check_ineq_3_8(b, case.params.get("samples", 10000), case_id=case.id))
        corrupt = lipschitz_presets("power", 0.5, case.params.get("n", 1))
        corrupted = LipschitzSymbol(corrupt.eval, corrupt.beta, corrupt.lip_norm * 0.5,
                                    corrupt.dim, name="corrupted", validate=False)
        row = check_ineq_3_8(corrupted, 2000, case_id=case.id)
        detected = row.verdict == FAIL
        rows.append(ReportRow(case.id, "corrupted_norm_control", row.value, 1.0, "",
                              PASS if detected else FAIL,
                              "halved lip_norm must be caught with a witness: " + row.detail))
        return rows

    reason = validate_case(case)
    if reason is not None:
        return [ReportRow(case.id, "hypotheses", "", "", "", SKIPPED, reason)]
    if _omega_conjugate(case.theorem, case.params) is None:
        r = _spec(case.theorem).omega_exponent
        return [ReportRow(case.id, "scope", "", "", "", SKIPPED,
                          f"Omega's exponent {r}' = inf ({r} = 1) is out of scope")]

    if case.expect == "divergent":
        constant = _constant_for(case)
        rows = [ReportRow(case.id, constant.id, "divergent" if constant.divergent else constant.value,
                          "", "", DIVERGENT if constant.divergent else FAIL,
                          "expected divergent governing constant")]
        control = _spec(case.theorem).control
        if constant.divergent and control is not None:
            rows.extend(control(case))
        return rows

    rows = check_upper(case, tol_rel)
    rows.extend(check_lower(case, tol_rel))
    return rows


def run_suite(config) -> VerificationReport:
    cfg = load_config(config)
    tolerances = dict(cfg.get("tolerances", {}))
    tol_rel = float(tolerances.get("ratio_rel", 1e-3))
    window = _window(tolerances.get("dyadic_window", CASE_WINDOW), "tolerances.dyadic_window")
    registries = {
        "weights": {k: _build_weight(v) for k, v in cfg.get("weights", {}).items()},
        "omegas": {k: _build_omega(v) for k, v in cfg.get("omegas", {}).items()},
        "kernels": {k: _build_kernel(v) for k, v in cfg.get("kernels", {}).items()},
    }
    cases = [_case_from_config(entry, registries, window) for entry in cfg.get("cases", [])]
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate case ids")

    t0 = time.time()
    rows: list[ReportRow] = []
    plots: dict[str, list] = {}
    for case in cases:
        try:
            case_rows = run_case(case, tol_rel)
        except ArithmeticError as exc:  # a numerical failure stays inside its case
            case_rows = [ReportRow(case.id, "error", "", "", "", ERROR, f"{type(exc).__name__}: {exc}")]
        rows.extend(case_rows)
        mrows = [(int(r.quantity.split("_m")[-1]), r.value) for r in case_rows
                 if r.quantity.startswith("lower_ratio_m")]
        if mrows:
            plots[f"{case.id}_ratio_vs_m"] = sorted(mrows)
        wrows = [(int(r.quantity.split("_window_")[-1]), r.value) for r in case_rows
                 if r.quantity.startswith("ratio_window_")]
        if wrows:
            plots[f"{case.id}_ratio_vs_window"] = sorted(wrows)

    metadata = {
        "tolerances": tolerances,
        "dyadic_window": list(window),
        "grid": "quarter-dyadic radii 2^(j/4)",
        "cases": ids,
        "runtime_seconds": round(time.time() - t0, 3),
    }
    return VerificationReport(rows, metadata, plots)


def write_report(report: VerificationReport, out_dir: str) -> dict:
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    body = report.to_canonical_json()
    paths["json"] = os.path.join(out_dir, "report.json")
    with open(paths["json"], "w", encoding="utf-8") as fh:
        fh.write(body + "\n")
    paths["csv"] = os.path.join(out_dir, "report.csv")
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    paths["meta"] = os.path.join(out_dir, "report.meta.json")
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(report.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, points in report.plots.items():
        path = os.path.join(out_dir, f"{name}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            for x, y in points:
                fh.write(f"{x} {_fmt(y)}\n")
        paths[name] = path
    return paths
