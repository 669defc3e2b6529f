"""The benchmark's workloads.

Each workload is built from a seed and hands out rounds: lists of ops, each
op a call into the package through a public entry point plus a check of its
output.  A run repeats rounds; every round asks the package slightly
different questions (see ``Draws``) in a seeded order.

* ``campaign``: the bundled verification campaign, one ``harness.run_case``
  call per case, in an order permuted by the seed.
* ``norms``: ``SpaceSpec.evaluate`` on inputs with closed-form norms.
* ``queries``: in-process ``cli.main(argv)`` calls, stdout parsed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from rough_hausdorff import SpaceSpec, TestFunction, Weight, cli, exprs, harness, separable
from rough_hausdorff.extremals import herz_extremal, morrey_extremal, morrey_herz_extremal
from rough_hausdorff.functions import AngularProfile

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
CAMPAIGN_REFERENCE = os.path.join(HERE, "reference", "campaign.json")


JITTER = 0.01


class Draws:
    """Parameter draws for one round.  Every round starts from the same
    base values, each moved by a seeded jitter of JITTER of its range: the
    rounds of every run cost about the same, so round times measure the
    package and not the draw, while no two rounds ask the same question.
    Orders are shuffled by the seeded generator alone."""

    def __init__(self, rng: random.Random):
        self.base = random.Random(0)
        self.rng = rng

    def random(self) -> float:
        u = self.base.random() + JITTER * (self.rng.random() - 0.5)
        return min(max(u, 0.0), 1.0)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, seq):
        return seq[self.base.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        self.rng.shuffle(items)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when correct, else the cause
    twin: Optional[int] = None  # index in the round of an op whose output must agree


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def campaign_cases(config: dict) -> list:
    """The TheoremCase objects ``run_suite`` builds for ``config``, in config order.

    ``run_suite`` is run with ``harness.run_case`` replaced by a recorder, so
    the cases are built by the package's own configuration path.
    """
    captured = []
    real = harness.run_case
    harness.run_case = lambda case, tol_rel: captured.append(case) or []
    try:
        harness.run_suite(config)
    finally:
        harness.run_case = real
    if not captured:
        raise RuntimeError("run_suite did not route any case through harness.run_case")
    return captured


def row_tuples(rows) -> list:
    return [(r.quantity, r.value, r.verdict) for r in rows]


def compare_rows(rows: list, reference: list, ratio_rel: float) -> Optional[str]:
    """None when every row matches the reference row of the same quantity:
    identical verdict, and a value within ``ratio_rel`` (strings identical)."""
    got = {q: (v, verdict) for q, v, verdict in rows}
    want = {q: (v, verdict) for q, v, verdict in reference}
    if len(got) != len(rows):
        return "duplicate quantities"
    if got.keys() != want.keys():
        return f"quantities differ: missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}"
    for q, (v, verdict) in want.items():
        gv, gverdict = got[q]
        if gverdict != verdict:
            return f"{q}: verdict {gverdict}, reference {verdict}"
        if isinstance(v, float) and isinstance(gv, (int, float)):
            miss = oracles.relative_miss(float(gv), v, ratio_rel, 1e-12)
            if miss is not None and not (math.isinf(v) and gv == v):
                return f"{q}: {miss}"
        elif gv != v:
            return f"{q}: value {gv!r}, reference {v!r}"
    return None


class Campaign:
    name = "campaign"
    trace_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.config = harness.default_config()
        self.ratio_rel = float(self.config["tolerances"]["ratio_rel"])
        with open(CAMPAIGN_REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["cases"]
        self.exact_rows = 0  # rows bit-identical to the reference, across all rounds
        self.first = self._round()

    def _round(self) -> list[Op]:
        cases = campaign_cases(self.config)
        self.rng.shuffle(cases)
        tol_rel = self.ratio_rel
        return [Op(f"case:{c.id}", lambda c=c: row_tuples(harness.run_case(c, tol_rel)),
                   lambda rows, cid=c.id: self._check(cid, rows)) for c in cases]

    def round(self, i: int) -> list[Op]:
        return self.first if i == 0 else self._round()

    def _check(self, case_id: str, rows: list) -> Optional[str]:
        reference = [tuple(r) for r in self.reference.get(case_id, [])]
        self.exact_rows += sum(1 for r in rows if r in reference)
        return compare_rows(rows, reference, self.ratio_rel)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

KINDS = ("Lq", "CentralMorrey", "Herz", "MorreyHerz",
         "TwoWeightMorrey", "TwoWeightHerz", "TwoWeightMorreyHerz")
COMBOS = ((1, "const"), (2, "const"), (2, "tilt"), (3, "const"), (3, "tilt"))
GAMMAS = {1: 0.3, 2: 0.5, 3: 0.2}
GAMMA2 = 0.1
# Shells also evaluated through the non-separable (general point function)
# path, paired with a separable twin.  n = 3 keeps two kinds: each such norm
# runs a region quadrature per grid radius and costs about 0.2 s.
NONSEP = {(1, "const"): KINDS, (2, "const"): KINDS, (2, "tilt"): KINDS, (3, "const"): ("Lq", "Herz")}
NORM_REL = 1e-8  # evaluators run at tol 1e-11; shell and extremal norms are O(1)-O(100)


def general_twin(f: TestFunction) -> TestFunction:
    """The same function as a general point function (no separable structure)."""
    return TestFunction(dim=f.dim, general=lambda x, f=f: f(x), support=f.support,
                        radial_exponent_at_zero=f.radial_exponent_at_zero,
                        radial_exponent_at_infinity=f.radial_exponent_at_infinity,
                        jumps=f.jumps, name=f"general:{f.name}")


def draw_shell(rng: Draws) -> oracles.ShellForm:
    """|x|^e on two octaves (a, 4a], with a strictly between quarter-dyadic radii."""
    a = 2.0 ** ((-2.0 + rng.uniform(0.1, 0.9)) / oracles.GRID_PER_OCTAVE)
    return oracles.ShellForm(rng.uniform(-0.5, 1.0), a, 4.0 * a)


def draw_dyadic_shell(rng: Draws) -> oracles.ShellForm:
    """|x|^e on (2^k, 2^(k+2)]: the edges are cut points of every panel
    grid of the general (region quadrature) path, which does not cut
    panels at a point function's jumps."""
    k = rng.choice((-1, 0))
    return oracles.ShellForm(rng.uniform(-0.5, 1.0), 2.0 ** k, 2.0 ** (k + 2))


def shell_function(n: int, s: oracles.ShellForm) -> TestFunction:
    return separable(n, lambda r, e=s.e: np.asarray(r, dtype=float) ** e, None,
                     support=(s.a, s.b), name=f"shell(e={s.e:.3f})")


def general_shell(n: int, s: oracles.ShellForm) -> TestFunction:
    """The shell as a general point function.  Points whose norm rounds to
    just outside an edge count as inside, so the function is constant on
    every sphere, the edge spheres included.  The region quadrature probes
    spheres at its panel edges; a value flickering with rounding there
    makes it refine the sphere rule level after level (at n = 3 into
    gigabytes)."""
    lo, hi = s.a * (1.0 - 1e-12), s.b * (1.0 + 1e-12)

    def f(x):
        r = np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)), axis=1)
        inside = (r > lo) & (r <= hi)
        return np.where(inside, np.where(inside, r, 1.0) ** s.e, 0.0)

    return TestFunction(dim=n, general=f, support=(s.a, s.b), name=f"general:shell(e={s.e:.3f})")


def draw_space(kind: str, rng: Draws) -> dict:
    par = {}
    if kind != "Lq":
        par["p"] = rng.uniform(1.5, 3.0)
    if "Herz" in kind or kind == "Lq":
        par["q"] = rng.uniform(1.5, 3.0)
    if "Herz" in kind:
        par["alpha"] = rng.uniform(-0.3, 0.3)
    if kind == "CentralMorrey":
        par["lam"] = rng.uniform(-0.3, -0.05)
    elif kind == "TwoWeightMorrey":
        par["lam"] = rng.uniform(0.2, 0.8)
    elif "MorreyHerz" in kind:
        par["lam"] = rng.uniform(0.1, 0.5)
    return par


class Norms:
    name = "norms"
    trace_rounds = 6

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.weights = {}
        for n, wk in COMBOS:
            if wk == "const":
                w = Weight.power(GAMMAS[n], n)
                form = oracles.WeightForm(GAMMAS[n], n, oracles.sphere_area(n))
            else:
                expr, mass = oracles.TILTED_WEIGHTS[n]
                w = Weight(0.3, exprs.sphere_expression(expr, n), n, angular_lower_bound=1.5)
                form = oracles.WeightForm(0.3, n, mass)
            self.weights[n, wk] = (w, form)
        self.second = {n: (Weight.power(GAMMA2, n), oracles.WeightForm(GAMMA2, n, oracles.sphere_area(n)))
                       for n in (1, 2, 3)}
        self.omegas = {n: AngularProfile.from_expression(oracles.OMEGAS[n][0], n, nonvanishing=True)
                       for n in (1, 2, 3)}
        self.first = self._round()

    def round(self, i: int) -> list[Op]:
        return self.first if i == 0 else self._round()

    def _spec(self, kind: str, par: dict, combo) -> tuple[SpaceSpec, oracles.WeightForm, Optional[oracles.WeightForm]]:
        w, form = self.weights[combo]
        if not kind.startswith("TwoWeight"):
            return SpaceSpec(kind, w1=w, **par), form, None
        w2, form2 = self.second[combo[0]]
        if kind == "TwoWeightMorrey":  # integrand weight w1, normalising ball mass w2
            return SpaceSpec(kind, w1=w, w2=w2, **par), form, form2
        return SpaceSpec(kind, w1=w2, w2=w, **par), form2, form

    def _round(self) -> list[Op]:
        rng = Draws(self.rng)
        ops: list[Op] = []
        for combo in COMBOS:
            n = combo[0]
            for kind in KINDS:
                for draw in range(2):
                    general = draw == 0 and kind in NONSEP.get(combo, ())
                    shell = draw_dyadic_shell(rng) if general else draw_shell(rng)
                    par = draw_space(kind, rng)
                    spec, f1, f2 = self._spec(kind, par, combo)
                    expected = oracles.shell_norm(kind, shell, par, f1, f2)
                    check = lambda v, x=expected: oracles.relative_miss(v, x, NORM_REL, 1e-12)
                    label = f"{kind}/n{n}/{combo[1]}/shell"
                    f = shell_function(n, shell)
                    ops.append(Op(label, lambda s=spec, f=f: s.evaluate(f).value, check))
                    if general:
                        g = general_shell(n, shell)
                        ops.append(Op(label + "/general", lambda s=spec, g=g: s.evaluate(g).value,
                                      check, twin=len(ops) - 1))
            ops.extend(self._extremal_ops(combo, len(ops), rng))
        order = list(range(len(ops)))
        rng.shuffle(order)
        where = {old: new for new, old in enumerate(order)}
        shuffled = [ops[i] for i in order]
        for op in shuffled:
            if op.twin is not None:
                op.twin = where[op.twin]
        return shuffled

    def _extremal_ops(self, combo, offset: int, rng: Draws) -> list[Op]:
        """The three extremal families, whose norms the package states in closed
        form; ``offset`` is the index in the round of the first op returned."""
        n = combo[0]
        w, _ = self.weights[combo]
        omega = self.omegas[n]
        p = rng.uniform(1.5, 3.0)
        # p (n + gamma) lam > -1: the general path declares the ball integral's
        # exponent at 0 without the weight's gamma (see README.md)
        lam = rng.uniform(-0.25, -0.05)
        fam = morrey_extremal(omega, w, lam, p)
        cases = [("CentralMorrey", SpaceSpec("CentralMorrey", p=p, lam=lam, w1=w), fam.function,
                  fam.closed_form_norm, lambda r: r.value)]
        q, alpha, p = rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3), rng.uniform(1.5, 3.0)
        fam = herz_extremal(omega, w, q, alpha, rng.choice((1, 2)))
        # the Herz extremal decays geometrically: the certified tail completes the window sum
        cases.append(("Herz", SpaceSpec("Herz", alpha=alpha, p=p, q=q, w1=w), fam.function,
                      fam.herz_norm_closed_form(p), lambda r: r.value + r.tail_bound))
        q, alpha, lam, p = rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.5), rng.uniform(1.5, 3.0)
        fam = morrey_herz_extremal(omega, w, q, alpha, lam)
        cases.append(("MorreyHerz", SpaceSpec("MorreyHerz", alpha=alpha, lam=lam, p=p, q=q, w1=w), fam.function,
                      fam.herz_norm_closed_form(p), lambda r: r.value))
        ops = []
        for kind, spec, f, expected, read in cases:
            check = lambda v, x=expected: oracles.relative_miss(v, x, NORM_REL, 1e-12)
            label = f"{kind}/n{n}/{combo[1]}/extremal"
            ops.append(Op(label, lambda s=spec, f=f, read=read: read(s.evaluate(f)), check))
            if n == 1:
                g = general_twin(f)
                ops.append(Op(label + "/general", lambda s=spec, g=g, read=read: read(s.evaluate(g)),
                              check, twin=offset + len(ops) - 1))
        return ops


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

APPLY_REL = 1e-6  # apply runs at --tol 1e-9 on O(1) values
CONST_REL = 1e-7  # constants run at tol 1e-10


def run_cli(argv: list[str]):
    """cli.main(argv) in process; returns the parsed JSON it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return json.loads(out.getvalue())


def _f(x: float) -> str:
    return repr(float(x))


def _check_apply(expected: list[float]):
    def check(out) -> Optional[str]:
        values = [item["value"] for item in out]
        if len(values) != len(expected):
            return f"{len(values)} values for {len(expected)} points"
        for v, x in zip(values, expected):
            miss = oracles.relative_miss(v, x, APPLY_REL, 1e-9)
            if miss is not None:
                return miss
        return None
    return check


def _check_constant(expected: Optional[float]):
    def check(out) -> Optional[str]:
        value = out["value"]
        if expected is None:
            return None if value == "divergent" else f"got {value!r}, expected divergent"
        return oracles.relative_miss(value, expected, CONST_REL, 1e-10)
    return check


class Queries:
    name = "queries"
    trace_rounds = 60

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.first = self._round()

    def round(self, i: int) -> list[Op]:
        return self.first if i == 0 else self._round()

    def _op(self, label: str, argv: list[str], check) -> Op:
        return Op(label, lambda: run_cli(argv), check)

    def _round(self) -> list[Op]:
        self.draws = Draws(self.rng)
        ops = self._apply_ops() + self._constant_ops() + self._norm_ops()
        self.draws.shuffle(ops)
        return ops

    def _apply_ops(self) -> list[Op]:
        rng = self.draws
        ops = []
        for n in (1, 2, 3):
            omega_expr, omega_mass = oracles.OMEGAS[n]
            for omega, sf in (("1", oracles.sphere_area(n)), (omega_expr, omega_mass)):
                a = rng.uniform(0.3, 1.0)
                b = a * rng.uniform(2.0, 4.0)
                radii = [rng.uniform(a * 1.05, b * 0.95), rng.uniform(b * 1.05, 4.0 * b)]
                argv = ["apply", "--phi", f"hardy:{n}", "--omega", omega, "--n", str(n),
                        "--radial", f"indicator({_f(a)},{_f(b)})", "--support-min", _f(a),
                        "--support-max", _f(b), "--x", ",".join(_f(r) for r in radii)]
                expected = [oracles.hardy_shell_image(n, sf, a, b, r) for r in radii]
                ops.append(self._op(f"apply/n{n}/shell", argv, _check_apply(expected)))
            e = rng.uniform(-0.4, 0.8)
            radii = [rng.uniform(0.2, 1.0), rng.uniform(1.0, 5.0)]
            ops.append(self._op(f"apply/n{n}/power", self._power_argv(n, e, radii),
                                _check_apply([oracles.hardy_power_image(n, oracles.sphere_area(n), e, r)
                                              for r in radii])))
        for n in (1, 1, 2):
            e, beta = rng.uniform(-0.4, 0.8), rng.uniform(0.1, 1.0)
            radii = [rng.uniform(0.5, 2.0)]
            argv = self._power_argv(n, e, radii) + ["--commutator-beta", _f(beta)]
            expected = [oracles.hardy_power_commutator(n, oracles.sphere_area(n), e, beta, r) for r in radii]
            ops.append(self._op(f"apply/n{n}/commutator", argv, _check_apply(expected)))
        return ops

    @staticmethod
    def _power_argv(n: int, e: float, radii: list[float]) -> list[str]:
        return ["apply", "--phi", f"hardy:{n}", "--n", str(n), "--radial", f"pow(r,{_f(e)})",
                "--exponent-at-zero", _f(e), "--exponent-at-infinity", _f(e),
                "--x", ",".join(_f(r) for r in radii)]

    def _constant_ops(self) -> list[Op]:
        rng = self.draws
        ops = []

        def const(cid: str, phi: str, n: int, gamma: float, expected, **extra):
            argv = ["constant", "--id", cid, "--phi", phi, "--n", str(n), "--gamma", _f(gamma)]
            for key, val in extra.items():
                argv += [f"--{key}", val if isinstance(val, str) else _f(val)]
            label = f"constant/{cid}/{phi.split(':')[0]}" + ("/divergent" if expected is None else "")
            ops.append(self._op(label, argv, _check_constant(expected)))

        n, gamma = rng.choice((1, 2, 3)), rng.uniform(0.0, 0.3)
        lam = rng.uniform(-0.3, 0.3)
        const("c1", f"hardy:{n}", n, gamma, oracles.hardy_c1(n, gamma, lam), **{"lambda": lam})
        lam = rng.uniform(-0.4, -0.1)
        const("c1", "adjoint_hardy", n, gamma, oracles.adjoint_hardy_c1(n, gamma, lam), **{"lambda": lam})
        lam = rng.uniform(0.0, 0.4)
        const("c1", "adjoint_hardy", n, gamma, oracles.adjoint_hardy_c1(n, gamma, lam), **{"lambda": lam})
        q = rng.uniform(2.5, 4.0)
        const("c2", "hardy:1", 1, gamma, oracles.hardy_c2(1, gamma, q), q=q)
        const("c2", "hardy:2", 2, gamma, oracles.hardy_c2(2, gamma, q), q=q)
        n = rng.choice((1, 2, 3))
        q, lam, alpha = rng.uniform(1.5, 3.0), rng.uniform(0.1, 0.6), rng.uniform(-0.3, 0.0)
        const("c3", f"hardy:{n}", n, gamma, oracles.hardy_c3(n, gamma, q, lam, alpha),
              q=q, alpha=alpha, **{"lambda": lam})
        p, lambda1, beta = rng.uniform(1.5, 3.0), rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0)
        const("c4", f"hardy:{n}", n, gamma, oracles.hardy_c4(n, gamma, p, lambda1, beta),
              p=p, lambda1=lambda1, beta=beta)
        q, alpha1, beta = rng.uniform(1.5, 3.0), rng.uniform(-0.3, -0.05), rng.uniform(0.1, 1.0)
        const("c5", f"hardy:{n}", n, gamma, oracles.hardy_c5(n, gamma, q, alpha1, beta, "herz"),
              q=q, alpha1=alpha1, beta=beta, variant="herz")
        lam = rng.uniform(0.0, 0.3)
        const("c5", f"hardy:{n}", n, gamma, oracles.hardy_c5(n, gamma, q, alpha1, beta, "morrey_herz", lam),
              q=q, alpha1=alpha1, beta=beta, variant="morrey_herz", **{"lambda": lam})
        return ops

    def _norm_ops(self) -> list[Op]:
        rng = self.draws
        ops = []
        for kind in KINDS:
            n = rng.choice((1, 2, 3))
            tilted = n > 1 and rng.random() < 0.5
            gamma = 0.3 if tilted else GAMMAS[n]
            shell = draw_shell(rng)
            par = draw_space(kind, rng)
            mass = oracles.TILTED_WEIGHTS[n][1] if tilted else oracles.sphere_area(n)
            w = oracles.WeightForm(gamma, n, mass)
            w2 = oracles.WeightForm(GAMMA2, n, oracles.sphere_area(n))
            # the CLI passes the --gamma weight as w1 and the power weight |x|^gamma2 as w2
            expected = oracles.shell_norm(kind, shell, par, w, w2)
            argv = ["norm", "--space", kind, "--n", str(n), "--gamma", _f(gamma),
                    "--radial", f"pow(r,{_f(shell.e)})", "--support-min", _f(shell.a),
                    "--support-max", _f(shell.b)]
            if tilted:
                argv += ["--weight-angular", oracles.TILTED_WEIGHTS[n][0], "--weight-lower-bound", "1.5"]
            if kind.startswith("TwoWeight"):
                argv += ["--gamma2", _f(GAMMA2)]
            for key, flag in (("p", "--p"), ("q", "--q"), ("alpha", "--alpha"), ("lam", "--lambda")):
                if key in par:
                    argv += [flag, _f(par[key])]
            check = lambda out, x=expected: oracles.relative_miss(out["value"], x, NORM_REL, 1e-12)
            ops.append(self._op(f"norm/{kind}/n{n}", argv, check))
        return ops


WORKLOADS = {"campaign": Campaign, "norms": Norms, "queries": Queries}
