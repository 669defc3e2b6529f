"""Command-line interface: apply, norm, constant, verify, report.

Kernel, sphere-symbol and weight specs go through the config registry of
``harness``.  Exit codes: 2 from any subcommand on a malformed spec or
configuration, and from ``apply``, ``norm`` and ``constant`` on any value
their numerics reject with ValueError (a range rule of ``spaces._KINDS``,
a missing radial exponent, x = 0); ``verify`` otherwise gives 0 when every
row is PASS / SKIPPED / DIVERGENT-AS-PREDICTED and 1 on any FAIL or ERROR
(a case whose numerics raised).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bmod
from . import exprs
from .functions import KERNEL_PARAMETERS, AngularProfile, RadialKernel, lipschitz_presets, separable
from .harness import (
    ConfigError,
    ReportRow,
    VerificationReport,
    _build_kernel,
    _build_omega,
    _build_weight,
    default_config,
    load_config,
    run_suite,
    write_report,
)
from .operators import CommutatorOperator, HausdorffOperator
from .spaces import SpaceSpec
from .weights import Weight


def _cli_kernel(text: str) -> RadialKernel:
    """A ``name[:arg...]`` kernel (``hardy:1``, ``power:-2.5:1:inf``) through the config registry."""
    name, *args = text.split(":")
    return _build_kernel({"preset": name, **dict(zip(KERNEL_PARAMETERS.get(name, ()), args))})


def _cli_omega(args) -> AngularProfile:
    return _build_omega({"expr": args.omega, "dim": args.n})


def _cli_weight(args) -> Weight:
    return _build_weight({"gamma": args.gamma, "dim": args.n, "angular": args.weight_angular,
                          "angular_lower_bound": args.weight_lower_bound})


# the flags each constant needs beyond --phi, --n and --gamma (argparse dest names)
_CONSTANT_FLAGS = {
    "c1": ("lam",),
    "c2": ("q",),
    "c3": ("q", "lam", "alpha"),
    "c4": ("p", "lambda1", "beta"),
    "c5": ("q", "alpha1", "beta"),
}


def _parse_test_function(args) -> separable:
    radial = exprs.radial_expression(args.radial)
    angular = None
    if args.angular and args.angular.strip() != "1":
        angular = exprs.sphere_expression(args.angular, args.n)
    support = (args.support_min, args.support_max)
    exponents = (args.exponent_at_zero, args.exponent_at_infinity)
    return separable(args.n, radial, angular, support=support, exponents=exponents,
                     name=args.radial)


def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="dimension (1, 2 or 3)")
    p.add_argument("--radial", required=True, help="radial profile expression in r")
    p.add_argument("--angular", default="1", help="angular factor expression")
    p.add_argument("--support-min", type=float, default=0.0)
    p.add_argument("--support-max", type=float, default=math.inf)
    p.add_argument("--exponent-at-zero", type=float, default=None)
    p.add_argument("--exponent-at-infinity", type=float, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rough-hausdorff",
        description="Rough Hausdorff operators on weighted Herz/Morrey/Morrey-Herz spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="evaluate the operator (or commutator) at points")
    _add_function_args(p_apply)
    p_apply.add_argument("--phi", required=True, help="kernel, e.g. hardy:1, adjoint_hardy, power:-2.5:1:inf")
    p_apply.add_argument("--omega", default="1", help="sphere symbol expression")
    p_apply.add_argument("--x", required=True, help="comma-separated radii (or single coordinates for n=1)")
    p_apply.add_argument("--commutator-beta", type=float, default=None,
                         help="apply the commutator with b(x) = |x|^beta instead")
    p_apply.add_argument("--tol", type=float, default=1e-9)

    p_norm = sub.add_parser("norm", help="evaluate a space norm of an expression-defined function")
    _add_function_args(p_norm)
    p_norm.add_argument("--space", required=True,
                        choices=["Lq", "CentralMorrey", "Herz", "MorreyHerz",
                                 "TwoWeightMorrey", "TwoWeightHerz", "TwoWeightMorreyHerz"])
    p_norm.add_argument("--p", type=float, default=None)
    p_norm.add_argument("--q", type=float, default=None)
    p_norm.add_argument("--alpha", type=float, default=None)
    p_norm.add_argument("--lambda", dest="lam", type=float, default=None)
    p_norm.add_argument("--gamma", type=float, default=0.0)
    p_norm.add_argument("--gamma2", type=float, default=None, help="second weight degree (two-weight kinds)")
    p_norm.add_argument("--weight-angular", default="const")
    p_norm.add_argument("--weight-lower-bound", type=float, default=None)
    p_norm.add_argument("--window", type=int, nargs=2, default=(-24, 24))

    p_const = sub.add_parser("constant", help="evaluate a governing constant integral")
    p_const.add_argument("--id", required=True, choices=["c1", "c2", "c3", "c4", "c5"])
    p_const.add_argument("--phi", required=True)
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--gamma", type=float, required=True)
    p_const.add_argument("--p", type=float, default=None)
    p_const.add_argument("--q", type=float, default=None)
    p_const.add_argument("--lambda", dest="lam", type=float, default=None)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--alpha1", type=float, default=None)
    p_const.add_argument("--alpha2", type=float, default=None)
    p_const.add_argument("--lambda1", type=float, default=None)
    p_const.add_argument("--beta", type=float, default=None)
    p_const.add_argument("--variant", choices=["herz", "morrey_herz"], default="herz")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", default=None, help="JSON config path (bundled default otherwise)")
    p_verify.add_argument("--out-dir", default="reports")

    p_report = sub.add_parser("report", help="re-render a stored report")
    p_report.add_argument("--in", dest="infile", required=True)
    p_report.add_argument("--csv", default=None, help="also write CSV here")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, exprs.ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _apply(args) -> list:
    f = _parse_test_function(args)
    op = HausdorffOperator(_cli_kernel(args.phi), _cli_omega(args), args.n)
    if args.commutator_beta is not None:
        op = CommutatorOperator(op, lipschitz_presets("power", args.commutator_beta, args.n))
    out = []
    for tok in args.x.split(","):
        r = float(tok)
        x = np.zeros(args.n)
        x[0] = r
        out.append({"x": r, "value": op.apply(f, x, args.tol)})
    return out


def _norm(args) -> dict:
    f = _parse_test_function(args)
    w1 = _cli_weight(args)
    w2 = None
    if args.space.startswith("TwoWeight"):
        g2 = args.gamma2 if args.gamma2 is not None else args.gamma
        w2 = _build_weight({"gamma": g2, "dim": args.n})
    spec = SpaceSpec(kind=args.space, p=args.p, q=args.q, alpha=args.alpha, lam=args.lam, w1=w1, w2=w2)
    return spec.evaluate(f, window=tuple(args.window)).to_json()


def _constant(args) -> dict:
    missing = [name for name in _CONSTANT_FLAGS[args.id] if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"{args.id} needs " + ", ".join(
            "--lambda" if name == "lam" else f"--{name}" for name in missing))
    phi = _cli_kernel(args.phi)
    if args.id == "c1":
        bc = bmod.c1(phi, args.n, args.gamma, args.lam)
    elif args.id == "c2":
        bc = bmod.c2(phi, args.n, args.gamma, args.q, alpha=args.alpha)
    elif args.id == "c3":
        bc = bmod.c3(phi, args.n, args.gamma, args.q, args.lam, args.alpha)
    elif args.id == "c4":
        bc = bmod.c4(phi, args.n, args.gamma, args.p, args.lambda1, args.beta, lam=args.lam)
    else:
        bc = bmod.c5(phi, args.n, args.gamma, args.q, args.alpha1, args.beta,
                     args.variant, lam=args.lam, alpha2=args.alpha2)
    return bc.to_json()


_EVALUATE = {"apply": _apply, "norm": _norm, "constant": _constant}


def _run(args) -> int:
    if args.command in _EVALUATE:
        # a divergence (an ArithmeticError) is a result, not a config error
        try:
            out = _EVALUATE[args.command](args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(json.dumps(out, indent=2))
        return 0

    if args.command == "verify":
        cfg = load_config(args.config) if args.config else default_config()
        report = run_suite(cfg)
        paths = write_report(report, args.out_dir)
        npass = sum(1 for r in report.rows if r.verdict == "PASS")
        nfail = sum(1 for r in report.rows if r.verdict == "FAIL")
        nerror = sum(1 for r in report.rows if r.verdict == "ERROR")
        print(f"{npass} PASS, {nfail} FAIL, {nerror} ERROR, {len(report.rows)} rows -> {paths['json']}")
        for row in report.rows:
            if row.verdict in ("FAIL", "ERROR"):
                print(f"{row.verdict} {row.case_id}/{row.quantity}: value={row.value} bound={row.bound} ({row.detail})")
        return report.exit_code()

    if args.command == "report":
        with open(args.infile, "r", encoding="utf-8") as fh:
            body = json.load(fh)
        rows = body["rows"]
        header = ["case_id", "quantity", "value", "bound", "margin", "verdict"]
        widths = [max(len(str(r[k])) for r in rows + [{k: k}]) for k in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(r[k])[:w].ljust(w) for k, w in zip(header, widths)))
        if args.csv:
            report = VerificationReport([ReportRow(**r) for r in rows], body["metadata"])
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
        return 0

    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
