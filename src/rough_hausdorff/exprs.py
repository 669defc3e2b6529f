"""Small arithmetic expression grammar for config-defined profiles.

Supported: + - * / unary minus, pow(x, a) or x**a, exp, cos, sin, abs,
indicator(a, b) (characteristic function of (a, b], applied to the sole
free variable; the explicit 3-argument form indicator(x, a, b) is also
accepted), and the constants pi, e, inf.  Everything compiles down to
vectorized numpy operations; no attribute access, no names outside the
whitelist.
"""

from __future__ import annotations

import ast
import math

import numpy as np


class ExpressionError(ValueError):
    """Raised when an expression uses syntax outside the grammar."""


_ALLOWED_FUNCS = {"exp", "cos", "sin", "abs", "pow", "indicator"}
_CONSTANTS = {"pi": math.pi, "e": math.e, "inf": math.inf}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def _indicator(x, a, b):
    x = np.asarray(x, dtype=float)
    return np.where((x > a) & (x <= b), 1.0, 0.0)


def _validate(tree: ast.AST, variables: tuple[str, ...], source: str) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"disallowed syntax {type(node).__name__!r} in {source!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ExpressionError(f"disallowed function call in {source!r}")
            if node.keywords:
                raise ExpressionError(f"keyword arguments not supported in {source!r}")
        if isinstance(node, ast.Name) and not isinstance(getattr(node, "ctx", None), ast.Load):
            raise ExpressionError(f"assignment not allowed in {source!r}")
        if isinstance(node, ast.Name):
            ok = node.id in variables or node.id in _CONSTANTS or node.id in _ALLOWED_FUNCS
            if not ok:
                raise ExpressionError(f"unknown name {node.id!r} in {source!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant in {source!r}")


class _IndicatorSugar(ast.NodeTransformer):
    """Rewrite 2-argument indicator(a, b) to indicator(<var>, a, b)."""

    def __init__(self, primary: str):
        self.primary = primary

    def visit_Call(self, node: ast.Call) -> ast.Call:
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "indicator":
            if len(node.args) == 2:
                node.args.insert(0, ast.Name(id=self.primary, ctx=ast.Load()))
            elif len(node.args) != 3:
                raise ExpressionError("indicator takes (a, b) or (x, a, b)")
        return node


def compile_expression(source: str, variables: tuple[str, ...]):
    """Compile ``source`` into a vectorized callable of ``variables`` (in order)."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc}") from exc
    _validate(tree, variables, source)
    tree = _IndicatorSugar(variables[0]).visit(tree)
    ast.fix_missing_locations(tree)
    code = compile(tree, f"<expr {source!r}>", "eval")
    namespace = {
        "exp": np.exp,
        "cos": np.cos,
        "sin": np.sin,
        "abs": np.abs,
        "pow": np.float_power,  # float base: pow(2, -20) is 2**-20
        "indicator": _indicator,
        **_CONSTANTS,
        "__builtins__": {},
    }

    def fn(*args):
        local = dict(zip(variables, (np.asarray(a, dtype=float) for a in args)))
        out = eval(code, namespace, local)
        return np.asarray(out, dtype=float) + np.zeros_like(local[variables[0]], dtype=float)

    fn.source = source
    return fn


def radial_expression(source: str):
    """Expression in the radial variable r (alias t accepted)."""
    if "t" in _names(source) and "r" not in _names(source):
        return compile_expression(source, ("t",))
    return compile_expression(source, ("r",))


def _names(source: str) -> set[str]:
    try:
        return {n.id for n in ast.walk(ast.parse(source, mode="eval")) if isinstance(n, ast.Name)}
    except SyntaxError:
        return set()


_SPHERE_VARIABLES = {1: ("s",), 2: ("theta",), 3: ("theta", "phi")}


def sphere_expression(source: str, dim: int):
    """Expression on the unit sphere, as a callable of batched unit vectors.

    Coordinates: dim 1 uses s = +-1 (the point itself), dim 2 uses the
    angle theta, dim 3 uses azimuth theta and polar angle phi (from +z).
    """
    if dim not in _SPHERE_VARIABLES:
        raise ExpressionError(f"unsupported dimension {dim}")
    raw = compile_expression(source, _SPHERE_VARIABLES[dim])

    def fn(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if dim == 1:
            return raw(pts[:, 0])
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        if dim == 2:
            return raw(theta)
        return raw(theta, np.arccos(np.clip(pts[:, 2], -1.0, 1.0)))

    fn.source = source
    return fn
