"""External potentials: one expression tree with exact derivatives.

A potential is an expression in x1..xn with numbers, + - * / ^, unary
minus, exp and cos, parsed by Python's ``ast`` (``^`` read as ``**``, so
``-x1^2`` is ``-(x1^2)``) against that whitelist.  Gradient and Hessian are
trees differentiated from the value's tree, and one walk over the same tree
bounds the polynomial degree of V, which sets the shell rule semiclassical
needs.  Catalog entries, ``name`` or ``name:p1,p2,...``, are templates that
write their parameters into one.
"""

from __future__ import annotations

import ast
import inspect
import operator
from typing import Callable, Optional, Sequence

import numpy as np


class ExpressionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing: ast -> tuple tree
# ---------------------------------------------------------------------------
# Nodes: ("num", v), ("var", i), ("neg", a), (f, a) for f in exp, cos and
# the derivative-only sin, log, and (op, a, b) for op in + - * / ^.

_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _parse(text: str, dim: int) -> tuple:
    if "**" in text:
        raise ExpressionError("powers are written ^, not **")
    try:
        return _convert(ast.parse(text.replace("^", "**"), mode="eval").body, dim)
    except (SyntaxError, OverflowError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}") from exc


def _convert(node: ast.AST, dim: int) -> tuple:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return _num(node.value)
    elif isinstance(node, ast.Name) and node.id[:1] == "x" and node.id[1:].isdigit():
        idx = int(node.id[1:])
        if not 1 <= idx <= dim:
            raise ExpressionError(f"variable {node.id} out of range for dimension {dim}")
        return ("var", idx - 1)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _convert(node.left, dim), _convert(node.right, dim))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _neg(_convert(node.operand, dim))
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in ("exp", "cos") and len(node.args) == 1 and not node.keywords):
        return (node.func.id, _convert(node.args[0], dim))
    raise ExpressionError(f"{ast.unparse(node)!r} is not allowed in an expression")


# ---------------------------------------------------------------------------
# evaluation and differentiation
# ---------------------------------------------------------------------------

_UNARY = {"neg": operator.neg, "exp": np.exp, "cos": np.cos, "sin": np.sin, "log": np.log}
_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": np.power}
# integer exponents evaluated as repeated products, like numpy's x**2
_SMALL_POWERS = {float(p): p for p in range(1, 9)}


def _eval_node(node: tuple, pts: np.ndarray):
    """Value on (M, n) points: an (M,) array, or a scalar if constant."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return pts[:, node[1]]
    if len(node) == 2:
        return _UNARY[op](_eval_node(node[1], pts))
    a = _eval_node(node[1], pts)
    b = node[2]
    if op == "^" and b[0] == "num" and b[1] in _SMALL_POWERS:
        out = a
        for _ in range(_SMALL_POWERS[b[1]] - 1):
            out = out * a
        return out
    return _BINARY_OPS[op](a, _eval_node(b, pts))


# Tree builders.  The parser uses only _num and _neg, which are exact; the
# folds of _add, _mul and _div against 0 and 1 build derivative trees.

def _num(v) -> tuple:
    # numpy scalars keep IEEE semantics (1/0 -> inf) in constant subtrees
    return ("num", np.float64(v))


def _is(node: tuple, v: float) -> bool:
    return node[0] == "num" and node[1] == v


def _neg(a):
    return _num(-a[1]) if a[0] == "num" else ("neg", a)


def _add(a, b):
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return ("-", a, b[1]) if b[0] == "neg" else ("+", a, b)


def _mul(a, b):
    # constant factors are gathered in front, so a derivative costs one
    # multiplication per constant product rather than one per rule applied
    if b[0] == "num":
        a, b = b, a
    if a[0] == "num":
        if b[0] == "num":
            return _num(a[1] * b[1])
        if a[1] == 0.0:
            return a
        if b[0] == "*" and b[1][0] == "num":
            return _mul(_num(a[1] * b[1][1]), b[2])
        return b if a[1] == 1.0 else ("*", a, b)
    if a[0] == "*" and a[1][0] == "num":
        return _mul(a[1], _mul(a[2], b))
    if b[0] == "*" and b[1][0] == "num":
        return _mul(b[1], _mul(a, b[2]))
    return ("*", a, b)


def _div(a, b):
    return a if _is(a, 0.0) or _is(b, 1.0) else ("/", a, b)


def _pow(a, p: float):
    return _num(1.0) if p == 0.0 else a if p == 1.0 else ("^", a, _num(p))


def _diff(node: tuple, i: int) -> tuple:
    """d node / d x_(i+1) as a tree."""
    op = node[0]
    if op == "num":
        return _num(0.0)
    if op == "var":
        return _num(1.0 if node[1] == i else 0.0)
    a = node[1]
    da = _diff(a, i)
    if len(node) == 2:  # chain rule: f(a)' = f'(a) a'
        outer = {"neg": _num(-1.0), "exp": node, "cos": _neg(("sin", a)),
                 "sin": ("cos", a), "log": ("/", _num(1.0), a)}[op]
        return _mul(outer, da)
    b = node[2]
    if op == "^":
        if b[0] == "num":
            return _mul(_mul(b, _pow(a, b[1] - 1.0)), da)
        # d a^b = a^b (b' log a + b a' / a)
        return _mul(node, _add(_mul(_diff(b, i), ("log", a)), _div(_mul(b, da), a)))
    db = _diff(b, i)
    if op == "+":
        return _add(da, db)
    if op == "-":
        return _add(da, _neg(db))
    if op == "*":
        return _add(_mul(da, b), _mul(a, db))
    return _add(_div(da, b), _neg(_div(_mul(a, db), _mul(b, b))))


def _degree(node: tuple) -> Optional[int]:
    """Upper bound on the polynomial degree of a tree; None when the tree
    is not a polynomial (or not recognizably one)."""
    op = node[0]
    if op == "num":
        return 0
    if op == "var":
        return 1
    a = _degree(node[1])
    if len(node) == 2:  # neg keeps the degree; exp and cos only of constants
        return a if op == "neg" else 0 if a == 0 else None
    b = node[2]
    if op == "^":  # a non-negative integer constant exponent multiplies
        p = float(b[1]) if b[0] == "num" else -1.0
        if a is None or p < 0.0 or not p.is_integer():
            return None
        return a * int(p)
    b = _degree(b)
    if a is None or b is None:
        return None
    if op in "+-":
        return max(a, b)
    if op == "*":
        return a + b
    return a if b == 0 else None


def _points(pts) -> np.ndarray:
    return np.atleast_2d(np.asarray(pts, dtype=float))


def compile_expression(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x1..x<dim> to a vectorized callable of
    (M, dim) points with (M,) values.  Its attributes ``gradient`` and
    ``hessian`` return the exact (M, dim) gradients and (M, dim, dim)
    Hessians; the Hessian is built from its nonzero i <= j entries, so it
    is symmetric by construction.  ``degree`` is an upper bound on the
    polynomial degree of the expression, or None if it is not a
    polynomial."""
    tree = _parse(text, dim)
    first = [_diff(tree, i) for i in range(dim)]
    second = [(i, j, node) for i in range(dim) for j in range(i, dim)
              if not _is(node := _diff(first[i], j), 0.0)]

    def value(pts):
        pts = _points(pts)
        out = _eval_node(tree, pts)
        return out if np.ndim(out) else np.full(pts.shape[0], out)

    def gradient(pts):
        pts = _points(pts)
        out = np.empty((pts.shape[0], dim))
        for i, node in enumerate(first):
            out[:, i] = _eval_node(node, pts)
        return out

    def hessian(pts):
        pts = _points(pts)
        out = np.zeros((pts.shape[0], dim, dim))
        for i, j, node in second:
            out[:, i, j] = out[:, j, i] = _eval_node(node, pts)
        return out

    value.gradient = gradient
    value.hessian = hessian
    value.degree = _degree(tree)
    return value


# ---------------------------------------------------------------------------
# catalog: expression templates
# ---------------------------------------------------------------------------

def _template(text: str, dim: int, *params):
    """(value, gradient) of text with its {} fields set to repr(float(p))."""
    value = compile_expression(text.format(*(repr(float(p)) for p in params)), dim)
    return value, value.gradient


def _squares(first: int, dim: int) -> str:
    return " + ".join(f"x{k}^2" for k in range(first, dim + 1)) or "0.0"


def quadratic(dim: int, curvature: float = 1.0, center: Optional[Sequence[float]] = None):
    """V(x) = curvature * |x - center|^2; a scalar center is broadcast."""
    c = np.broadcast_to(np.asarray(0.0 if center is None else center, dtype=float), (dim,))
    terms = " + ".join(f"(x{k} - {{}})^2" for k in range(1, dim + 1))
    return _template("{}*(" + terms + ")", dim, curvature, *c)


def double_well(dim: int, a: float = 1.0, b: float = 1.0):
    """V(x) = a (x1^2 - 1)^2 + b sum_{i>=2} x_i^2: two minima at x1 = +-1
    and a saddle at the origin."""
    return _template("{}*(x1^2 - 1.0)^2 + {}*(" + _squares(2, dim) + ")", dim, a, b)


def ring(dim: int, radius: float = 1.0, a: float = 1.0, b: float = 1.0):
    """V(x) = a (x1^2 + x2^2 - radius^2)^2 + b sum_{i>=3} x_i^2: a
    nondegenerate critical circle of minima plus a critical point on the
    axis."""
    if dim < 2:
        raise ValueError("ring potential needs dimension >= 2")
    return _template("{}*(x1^2 + x2^2 - {})^2 + {}*(" + _squares(3, dim) + ")", dim,
                     a, float(radius) ** 2, b)


CATALOG = {"quadratic": quadratic, "double_well": double_well, "ring": ring}


def make_potential_functions(spec: str, dim: int):
    """Resolve a potential spec string to (value, gradient).

    ``name`` or ``name:p1,p2,...`` selects a catalog template; anything else
    is compiled as an expression over x1..xn.  Either way the value carries
    the exact ``gradient`` and ``hessian`` of its expression tree.
    """
    text = spec.strip()
    head, _, rest = text.partition(":")
    name = head.strip()
    if name in CATALOG:
        params = [float(tok) for tok in rest.split(",") if tok.strip()]
        most = len(inspect.signature(CATALOG[name]).parameters) - 1
        if len(params) > most:
            raise ValueError(f"catalog potential {name!r} takes at most {most} "
                             f"parameters, got {len(params)}")
        return CATALOG[name](dim, *params)
    value = compile_expression(text, dim)
    return value, value.gradient
