"""Potential catalog, the expression language and its exact derivatives."""

import functools

import numpy as np
import pytest

from hartree_lab import potentials as pots
from hartree_lab import semiclassical as sc


def ev(expr, dim, pts):
    return pots.compile_expression(expr, dim)(np.atleast_2d(pts))


def test_arithmetic_and_precedence():
    pts = np.zeros((1, 3))
    assert ev("2+3*4^2", 3, pts)[0] == pytest.approx(50.0)
    assert ev("2*3-4/2", 3, pts)[0] == pytest.approx(4.0)
    assert ev("2^3^1", 3, pts)[0] == pytest.approx(8.0)
    assert ev("-(2+1)", 3, pts)[0] == pytest.approx(-3.0)


def test_unary_minus_binds_below_power():
    # -x1^2 parses as -(x1^2)
    pts = np.array([[2.0, 0.0, 0.0]])
    assert ev("-x1^2", 3, pts)[0] == pytest.approx(-4.0)


def test_variables_and_functions():
    pts = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]])
    got = ev("exp(-x1)*cos(x2) + x3/2", 3, pts)
    ref = np.exp(-pts[:, 0]) * np.cos(pts[:, 1]) + pts[:, 2] / 2.0
    assert np.allclose(got, ref, rtol=1e-14)


def test_nested_parentheses():
    pts = np.array([[1.0, 2.0, 3.0]])
    got = ev("(x1 + (x2 - x3)) * (x1 + 1)", 3, pts)
    assert got[0] == pytest.approx((1.0 + (2.0 - 3.0)) * 2.0)


def test_parser_errors():
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("sin(x1)", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("x5", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("x1 +", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("(x1", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("x1 $ 2", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("x1 x2", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("x1**2", 3)
    with pytest.raises(pots.ExpressionError):
        pots.compile_expression("+x1", 3)


def _fd_gradient(value, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (value(x[None, :] + e) - value(x[None, :] - e))[0] / (2 * h)
    return g


@pytest.mark.parametrize(
    "name,params",
    [("quadratic", (2.0,)), ("double_well", (1.3, 0.8)), ("ring", (1.2, 0.9, 1.1))],
)
def test_catalog_gradients(name, params):
    value, grad = pots.CATALOG[name](3, *params)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=3)
        assert np.max(np.abs(grad(x[None, :])[0] - _fd_gradient(value, x))) < 1e-6


def test_make_potential_dispatch():
    value, grad = pots.make_potential_functions("quadratic:2.0", 3)
    assert grad is not None
    pts = np.array([[1.0, 1.0, 1.0]])
    assert value(pts)[0] == pytest.approx(6.0)
    value2, grad2 = pots.make_potential_functions("x1^2 + x2^2", 3)
    assert value2(pts)[0] == pytest.approx(2.0)
    assert np.array_equal(grad2(pts), [[2.0, 2.0, 0.0]])


def test_catalog_rejects_extra_parameters():
    with pytest.raises(ValueError, match="'quadratic' takes at most 2 parameters, got 4"):
        pots.make_potential_functions("quadratic:1,2,3,4", 3)
    with pytest.raises(ValueError, match="'ring' takes at most 3 parameters, got 4"):
        pots.make_potential_functions("ring:1,1,1,1", 3)


@pytest.mark.parametrize("spec, degree", [
    ("double_well", 4), ("ring", 4), ("quadratic", 2),
    ("(x1^2+1)^3", 6), ("x1*x2^2 - x3", 3), ("x1/2", 1), ("exp(1)*x1", 1),
    ("x1/x2", None), ("x1^0.5", None), ("exp(-x2^2)*cos(x3) + x1^2", None),
])
def test_polynomial_degree(spec, degree):
    value, _ = pots.make_potential_functions(spec, 3)
    assert value.degree == degree


def test_double_well_critical_structure():
    value, grad = pots.double_well(3, 1.0, 1.0)
    for x in ([1.0, 0, 0], [-1.0, 0, 0], [0.0, 0, 0]):
        assert np.max(np.abs(grad(np.array([x], dtype=float)))) < 1e-14
    assert value(np.array([[0.0, 0, 0]]))[0] == pytest.approx(1.0)


def test_ring_requires_two_dims():
    with pytest.raises(ValueError):
        pots.ring(1)


# closed forms of the catalog as hand-written value and gradient functions,
# the reference the expression templates must reproduce

def _closed_quadratic(dim, curvature=1.0, center=None):
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    return (lambda p: curvature * np.sum((p - c) ** 2, axis=1),
            lambda p: 2.0 * curvature * (p - c))


def _closed_double_well(dim, a=1.0, b=1.0):
    def grad(p):
        g = np.empty_like(p)
        g[:, 0] = 4.0 * a * p[:, 0] * (p[:, 0] ** 2 - 1.0)
        g[:, 1:] = 2.0 * b * p[:, 1:]
        return g

    return (lambda p: a * (p[:, 0] ** 2 - 1.0) ** 2 + b * np.sum(p[:, 1:] ** 2, axis=1),
            grad)


def _closed_ring(dim, radius=1.0, a=1.0, b=1.0):
    def s(p):
        return p[:, 0] ** 2 + p[:, 1] ** 2 - radius**2

    def grad(p):
        g = np.empty_like(p)
        g[:, :2] = 4.0 * a * s(p)[:, None] * p[:, :2]
        g[:, 2:] = 2.0 * b * p[:, 2:]
        return g

    return lambda p: a * s(p) ** 2 + b * np.sum(p[:, 2:] ** 2, axis=1), grad


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_catalog_matches_closed_forms(dim):
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-2.0, 2.0, (200_000, dim))
    centre = rng.uniform(-1.0, 1.0, dim)
    cases = [
        (pots.quadratic(dim, 2.0), _closed_quadratic(dim, 2.0)),
        (pots.quadratic(dim, 1.3, center=centre), _closed_quadratic(dim, 1.3, centre)),
        (pots.make_potential_functions("quadratic:1,2", dim), _closed_quadratic(dim, 1.0, 2.0)),
        (pots.double_well(dim), _closed_double_well(dim)),
        (pots.double_well(dim, 1.3, 0.8), _closed_double_well(dim, 1.3, 0.8)),
        (pots.ring(dim), _closed_ring(dim)),
        (pots.ring(dim, 1.2, 0.9, 1.1), _closed_ring(dim, 1.2, 0.9, 1.1)),
    ]
    for (value, grad), (ref_value, ref_grad) in cases:
        ref = ref_value(pts)
        assert np.all(np.abs(value(pts) - ref) <= 1e-15 * np.abs(ref))
        ref = ref_grad(pts)
        assert np.all(np.abs(grad(pts) - ref) <= 1e-15 * np.abs(ref))


def test_exact_gradient_and_hessian():
    # covers exp, cos, division, the general ^ and the integer ^
    value = pots.compile_expression("exp(-x1)*cos(x2) + x3/(1+x1^2) + 2^x2 - x1^3", 3)
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, (50, 3))
    x1, x2, x3 = pts.T
    e, c, s, q = np.exp(-x1), np.cos(x2), np.sin(x2), 1.0 + x1**2
    p, ln2 = 2.0**x2, np.log(2.0)
    grad = np.stack([-e * c - 2.0 * x1 * x3 / q**2 - 3.0 * x1**2, -e * s + p * ln2, 1.0 / q],
                    axis=1)
    zero = np.zeros_like(x1)
    hess = np.stack([
        np.stack([e * c - 2.0 * x3 / q**2 + 8.0 * x1**2 * x3 / q**3 - 6.0 * x1, e * s,
                  -2.0 * x1 / q**2], axis=1),
        np.stack([e * s, -e * c + p * ln2**2, zero], axis=1),
        np.stack([-2.0 * x1 / q**2, zero, zero], axis=1),
    ], axis=1)
    got = value.gradient(pts)
    assert np.all(np.abs(got - grad) <= 1e-13 * np.maximum(1.0, np.abs(grad)))
    got = value.hessian(pts)
    assert np.all(np.abs(got - hess) <= 1e-13 * np.maximum(1.0, np.abs(hess)))
    assert np.array_equal(got, np.swapaxes(got, 1, 2))


def test_wrapped_value_keeps_exact_derivatives():
    value, _ = pots.double_well(3, 1.2, 0.7)

    @functools.wraps(value)
    def timed(pts):
        return value(pts)

    V = sc.PotentialField(3, timed)
    x = np.array([1.0, 0.0, 0.0])
    assert V.hessians(x[None])[0][0, 0] == pytest.approx(8.0 * 1.2, rel=1e-14)
    assert np.array_equal(V.gradient_at([1.0, 0.5, 0.0]), [0.0, 0.7, 0.0])


def test_plain_callable_has_no_derivatives():
    V = sc.PotentialField(3, lambda pts: np.sum(pts**2, axis=1))
    with pytest.raises(ValueError, match="no exact gradient"):
        V.gradient_at([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="no exact hessian"):
        V.hessians(np.array([[0.1, 0.2, 0.3]]))
