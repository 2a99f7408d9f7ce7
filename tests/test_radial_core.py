"""Grids, weighted quadrature, interpolation and moment matrices."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_lab import linearized_spectrum as lsp
from hartree_lab import radial_core as rc

from _reference import (
    basis_eval_masked,
    diff_matrices_out_of_place,
    exact_weight_spread,
    gauss_gegenbauer_scipy,
    head_moment_composite,
    head_moment_subrule,
    legendre_rule_recurrence,
    stiffness_out_of_place,
)

EPS = np.finfo(float).eps


def test_sphere_area_values():
    assert rc.sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert rc.sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert rc.sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        rc.sphere_area(1)


def _full_rule(m):
    """The recurrence reference on (-1, 1): both halves, ascending."""
    s, w = legendre_rule_recurrence(m)
    half = m // 2
    x = np.concatenate((-1.0 + 2.0 * s[:half], [0.0] * (m % 2), (1.0 - 2.0 * s[:half])[::-1]))
    return x, np.concatenate((w, w[:half][::-1]))


def _weight_bound(m):
    # four times the reference's own error, (m/4 + 1) eps relative
    # (tests/_reference.py), leaving the rule up to three times that
    return (m + 4) * EPS


@pytest.mark.parametrize("m", (1, 2, 3, 8, 17, 64, 200, 401, 408, 1000))
def test_legendre_rule_matches_recurrence_reference(m):
    x, w = rc.legendre_rule(m, -1.0, 1.0)
    x_ref, w_ref = _full_rule(m)
    assert np.max(np.abs(x - x_ref)) <= 1e-15
    assert np.max(np.abs(w - w_ref) / w_ref) <= _weight_bound(m)


def test_numpy_leggauss_misses_the_weight_bound():
    # the bound can fail: numpy's end weights are off by 5.7e-10 at m = 400
    m = 400
    x, w = np.polynomial.legendre.leggauss(m)
    x_ref, w_ref = _full_rule(m)
    assert np.max(np.abs(x - x_ref)) <= 1e-15
    assert np.max(np.abs(w - w_ref) / w_ref) > 1000 * _weight_bound(m)


@pytest.mark.parametrize("m", (1, 2, 3, 8, 17, 64, 200, 401, 408, 1000))
def test_legendre_rule_sum_symmetry_and_middle(m):
    x, w = rc.legendre_rule(m)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for a, b in ((-1.0, 1.0), (0.0, 20.0), (2.5, 3.0)):
        x, w = rc.legendre_rule(m, a, b)
        assert abs(float(np.sum(w)) - (b - a)) <= 1e-14 * (b - a)
        assert np.all(x > a) and np.all(x < b)
        if m % 2:
            assert x[m // 2] == 0.5 * (a + b)


def test_legendre_rule_broadcasts_over_intervals():
    a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0])
    t, q = rc.legendre_rule(8, a, b)
    assert t.shape == q.shape == (3, 8)
    for i in range(3):
        ti, qi = rc.legendre_rule(8, a[i], b[i])
        assert np.array_equal(t[i], ti) and np.array_equal(q[i], qi)


def test_first_grid_node_keeps_its_relative_accuracy():
    # measured from r = 0 as r_max sin^2(theta/2), the first n = 5 node
    # (r = 1.8e-4) is the recurrence reference's to rounding; the map
    # r_max (x + 1) / 2 of numpy's x loses 2.5e-12 of it to cancellation
    r_max, N = 20.0, 400
    r_ref = r_max * legendre_rule_recurrence(N)[0][0]
    assert abs(rc.build_grid(5, r_max, N).nodes[0] / r_ref - 1.0) <= 1e-15
    x = np.polynomial.legendre.leggauss(N)[0]
    assert abs(0.5 * r_max * (x[0] + 1.0) / r_ref - 1.0) > 1e-12


def test_legendre_rule_fails_fast(monkeypatch):
    # no Newton sweep allowed, or a weight-sum check no table can meet:
    # RuntimeError naming m, and nothing cached
    monkeypatch.setattr(rc, "_NEWTON_SWEEPS", 0)
    with pytest.raises(RuntimeError, match="m = 17: Newton"):
        rc._legendre_table.__wrapped__(17)
    monkeypatch.undo()
    monkeypatch.setattr(rc, "_WEIGHT_SUM_TOL", -1.0)
    with pytest.raises(RuntimeError, match="m = 17: weights sum"):
        rc._legendre_table.__wrapped__(17)


def test_sphere_product_rule_on_s2_is_gauss_legendre():
    # Gauss-Gegenbauer at alpha = 1/2 is Gauss-Legendre: polar cosine last,
    # polar index outer, as in the classical (theta, phi) product rule, so
    # the n = 3 multipole projection sees the same points as before
    degree = 12
    t, wt = rc.legendre_rule(degree // 2 + 1, -1.0, 1.0)
    phi = 2.0 * math.pi * np.arange(degree + 1) / (degree + 1)
    st = np.sqrt(1.0 - t**2)
    ref = np.stack([np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(),
                    np.repeat(t, phi.size)], axis=1)
    dirs, w = rc.sphere_product_rule(3, degree)
    assert np.array_equal(dirs, ref)
    assert np.array_equal(w, np.outer(wt, np.full(phi.size, 2.0 * math.pi / phi.size)).ravel())


@pytest.mark.parametrize("n", (4, 5))
def test_sphere_product_rule_integrates_polynomials(n):
    # exact up to its degree: |S^(n-1)| and the moments of x1^2 x_n^4
    dirs, w = rc.sphere_product_rule(n, 6)
    assert float(np.sum(w)) == pytest.approx(rc.sphere_area(n), rel=1e-14)
    # E[x1^2 xn^4] on the unit sphere = 1*3 / (n (n+2) (n+4))
    expected = 3.0 * rc.sphere_area(n) / (n * (n + 2) * (n + 4))
    assert float(np.dot(w, dirs[:, 0] ** 2 * dirs[:, -1] ** 4)) == pytest.approx(expected, rel=1e-13)
    assert abs(float(np.dot(w, dirs[:, 0] * dirs[:, 1] ** 2))) < 1e-14


def test_sphere_product_rule_checks_its_surface_measure(monkeypatch):
    # weights that do not sum to |S^(n-1)| are refused, uncached
    monkeypatch.setattr(rc, "sphere_area", lambda n: 1.0)
    with pytest.raises(RuntimeError, match="surface-measure"):
        rc.sphere_product_rule.__wrapped__(3, 4)


@pytest.mark.parametrize("alpha", (1.0, 1.5))
def test_gauss_gegenbauer_matches_scipy(alpha):
    # the polar rules of S^3 and S^4 at every size the shell degrees reach
    for m in range(1, 12):
        t, w = rc._gauss_gegenbauer(m, alpha)
        t_ref, w_ref = gauss_gegenbauer_scipy(m, alpha)
        assert np.max(np.abs(t - t_ref)) <= 1e-14, m
        assert np.max(np.abs(w - w_ref)) <= 1e-14, m


def test_grid_constant_integrand_gauss():
    g = rc.build_grid(3, 30.0, 200)
    val = rc.integrate_radial(g, rc.RadialFunction(g, np.ones(g.size)))
    assert val == pytest.approx(9000.0, rel=1e-9)

    g4 = rc.build_grid(4, 20.0, 128)
    val4 = rc.integrate_radial(g4, rc.RadialFunction(g4, np.ones(g4.size)))
    assert val4 == pytest.approx(40000.0, rel=1e-12)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_grid_invariants(n):
    g = rc.build_grid(n, 20.0, 96)
    assert g.size == 96
    assert np.all(g.nodes > 0.0) and np.all(g.nodes < 20.0)
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.all(g.weights > 0.0)
    # constant-integrand exactness
    total = float(np.sum(g.weights))
    assert total == pytest.approx(20.0**n / n, rel=1e-12)


def test_build_grid_errors():
    with pytest.raises(ValueError):
        rc.build_grid(6, 10.0, 64)
    with pytest.raises(ValueError):
        rc.build_grid(3, -1.0, 64)
    with pytest.raises(ValueError):
        rc.build_grid(3, 10.0, 8)


def test_integrate_radial_basics():
    g = rc.build_grid(3, 30.0, 200)
    zero = rc.RadialFunction(g, np.zeros(g.size))
    assert rc.integrate_radial(g, zero) == 0.0
    f = rc.RadialFunction(g, np.exp(-2.0 * g.nodes))
    assert rc.integrate_radial(g, f) == pytest.approx(0.25, rel=1e-8)
    # the weighted node sum over (0, r_max), nothing added beyond: for e^-r
    # it falls short of int_0^inf e^-r r^2 dr = 2 by Gamma(3, 10)
    g = rc.build_grid(3, 10.0, 96)
    f = rc.RadialFunction(g, np.exp(-g.nodes))
    assert rc.integrate_radial(g, f) == float(np.dot(g.weights, f.values))
    assert rc.integrate_radial(g, f) == pytest.approx(2.0 - 122.0 * math.exp(-10.0), rel=1e-12)


def test_integrate_radial_grid_mismatch():
    g1 = rc.build_grid(3, 30.0, 64)
    g2 = rc.build_grid(3, 25.0, 64)
    f = rc.RadialFunction(g1, np.ones(g1.size))
    with pytest.raises(ValueError):
        rc.integrate_radial(g2, f)


def test_integrate_radial_linearity():
    g = rc.build_grid(3, 30.0, 128)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal(g.size)
        b = rng.standard_normal(g.size)
        c1, c2 = rng.standard_normal(2)
        lhs = rc.integrate_radial(g, rc.RadialFunction(g, c1 * a + c2 * b))
        rhs = c1 * rc.integrate_radial(g, rc.RadialFunction(g, a)) + c2 * (
            rc.integrate_radial(g, rc.RadialFunction(g, b))
        )
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_quadrature_spectral_order():
    # for analytic integrands the mapped Gauss rule converges faster than
    # any power: doubling N must slash the error by far more than 2^2
    exact = quad(
        lambda r: math.cos(4.0 * r) * math.exp(-r) * r**2, 0.0, 30.0, limit=400
    )[0]

    def err(N):
        g = rc.build_grid(3, 30.0, N)
        f = rc.RadialFunction(g, np.cos(4.0 * g.nodes) * np.exp(-g.nodes))
        return abs(rc.integrate_radial(g, f) - exact)

    e32, e64 = err(32), err(64)
    assert e64 < e32 / 1e3


def test_radial_function_validation():
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(ValueError):
        rc.RadialFunction(g, np.ones(10))


def test_radial_function_evaluate():
    g = rc.build_grid(3, 30.0, 200)
    f = rc.RadialFunction(g, np.exp(-g.nodes))
    pts = np.array([0.0, 0.3, 7.7, 29.0])
    assert np.max(np.abs(f.evaluate(pts) - np.exp(-pts))) < 1e-11
    # the truncated problem: zero beyond r_max
    assert f.evaluate(31.0) == 0.0
    assert np.array_equal(f.evaluate(np.array([30.5, 35.0, 1e3])), np.zeros(3))


def test_differentiation_accuracy():
    g = rc.build_grid(3, 30.0, 300)
    d = rc.get_discretization(g)
    u = np.exp(-0.5 * g.nodes**2)
    du_exact = -g.nodes * u
    d2u_exact = (g.nodes**2 - 1.0) * u
    m = u.size
    _, D1, D2 = d.collocation()
    # the dirichlet space drops the pinned r_max node; the free interpolant
    # takes its own value there
    for cols, f in ((slice(m), u), (slice(None), np.append(u, d.basis_eval([g.r_max]) @ u))):
        assert np.max(np.abs(D1[:m, cols] @ f - du_exact)) < 1e-8
        assert np.max(np.abs(D2[:m, cols] @ f - d2u_exact)) < 1e-5


@pytest.mark.parametrize("n", (3, 4, 5))
def test_diff_matrices_bit_identical_to_out_of_place_formula(n):
    # built in place in three N x N arrays, with the same operations in the
    # same order as one new array per operation: the same bits
    d = rc.Discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200))
    x, D1, D2 = d.collocation()
    R1, R2 = diff_matrices_out_of_place(x, d._wb)
    assert np.array_equal(D1, R1) and np.array_equal(D2, R2)


def test_per_grid_arrays_are_read_only():
    # every later solve on the grid reads the kept ones (the nodes, -Laplacian,
    # H_(n-1), D1's last row and D1 until the stiffness), so no caller may
    # edit one; a pair built anew for a caller is read-only too
    g = rc.build_grid(3, rc.DEFAULT_R_MAX[3], 64)
    d = rc.Discretization(g)
    kept = (g.nodes, g.weights, d.neg_laplacian(), d.head_moment(), d.d1_last_row(),
            d._d1, *d.collocation(), d.d1(), d.d2())
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("N", (16, 200, 400, 500))
def test_barycentric_weights_match_exact_products(n, N):
    # against exact rational products on the stored nodes (the grid nodes
    # plus r_max), on the 10 nodes at each end and every 40th node.  The
    # capacity-scaled product measured 0.085 to 0.17 N eps over these cases
    # (48.8 to 54.2 eps at N = 400); the sum of N logarithms it replaced
    # measured 1.02 to 1.83 N eps and fails the bound in every case here
    x = rc.get_discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], N))._x
    m = x.size
    idx = sorted(set(range(10)) | set(range(m - 10, m)) | set(range(0, m, 40)))
    assert exact_weight_spread(x, rc._barycentric_weights(x), idx) <= 0.5 * N * EPS


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("N", (16, 200, 600))
def test_free_weights_are_dirichlet_weights_times_distance_to_r_max(n, N):
    # derived from the one weight set on the nodes plus r_max, against the
    # weights of the grid nodes alone, up to a common factor.  Both carry
    # the capacity-scaled product's error of about 0.1 N eps (measured at
    # most 0.35 N eps over n = 3, 4, 5 and N = 16 to 600)
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    got = rc.Discretization(g)._wb_free
    ref = rc._barycentric_weights(g.nodes)
    got = got * (np.dot(got, ref) / np.dot(got, got))
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= N * EPS


def test_one_weight_set_and_one_pair_per_grid(monkeypatch):
    # both interpolation spaces, every derivative and H_(n-1) come from one
    # _barycentric_weights call and one _diff_matrices build, in the order a
    # certificate reads them: -Laplacian, Robin row, then the stiffness, D1's
    # last per-grid reader.  The grid keeps no D2 and, after the stiffness,
    # no D1, so only a caller that reads the pair after it builds a second
    calls = []

    def counted(name):
        build = getattr(rc, name)

        def wrapper(*args):
            calls.append(name)
            return build(*args)

        return wrapper

    for name in ("_barycentric_weights", "_diff_matrices"):
        monkeypatch.setattr(rc, name, counted(name))
    d = rc.Discretization(rc.build_grid(3, rc.DEFAULT_R_MAX[3], 64))
    d.basis_eval([1.0, 2.0])
    d.head_moment()
    d.neg_laplacian()
    d.d1_last_row()
    d.stiffness()
    d.neg_laplacian()
    d.d1_last_row()
    assert calls == ["_barycentric_weights", "_diff_matrices"]
    assert d._d1 is None
    d.collocation()
    assert calls == ["_barycentric_weights", "_diff_matrices", "_diff_matrices"]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_basis_eval_matches_masked_reference(n):
    # same arithmetic in place: bit-identical, targets on nodes included
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200)
    d = rc.get_discretization(g)
    t = np.concatenate((np.linspace(0.0, g.r_max, 301), g.nodes[::9], [g.r_max]))
    assert np.array_equal(d.basis_eval(t), basis_eval_masked(d, t))


def test_moment_matrices_against_quad():
    g = rc.build_grid(3, 30.0, 200)
    d = rc.get_discretization(g)
    u = np.exp(-g.nodes) / (1.0 + g.nodes)
    i = 117
    r_i = g.nodes[i]

    def f(s):
        return math.exp(-s) / (1.0 + s)

    head = d.head_moment() @ u
    ref = quad(lambda s: s**2 * f(s), 0.0, r_i, limit=200)[0]
    assert head[i] == pytest.approx(ref, rel=1e-11)

    # the composite rule holds the degree N-1+p integrand at large N, p = n-1:
    # the input P_(N-1) + P_(N/2) on the mapped nodes, integrated by legint
    N, R, p = 512, 30.0, 2
    g = rc.build_grid(3, R, N)
    x = 2.0 * g.nodes / R - 1.0
    c = np.zeros(N)
    c[N - 1] = c[N // 2] = 1.0
    # rho^p = (R/2)^p (x+1)^p and d rho = (R/2) dx
    weight = np.polynomial.legendre.poly2leg([1.0, 1.0])
    integrand = c
    for _ in range(p):
        integrand = np.polynomial.legendre.legmul(integrand, weight)
    antider = np.polynomial.legendre.legint(integrand, lbnd=-1.0, scl=0.5 * R)
    ref = (0.5 * R) ** p * np.polynomial.legendre.legval(x, antider)
    head = rc.get_discretization(g).head_moment() @ np.polynomial.legendre.legval(x, c)
    assert np.max(np.abs(head - ref)) < 1e-9 * np.max(np.abs(ref))


def _row_relative(H, ref):
    return float(np.max(np.max(np.abs(H - ref), axis=1) / np.max(np.abs(ref), axis=1)))


@pytest.mark.parametrize("N", (200, 400))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_head_moment_matches_subrule_reference(n, N):
    # the Cauchy-form rows are the basis_eval rows of the same composite
    # rule, summed without the normalising pass.  The per-row rule is an
    # independent cross-check, 3.0e-12 row-relative away at n = 5, N = 400;
    # that gap is its own rounding: against legint's exact antiderivative of
    # P_(N-1) there it is off by 8e-11 relative, the composite rule by 9e-12
    d = rc.get_discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], N))
    H = d.head_moment()
    assert _row_relative(H, head_moment_composite(d, n - 1)) < 1e-13
    assert _row_relative(H, head_moment_subrule(d, n - 1)) < 1e-11


def test_head_moment_targets_strictly_inside_panels():
    # every composite target lies strictly inside its node interval, so no
    # target is a node and no Cauchy entry is infinite
    for n in rc.SUPPORTED_DIMS:
        for N in (16, 200, 400, 1000):
            x = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N).nodes
            t, q = rc._composite_rule(x)
            left = np.concatenate(([0.0], x[:-1]))
            assert t.shape == q.shape == (N, rc._PANEL_POINTS)
            assert np.all(t > left[:, None]) and np.all(t < x[:, None])
            assert np.all(np.diff(t, axis=1) > 0.0) and np.all(q > 0.0)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_head_moment_temporaries_stay_below_the_per_row_buffer(n):
    # the panels go through one reused block buffer: beyond H itself, the
    # peak traced allocation stays below the per-row rule's (2 m, N) Cauchy
    # buffer, m = floor((N+p)/2) + 1 (202 at n = 3)
    N = 400
    m = (N + n - 1) // 2 + 1
    d = rc.Discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], N))
    tracemalloc.start()
    try:
        H = d.head_moment()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - H.nbytes < 2 * m * N * 8


def test_stiffness_matches_collocation_form():
    # <f, -Lap g>_w agrees between the weak and collocation forms for
    # smooth decaying profiles.  At odd N the grid and the (N+8)-point rule
    # share the middle node r_max / 2, whose rule point takes that node's
    # D1 row; a derivative formula in 1 / (t - x_j) divides by zero there
    for n in (3, 4, 5):
        for N in (200, 201, 399):
            g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
            d = rc.get_discretization(g)
            S = d.stiffness()
            assert np.all(np.isfinite(S)), (n, N)
            f = np.exp(-g.nodes)
            h = g.nodes**2 * np.exp(-1.2 * g.nodes)
            colloc = float(np.dot(g.weights * f, d.neg_laplacian()[:-1, :-1] @ h))
            assert float(f @ (S @ h)) == pytest.approx(colloc, rel=1e-8), (n, N)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_stiffness_matches_out_of_place_formula(n):
    # both constructions are exact for exact barycentric weights.  The
    # computed weights carry a relative error delta of about 0.1 N eps
    # (test_barycentric_weights_match_exact_products), and each
    # construction moves S by about delta max|S|; the difference measured
    # 0.02 to 0.10 N eps max|S| at n = 3, 4, 5 and N = 64, 200.  Even N: no
    # rule point is a node
    for N in (64, 200):
        d = rc.Discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], N))
        R = stiffness_out_of_place(d)
        assert np.max(np.abs(d.stiffness() - R)) <= N * EPS * np.max(np.abs(R)), N


@pytest.mark.parametrize("n", (3, 4, 5))
def test_stiffness_peak_stays_below_four_derivative_arrays(n):
    # with the grid's cached tables warm, the peak traced allocation of a
    # stiffness build is two (N+8) x (N+1) arrays: the interpolation rows
    # E and the derivative rows E D1 (the out-of-place formula peaks at
    # five: d, c, L, L / d and 1 / d)
    N = 400
    d = rc.Discretization(rc.build_grid(n, rc.DEFAULT_R_MAX[n], N))
    rc.legendre_rule(N + 8)  # the cached table is not a temporary
    d.collocation()  # nor D1, which the grid keeps until the stiffness reads it
    tracemalloc.start()
    try:
        d.stiffness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (N + 8) * (N + 1) * 8


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stiffness_symmetric_by_construction(n):
    # S = Eq^T Eq and the sector operators' block S / (sqrt(w_i) sqrt(w_j))
    # are symmetric bit for bit
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 120)
    S = rc.get_discretization(g).stiffness()
    assert np.array_equal(S, S.T)
    keep, B = lsp._stiffness_block(g)
    assert np.array_equal(B, B.T)
    sw = np.sqrt(g.weights[keep])
    assert np.allclose(B * np.outer(sw, sw), S[np.ix_(keep, keep)], rtol=1e-13, atol=0.0)
