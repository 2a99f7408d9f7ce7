"""Soliton energies, scaling laws, reduced landscape, concentration points."""

import math

import numpy as np
import pytest

from hartree_lab import potentials as pots
from hartree_lab import radial_core as rc
from hartree_lab import semiclassical as sc
from hartree_lab.ground_state import rescale_state

from _reference import interaction_integral_double, interaction_of_values

EPS_LIST = (0.2, 0.1, 0.05, 0.025)


def constant_potential(dim, mu):
    return sc.PotentialField(dim, lambda pts, mu=mu: np.full(pts.shape[0], mu))


@pytest.fixture(scope="module")
def Vquad():
    value, grad = pots.quadratic(3, 1.0)
    return sc.PotentialField(3, value, grad)


@pytest.fixture(scope="module")
def Vdw():
    value, grad = pots.double_well(3, 1.0, 0.5)
    return sc.PotentialField(3, value, grad)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_shell_rule_weights(n):
    shells = sc.shell_quadrature(n, degree=20)
    area = rc.sphere_area(n)
    assert np.all(shells.weights > 0.0)
    assert float(np.sum(shells.weights)) == pytest.approx(area, rel=1e-12)
    assert np.allclose(np.linalg.norm(shells.directions, axis=1), 1.0)


def test_shell_center_dimension_guard(gs3, Vdw):
    with pytest.raises(ValueError, match="3 entries"):
        sc.soliton_energy(gs3, Vdw, 0.1, np.zeros(4))


def test_energy_at_zero_potential_is_ground_energy(gs3):
    V0 = constant_potential(3, 0.0)
    f0 = sc.soliton_energy(gs3, V0, 0.1, [0.0, 0.0, 0.0])
    assert f0 == pytest.approx(gs3.energy, rel=1e-10)


def test_constant_potential_exactness(gs3):
    C1 = sc.leading_coefficient(gs3)
    for mu in (0.3, -0.2):
        V = constant_potential(3, mu)
        f = sc.soliton_energy(gs3, V, 0.05, [0.4, -0.1, 0.2])
        assert f == pytest.approx(C1 * (1.0 + mu) ** 1.5, rel=1e-6)


def test_gradient_proxy_vanishes_for_constant_V(gs3):
    V = constant_potential(3, 0.2)
    assert sc.gradient_bound_proxy(gs3, V, 0.1, [0.3, 0.0, 0.0]) < 1e-14


def test_proxy_exponent_at_critical_point(gs3, Vquad):
    vals = [sc.gradient_bound_proxy(gs3, Vquad, e, [0, 0, 0]) for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 1.9 <= slope <= 2.1


def test_proxy_exponent_noncritical(gs3):
    value, grad = pots.quadratic(3, 1.0, center=[1.0, 0.0, 0.0])
    V = sc.PotentialField(3, value, grad)
    vals = [sc.gradient_bound_proxy(gs3, V, e, [0, 0, 0]) for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 0.9 <= slope <= 1.1


def test_gamma_exponent_at_quadratic_minimum(gs3, Vquad):
    vals = [sc.gamma_leading(gs3, Vquad, e, [0, 0, 0]) for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 1.9 <= slope <= 2.1


def test_gamma_vanishes_for_odd_and_constant(gs3):
    Vlin = sc.PotentialField(3, pots.compile_expression("x1 - 2*x2", 3))
    for eps in (0.1, 0.05):
        assert abs(sc.gamma_leading(gs3, Vlin, eps, [0.3, 0.1, 0.0])) < 1e-12
    Vc = constant_potential(3, 0.7)
    assert sc.gamma_leading(gs3, Vc, 0.1, [0.0, 0.0, 0.0]) == 0.0


def test_energy_gap_scaling(gs3, Vdw):
    # f_eps(z_xi) approaches the leading term at rate at least eps
    xi = np.array([0.6, 0.2, -0.1])
    report = sc.semiclassical_sweep(gs3, Vdw, xi, list(EPS_LIST))
    gaps = [row.energy_gap for row in report.rows]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, gaps)
    assert slope >= 1.0


def test_sweep_evaluates_V_once_per_eps(gs3, Vdw):
    # per eps: V(eps xi) and one pass over the N x M shell cloud
    points = []

    def counted(pts):
        points.append(pts.shape[0])
        return Vdw.evaluate(pts)

    V = sc.PotentialField(3, counted, Vdw.gradient)
    sc.semiclassical_sweep(gs3, V, [0.3, -0.2, 0.1], list(EPS_LIST), degree=20)
    cloud = gs3.grid.size * sc.shell_quadrature(3, 20).weights.size
    assert sum(points) == len(EPS_LIST) * (cloud + 1)


def test_sweep_rows_match_single_quantities(gs3, Vdw):
    xi = np.array([0.6, 0.2, -0.1])
    report = sc.semiclassical_sweep(gs3, Vdw, xi, list(EPS_LIST))
    for row in report.rows:
        eps = row.eps
        assert row.energy == pytest.approx(
            sc.soliton_energy(gs3, Vdw, eps, xi), rel=1e-12)
        assert row.gradient_proxy == pytest.approx(
            sc.gradient_bound_proxy(gs3, Vdw, eps, xi), rel=1e-12)
        assert row.gamma_half == pytest.approx(
            sc.gamma_leading(gs3, Vdw, eps, xi), rel=1e-12)


def test_translation_covariance(gs3, Vdw):
    a = np.array([0.4, -0.3, 0.2])
    eps = 0.1
    xi = np.array([0.7, 0.1, 0.0])
    shifted = sc.PotentialField(
        3, lambda p: Vdw.evaluate(p + a), lambda p: Vdw.gradient(p + a)
    )
    e1 = sc.soliton_energy(gs3, Vdw, eps, xi)
    e2 = sc.soliton_energy(gs3, shifted, eps, xi - a / eps)
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_shell_degree_refinement(gs3):
    # quartic potential: degree-20 rule already exact, refinement is inert
    V = sc.PotentialField(3, pots.compile_expression("x1^4 + x2^2*x3^2", 3))
    xi = np.array([0.3, 0.2, 0.1])
    e20 = sc.soliton_energy(gs3, V, 0.1, xi, sc.shell_quadrature(3, 20))
    e28 = sc.soliton_energy(gs3, V, 0.1, xi, sc.shell_quadrature(3, 28))
    assert e28 == pytest.approx(e20, rel=1e-8)
    # and the built-in check passes quietly
    sc.soliton_energy(gs3, V, 0.1, xi, check_degree=True)


def test_shell_degree_too_low_detected(gs3):
    V = sc.PotentialField(3, pots.compile_expression("cos(30*x1)*cos(30*x2)", 3))
    xi = np.array([0.2, 0.1, 0.0])
    coarse = sc.shell_quadrature(3, degree=4)
    with pytest.raises(ValueError, match="degree 4 too low"):
        sc.soliton_energy(gs3, V, 1.0, xi, coarse, check_degree=True)


def test_constant_C0_routes_and_positivity(gs3):
    c0 = sc.constant_C0(gs3)
    assert c0 > 0.0
    pair = interaction_of_values(gs3.grid, gs3.profile.values)
    assert pair == pytest.approx(interaction_integral_double(gs3), rel=1e-9)
    assert c0 == pytest.approx(4.0 * math.pi * pair, rel=1e-12)


def test_C0_scaling_under_rescale(gs3):
    # int (I2*z^2) z^2 = (1+mu)^(3-n/2) int (I2*U^2) U^2
    mu = 0.3
    z = rescale_state(gs3, mu)
    base = interaction_of_values(gs3.grid, gs3.profile.values)
    scaled = interaction_of_values(gs3.grid, z.values)
    assert scaled == pytest.approx((1.0 + mu) ** 1.5 * base, rel=1e-6)


def test_leading_coefficient_equals_energy(gs3):
    # by the virial identities C1 = F(U)
    assert sc.leading_coefficient(gs3) == pytest.approx(gs3.energy, rel=1e-9)


def test_reduced_energy_monotone_in_V(gs3):
    # 3 - n/2 > 0: h is increasing in V
    V = constant_potential(3, 0.0)
    lo = sc.reduced_energy(gs3, constant_potential(3, -0.3), [0, 0, 0])
    mid = sc.reduced_energy(gs3, V, [0, 0, 0])
    hi = sc.reduced_energy(gs3, constant_potential(3, 0.5), [0, 0, 0])
    assert lo < mid < hi


def test_argmax_invariance(gs3, Vdw):
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2.0, 2.0, size=(10_000, 3))
    v_vals = Vdw.evaluate(pts)
    C1 = sc.leading_coefficient(gs3)
    h_vals = C1 * (1.0 + v_vals) ** 1.5
    assert int(np.argmin(v_vals)) == int(np.argmin(h_vals))
    assert int(np.argmax(v_vals)) == int(np.argmax(h_vals))


def test_predict_quadratic_minimum(gs3, Vquad):
    cps = sc.predict_concentration(Vquad, [(-1.5, 1.5)] * 3, 0.1, gs3, n_starts=24)
    assert len(cps) == 1
    assert np.linalg.norm(cps[0].location) < 1e-8
    assert cps[0].kind == "minimum"


def test_predict_double_well(gs3, Vdw):
    cps = sc.predict_concentration(Vdw, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60)
    assert len(cps) == 3
    kinds = sorted(cp.kind for cp in cps)
    assert kinds == ["minimum", "minimum", "saddle"]
    locs = sorted(np.round(cp.location[0], 8) for cp in cps)
    assert locs == [-1.0, 0.0, 1.0]
    # h ordering follows the V ordering (3 - n/2 > 0)
    assert cps[0].v_value <= cps[-1].v_value
    assert cps[0].h_value <= cps[-1].h_value


def test_predict_ring_manifold(gs3):
    value, grad = pots.ring(3, 1.0, 1.0, 1.0)
    V = sc.PotentialField(3, value, grad)
    cps = sc.predict_concentration(
        V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60, dedupe_dist=1e-3
    )
    ring_pts = [cp for cp in cps if cp.kind == "degenerate"]
    assert len(ring_pts) >= 5
    for cp in ring_pts:
        assert math.hypot(cp.location[0], cp.location[1]) == pytest.approx(
            1.0, abs=1e-7
        )
        assert abs(cp.location[2]) < 1e-7
        assert cp.grad_norm < 1e-9


def test_search_batches_derivative_calls(gs3, Vdw):
    # one batched gradient call per Newton iteration, on all live starts
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return Vdw.gradient(pts)

    V = sc.PotentialField(3, Vdw.evaluate, counted)
    cps = sc.predict_concentration(V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=80)
    assert len(cps) == 3
    assert len(calls) < 400


def test_one_proxy_per_critical_set(gs3, monkeypatch):
    calls = []
    moments = sc._soliton_moments

    def counted(*args):
        calls.append(args[3])
        return moments(*args)

    monkeypatch.setattr(sc, "_soliton_moments", counted)
    value, grad = pots.ring(3, 1.0, 1.0, 1.0)
    V = sc.PotentialField(3, value, grad)
    cps = sc.predict_concentration(
        V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60, dedupe_dist=1e-3
    )
    ring_pts = [cp for cp in cps if cp.kind == "degenerate"]
    assert len(ring_pts) >= 5
    reps = [cp for cp in cps if cp.gradient_proxy is not None]
    # the circle is one set; the origin, if found, is another
    assert len(calls) == len(reps) == 1 + (len(cps) > len(ring_pts))
    assert sum(cp.gradient_proxy is not None for cp in ring_pts) == 1
    assert all(cp.gradient_proxy is not None for cp in cps if cp.kind != "degenerate")


@pytest.mark.parametrize("n", (3, 4, 5))
def test_predict_double_well_exact_points(ground_states, n):
    value, grad = pots.make_potential_functions("double_well:1.0,0.5", n)
    V = sc.PotentialField(n, value, grad)
    cps = sc.predict_concentration(
        V, [(-2.0, 2.0)] * n, 0.05, ground_states[n][0], n_starts=80, seed=0
    )
    e1 = np.eye(n)[0]
    expected = {-1.0: "minimum", 0.0: "saddle", 1.0: "minimum"}
    assert len(cps) == 3
    for cp in cps:
        x1 = float(np.round(cp.location[0]))
        assert np.max(np.abs(cp.location - x1 * e1)) < 1e-8
        assert cp.kind == expected.pop(x1)
        assert cp.gradient_proxy is not None


def test_predict_ring_manifold_n5(ground_states):
    value, grad = pots.ring(5, 1.0, 1.0, 1.0)
    V = sc.PotentialField(5, value, grad)
    cps = sc.predict_concentration(
        V, [(-2.0, 2.0)] * 5, 0.05, ground_states[5][0], n_starts=24
    )
    assert cps
    for cp in cps:
        if np.linalg.norm(cp.location) < 1e-8:
            assert cp.kind == "saddle"
            continue
        assert cp.kind == "degenerate"
        assert math.hypot(cp.location[0], cp.location[1]) == pytest.approx(1.0, abs=1e-7)
        assert np.max(np.abs(cp.location[2:])) < 1e-7


def test_condition_V_guard(gs3):
    V = constant_potential(3, -2.0)
    with pytest.raises(ValueError):
        V.lower_bound_check([(-1, 1)] * 3)
    with pytest.raises(ValueError):
        sc.predict_concentration(V, [(-1, 1)] * 3, 0.1, gs3, n_starts=4)
    with pytest.raises(ValueError):
        sc.soliton_energy(gs3, V, 0.1, [0, 0, 0])


def test_box_dimension_guard(gs3, Vquad):
    with pytest.raises(ValueError):
        sc.predict_concentration(Vquad, [(-1, 1)] * 2, 0.1, gs3)


def test_potential_field_exact_derivatives():
    value, grad = pots.double_well(3, 1.2, 0.7)
    V = sc.PotentialField(3, value)  # derivatives from the value's own tree
    x = np.array([0.37, -0.81, 0.12])
    closed = [4.0 * 1.2 * x[0] * (x[0] ** 2 - 1.0), 2.0 * 0.7 * x[1], 2.0 * 0.7 * x[2]]
    assert np.max(np.abs(V.gradient_at(x) - closed)) < 1e-14
    assert np.array_equal(V.gradient_at(x), sc.PotentialField(3, value, grad).gradient_at(x))
    H = V.hessian_at(np.array([1.0, 0.0, 0.0]))
    assert H[0, 0] == pytest.approx(8.0 * 1.2, rel=1e-14)


def test_fit_scaling_exponent_guards():
    with pytest.raises(ValueError):
        sc.fit_scaling_exponent([0.2, 0.1], [1.0, 0.0])
    slope, resid = sc.fit_scaling_exponent([0.2, 0.1, 0.05], [4e-2, 1e-2, 2.5e-3])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert resid < 1e-12


def test_sweep_requires_decreasing_eps(gs3, Vquad):
    with pytest.raises(ValueError):
        sc.semiclassical_sweep(gs3, Vquad, [0, 0, 0], [0.1, 0.2])


def test_sweep_report_text(gs3, Vdw):
    report = sc.semiclassical_sweep(gs3, Vdw, [0.5, 0.0, 0.0], [0.1, 0.05])
    text = report.to_text()
    assert "proxy exponent" in text
    assert len(report.rows) == 2
