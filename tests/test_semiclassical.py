"""Soliton energies, scaling laws, reduced landscape, concentration points."""

import math

import numpy as np
import pytest

from hartree_lab import cli
from hartree_lab import potentials as pots
from hartree_lab import radial_core as rc
from hartree_lab import semiclassical as sc
from hartree_lab.ground_state import rescale_state, solve_ground_state

from _reference import (
    constant_C0,
    interaction_integral_double,
    interaction_of_values,
    newton_fixed_step_limit,
)

EPS_LIST = (0.2, 0.1, 0.05, 0.025)


def constant_potential(dim, mu):
    return sc.PotentialField(dim, lambda pts, mu=mu: np.full(pts.shape[0], mu))


def moments_on(gs, V, eps, xi, degree):
    """mu = V(eps xi) and the (value, diff, diff2) shell moments about eps xi
    on the product rule of the given degree."""
    xi = np.asarray(xi, dtype=float)
    mu = V.value(eps * xi)
    wz2 = gs.grid.weights * rescale_state(gs, mu).values ** 2
    rule = sc.shell_quadrature(gs.dim, degree)
    return mu, sc._cloud_moments(V, eps, xi, gs.grid.nodes, wz2, mu, rule)


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
    assert sc.soliton_row(gs3, V, 0.1, [0.3, 0.0, 0.0]).gradient_proxy < 1e-14


def test_proxy_exponent_at_critical_point(gs3, Vquad):
    vals = [sc.soliton_row(gs3, Vquad, e, [0, 0, 0]).gradient_proxy for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 1.9 <= slope <= 2.1


def test_proxy_exponent_noncritical(gs3):
    value, grad = pots.quadratic(3, 1.0, center=[1.0, 0.0, 0.0])
    V = sc.PotentialField(3, value, grad)
    vals = [sc.soliton_row(gs3, V, e, [0, 0, 0]).gradient_proxy for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 0.9 <= slope <= 1.1


def test_gamma_exponent_at_quadratic_minimum(gs3, Vquad):
    vals = [sc.soliton_row(gs3, Vquad, e, [0, 0, 0]).gamma_half for e in EPS_LIST]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, vals)
    assert 1.9 <= slope <= 2.1


def test_gamma_vanishes_for_odd_and_constant(gs3):
    Vlin = sc.PotentialField(3, pots.compile_expression("x1 - 2*x2", 3))
    for eps in (0.1, 0.05):
        assert abs(sc.soliton_row(gs3, Vlin, eps, [0.3, 0.1, 0.0]).gamma_half) < 1e-12
    Vc = constant_potential(3, 0.7)
    assert sc.soliton_row(gs3, Vc, 0.1, [0.0, 0.0, 0.0]).gamma_half == 0.0


def test_energy_gap_scaling(gs3, Vdw):
    # f_eps(z_xi) approaches the leading term at rate at least eps
    xi = np.array([0.6, 0.2, -0.1])
    report = sc.semiclassical_sweep(gs3, Vdw, xi, list(EPS_LIST))
    gaps = [abs(row.energy - row.leading) for row in report.rows]
    slope, _ = sc.fit_scaling_exponent(EPS_LIST, gaps)
    assert slope >= 1.0


def test_sweep_evaluates_V_once_per_eps(gs3, Vdw):
    # per eps: V(eps xi) and one pass over the N x M shell cloud of the
    # exact rule, degree 2 deg V
    points = []

    def counted(pts):
        points.append(pts.shape[0])
        return Vdw.evaluate(pts)

    counted.degree = Vdw.degree
    V = sc.PotentialField(3, counted, Vdw.gradient)
    report = sc.semiclassical_sweep(gs3, V, [0.3, -0.2, 0.1], list(EPS_LIST))
    assert [(row.shell_degree, row.shell_error) for row in report.rows] == [(8, 0.0)] * 4
    cloud = gs3.grid.size * sc.shell_quadrature(3, 8).weights.size
    assert sum(points) == len(EPS_LIST) * (cloud + 1)


@pytest.mark.parametrize("spec", ("double_well:1.0,0.5", "x1^2 + exp(-x2)*cos(x3)"))
def test_cloud_blocks_leave_moments_unchanged(gs3, monkeypatch, spec):
    # the shell cloud is evaluated CLOUD_POINTS points at a time: one radius
    # per block and the whole grid in one block give the same moments on
    # every rule a soliton row takes
    V = sc.PotentialField(3, *pots.make_potential_functions(spec, 3))
    xi = np.array([0.6, 0.2, -0.1])
    directions = max(sc.shell_quadrature(3, d).weights.size for d in sc.STEPPED_DEGREES)
    cloud_moments = sc._cloud_moments
    moments = []

    def recorded(*args):
        moments[-1].append(cloud_moments(*args))
        return moments[-1][-1]

    monkeypatch.setattr(sc, "_cloud_moments", recorded)
    for points in (1, gs3.grid.size * directions):
        monkeypatch.setattr(sc, "CLOUD_POINTS", points)
        moments.append([])
        sc.soliton_row(gs3, V, 0.1, xi)
    assert len(moments[0]) == len(moments[1])
    np.testing.assert_allclose(moments[0], moments[1], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sweep_rows_match_degree_20(n):
    # the rule of degree 2 deg V reproduces the degree-20 rule on the
    # catalog potentials at the CLI eps list; the angular rules are compared
    # on one radial grid, so a coarse one keeps the n = 5 clouds small
    gs = solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 100))
    xi = np.full(n, 0.35)
    eps_list = list(cli.DEFAULT_EPS)
    for spec in ("double_well:1.0,0.5", "ring", "quadratic:1.0,0.3"):
        V = sc.PotentialField(n, *pots.make_potential_functions(spec, n))
        report = sc.semiclassical_sweep(gs, V, xi, eps_list)
        for row in report.rows:
            assert row.shell_degree == 2 * V.degree and row.shell_error == 0.0
            mu, (value, diff, diff2) = moments_on(gs, V, row.eps, xi, 20)
            energy = sc._translation_invariant_energy(gs, 1.0 + mu) + 0.5 * value
            assert row.energy == pytest.approx(energy, rel=1e-10)
            assert row.leading == sc._leading(gs, 1.0 + mu)
            assert row.gradient_proxy == pytest.approx(math.sqrt(diff2), rel=1e-10)
            assert row.gamma_half == pytest.approx(0.5 * diff, rel=1e-10)


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
    # quartic potential: the automatic rule (degree 8) is already exact, so
    # the degree-20 and degree-28 rules move nothing
    V = sc.PotentialField(3, pots.compile_expression("x1^4 + x2^2*x3^2", 3))
    xi = np.array([0.3, 0.2, 0.1])
    auto = sc.soliton_energy(gs3, V, 0.1, xi)
    for degree in (20, 28):
        mu, (value, _, _) = moments_on(gs3, V, 0.1, xi, degree)
        energy = sc._translation_invariant_energy(gs3, 1.0 + mu) + 0.5 * value
        assert energy == pytest.approx(auto, rel=1e-12)


def test_shell_degree_too_low_detected(gs3):
    V = sc.PotentialField(3, pots.compile_expression("cos(30*x1)*cos(30*x2)", 3))
    xi = np.array([0.2, 0.1, 0.0])
    with pytest.raises(sc.ShellDegreeError, match="degree 20 too low"):
        sc.soliton_energy(gs3, V, 1.0, xi)


def test_stepped_rule_reports_its_estimate(gs3):
    V = sc.PotentialField(3, pots.compile_expression(
        "exp(-x2^2)*cos(x3) + x1^2 + 0.2*x1*x2", 3))
    report = sc.semiclassical_sweep(gs3, V, np.full(3, 0.35), list(EPS_LIST))
    row = report.rows[0]
    assert row.eps == 0.2 and row.shell_degree in sc.STEPPED_DEGREES[1:]
    assert 0.0 < row.shell_error <= sc.DEGREE_TOL


def test_stepped_rule_accepts_moments_that_vanish_by_symmetry(gs3):
    # V is odd about eps xi = 0: int V z^2 = int (V - mu) z^2 = 0, which each
    # rule leaves as a residue far below the size of V - mu but not equal
    # from one rule to the next
    V = sc.PotentialField(3, pots.compile_expression("x1*exp(-x2^2)", 3))
    row = sc.soliton_row(gs3, V, 0.2, np.zeros(3))
    assert row.shell_error <= sc.DEGREE_TOL
    # |diff| < 1e-8 diff2^(1/2)
    assert abs(2.0 * row.gamma_half) < 1e-8 * row.gradient_proxy


def test_constant_C0_routes_and_positivity(gs3):
    c0 = constant_C0(gs3)
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


@pytest.mark.parametrize("spec", ("double_well", "ring"))
def test_newton_leaves_step_limit_cycles(spec):
    # 400 seed-0 starts on [-2, 2]^3: with one fixed step limit, start 151
    # of the double well and starts 162 and 164 of the ring alternate
    # between two points for all NEWTON_ITERATIONS steps
    value, grad = pots.make_potential_functions(spec, 3)
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return grad(pts)

    V = sc.PotentialField(3, value, counted)
    starts = -2.0 + 4.0 * np.random.default_rng(0).random((400, 3))
    x = sc._newton_on_gradient(V, starts, 4.0)
    assert np.all(np.linalg.norm(grad(x), axis=1) <= 1e-9)
    assert len(calls) < 40
    # rows that converge with the fixed limit keep their path bit for bit
    ref = newton_fixed_step_limit(sc.PotentialField(3, value, grad), starts, 4.0)
    converged = np.linalg.norm(grad(ref), axis=1) <= 1e-9
    assert np.sum(~converged) == {"double_well": 1, "ring": 2}[spec]
    assert np.array_equal(x[converged], ref[converged])


def test_one_proxy_per_critical_set(gs3, monkeypatch):
    calls = []
    row = sc.soliton_row

    def counted(*args):
        calls.append(args[3])
        return row(*args)

    monkeypatch.setattr(sc, "soliton_row", counted)
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


@pytest.mark.parametrize("eps_list", [[], [0.1]])
def test_sweep_requires_two_eps(gs3, Vquad, eps_list):
    # one eps leaves the scaling slope underdetermined: polyfit would return
    # a minimum-norm slope, so the sweep refuses before any row is built
    with pytest.raises(ValueError, match="at least two values"):
        sc.semiclassical_sweep(gs3, Vquad, [0, 0, 0], eps_list)


def test_sweep_report_text(gs3, Vdw):
    report = sc.semiclassical_sweep(gs3, Vdw, [0.5, 0.0, 0.0], [0.1, 0.05])
    text = report.to_text()
    assert "proxy exponent" in text
    assert "shell_degree  shell_error" in text
    assert text.splitlines()[2].endswith(" 8 0.0e+00")
    assert len(report.rows) == 2
