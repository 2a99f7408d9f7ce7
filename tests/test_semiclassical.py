"""Soliton energies, scaling laws, reduced landscape, concentration points."""

import math

import numpy as np
import pytest

from hartree_lab import cli
from hartree_lab import potentials as pots
from hartree_lab import radial_core as rc
from hartree_lab import semiclassical as sc
from hartree_lab.ground_state import solve_ground_state

from _reference import (
    classify_critical_points_loop,
    constant_C0,
    dedupe_first_kept_loop,
    interaction_integral_double,
    interaction_of_values,
    newton_fixed_step_limit,
    rescale_state,
    shell_moments_all_nodes,
)

EPS_LIST = (0.2, 0.1, 0.05, 0.025)
EXPRESSION_DOUBLE_WELL = "(x1^2 - 1)^2 + 0.5*(x2^2 + x3^2)"


def constant_potential(dim, mu):
    return sc.PotentialField(dim, lambda pts, mu=mu: np.full(pts.shape[0], mu))


def moments_on(gs, V, eps, xi, degree):
    """mu = V(eps xi) and the (value, diff, diff2) shell moments about eps xi
    on the product rule of the given degree, against z^2 resampled on the
    grid (the oracle rescale_state), not on the rows' rescaled nodes."""
    xi = np.asarray(xi, dtype=float)
    mu = V.value(eps * xi)
    wz2 = gs.grid.weights * rescale_state(gs, mu).values ** 2
    rule = rc.sphere_product_rule(gs.dim, degree)
    return mu, sc._cloud_moments(V, eps, xi, gs.grid.nodes, wz2, mu, *rule)


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
    dirs, wts = rc.sphere_product_rule(n, 20)
    area = rc.sphere_area(n)
    assert np.all(wts > 0.0)
    assert float(np.sum(wts)) == pytest.approx(area, rel=1e-12)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    # a rule is built once and shared, so it cannot be changed in place
    assert rc.sphere_product_rule(n, 20)[1] is wts
    assert not (dirs.flags.writeable or wts.flags.writeable)


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
    # per eps: V(eps xi) and one pass over the shell cloud of the exact rule,
    # deg V + 1 Gauss radii times the directions of degree 2 deg V
    points = []

    def counted(pts):
        points.append(pts.shape[0])
        return Vdw.evaluate(pts)

    counted.degree = Vdw.degree
    V = sc.PotentialField(3, counted, Vdw.gradient)
    report = sc.semiclassical_sweep(gs3, V, [0.3, -0.2, 0.1], list(EPS_LIST))
    assert [(row.shell_degree, row.shell_error) for row in report.rows] == [(8, 0.0)] * 4
    cloud = (Vdw.degree + 1) * rc.sphere_product_rule(3, 8)[1].size
    assert points == [1, cloud] * len(EPS_LIST)


@pytest.mark.parametrize("spec", ("double_well", "ring"))
def test_predict_evaluates_one_cloud_per_critical_set(gs3, spec):
    # the box check, V and h at every kept point from one batched
    # evaluation, and V(eps xi) with one shell cloud for the proxy of each
    # critical set; the ring's circle is one set
    value, grad = pots.make_potential_functions(spec, 3)
    points = []

    def counted(pts):
        points.append(pts.shape[0])
        return value(pts)

    counted.degree, counted.hessian = value.degree, value.hessian
    V = sc.PotentialField(3, counted, grad)
    cps = sc.predict_concentration(V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60)
    sets = sum(cp.gradient_proxy is not None for cp in cps)
    if spec == "double_well":
        assert sets == len(cps) == 3
    else:
        assert sets < len(cps)
    cloud = (value.degree + 1) * rc.sphere_product_rule(3, 2 * value.degree)[1].size
    assert points == [4096, len(cps)] + [1, cloud] * sets


PARITY_CASES = [
    ("double_well:1.0,0.5", 3), ("double_well:1.0,0.5", 4), ("double_well:1.0,0.5", 5),
    ("ring", 3), ("ring", 4), ("quadratic:1.0,0.7", 3),
    ("x1^4 + x2^2*x3^2 - 0.3*x1*x2*x3", 3), ("0.3", 3),
]


def gauss_radii_changes(gs, V, points):
    """_relative_change between the shell moments on every rescaled node
    and those on the points-point Gauss radii of w U^2, rescaled the same
    way, both on the angular rule of degree 2 deg V, for eps in
    (0.2, 0.025, 1.0) and xi in (0, 0.35 (1, ..., 1), 1.3 (1, ..., 1))."""
    shells = rc.sphere_product_rule(gs.dim, 2 * V.degree)
    nodes = (gs.grid.nodes, gs.grid.weights * gs.profile.values ** 2)
    gauss = sc._gauss_radii(*nodes, [points])[0]
    changes = []
    for eps in (0.2, 0.025, 1.0):
        for c in (0.0, 0.35, 1.3):
            xi = np.full(gs.dim, c)
            mu = V.value(eps * xi)
            r, wz2 = sc._soliton_rule(nodes, 1.0 + mu, gs.dim)
            mass = float(np.sum(wz2)) * rc.sphere_area(gs.dim)
            full = sc._cloud_moments(V, eps, xi, r, wz2, mu, *shells)
            rule = sc._cloud_moments(V, eps, xi, *sc._soliton_rule(gauss, 1.0 + mu, gs.dim),
                                     mu, *shells)
            changes.append(sc._relative_change(full, rule, mu, mass))
    return changes


@pytest.mark.parametrize("spec,n", PARITY_CASES)
def test_gauss_radii_match_full_grid(ground_states, spec, n):
    # along every ray (V - mu)^2 has degree 2 deg V in the radius, which
    # deg V + 1 Gauss radii integrate exactly against w z^2; the rule of
    # w U^2, rescaled to each mu, is the rule of w z^2
    V = sc.PotentialField(n, *pots.make_potential_functions(spec, n))
    assert max(gauss_radii_changes(ground_states[n][0], V, V.degree + 1)) <= 1e-12


@pytest.mark.parametrize("spec,n", [case for case in PARITY_CASES if case[0] != "0.3"])
def test_gauss_radii_one_fewer_misses(ground_states, spec, n):
    # deg V radii are exact only to degree 2 deg V - 1: the exactness degree
    # is tight, and the parity test above can fail
    V = sc.PotentialField(n, *pots.make_potential_functions(spec, n))
    assert V.degree >= 1
    assert min(gauss_radii_changes(ground_states[n][0], V, V.degree)) >= 1e-10


def test_gauss_radii_of_a_small_measure():
    r = np.linspace(0.1, 2.0, 12)
    w = np.zeros(12)
    w[[2, 5, 9]] = [0.3, 1.2, 0.05]
    # at most `points` positive weights: the measure is its own rule
    for points in (3, 5):
        radii, weights = sc._gauss_radii(r, w, [points])[0]
        assert np.array_equal(radii, r[[2, 5, 9]]) and np.array_equal(weights, w[[2, 5, 9]])
    # four positive weights and two radii: Golub-Welsch, exact to degree 3
    w[7] = 0.4
    radii, weights = sc._gauss_radii(r, w, [2])[0]
    assert radii.size == 2 and np.all(weights > 0.0)
    for k in range(4):
        assert np.dot(weights, radii**k) == pytest.approx(np.dot(w, r**k), rel=1e-13)
    assert abs(np.dot(weights, radii**4) - np.dot(w, r**4)) > 1e-3


def test_gauss_radii_take_leading_blocks_of_one_run(gs3):
    # one Lanczos run to the largest count: each m-point rule is the one
    # built for m alone, bit for bit, whatever the other counts
    nodes = (gs3.grid.nodes, gs3.grid.weights * gs3.profile.values ** 2)
    counts = (11, 5, 7)
    for m, (radii, weights) in zip(counts, sc._gauss_radii(*nodes, counts)):
        alone = sc._gauss_radii(*nodes, [m])[0]
        assert radii.size == m
        assert np.array_equal(radii, alone[0]) and np.array_equal(weights, alone[1])


def both_paths(spec, n):
    """spec as a compiled expression, and as a plain wrapper that carries no
    degree and so takes the stepped rule."""
    exact = pots.compile_expression(spec, n)
    return sc.PotentialField(n, exact), sc.PotentialField(n, lambda pts: exact(pts))


def test_narrow_soliton_is_exact():
    # on 64 nodes z = 1e4 U(100 r) would fall on 4 of them if resampled;
    # on U's nodes scaled by 1/100 it keeps all 64, and a constant V gives
    # the leading term on both paths
    gs = solve_ground_state(rc.build_grid(3, rc.DEFAULT_R_MAX[3], 64))
    for V in both_paths("1e4", 3):
        row = sc.soliton_row(gs, V, 0.1, np.zeros(3))
        assert row.energy == pytest.approx(row.leading, rel=1e-12, abs=0.0)
        assert row.shell_error <= sc.DEGREE_TOL


def test_wide_soliton_is_exact(gs3):
    # mu = -0.95: z = 0.05 U(0.22 r) resampled on the grid would be cut off
    # at r_max, where it reaches only U(6.7); on U's nodes scaled by 1/0.22
    # it is whole, and a constant V gives the leading term on both paths
    for V in both_paths("-0.95", 3):
        row = sc.soliton_row(gs3, V, 1.0, np.array([0.2, 0.1, 0.0]))
        assert row.energy == pytest.approx(row.leading, rel=1e-12, abs=0.0)
    # mu = cos(6) cos(3) = -0.95 on a V that degree 24 does not resolve
    # over z's support
    V = sc.PotentialField(3, pots.compile_expression("cos(30*x1)*cos(30*x2)", 3))
    with pytest.raises(sc.ShellDegreeError, match="degree 24 too low"):
        sc.soliton_row(gs3, V, 1.0, np.array([0.2, 0.1, 0.0]))


def test_constant_row_reads_the_virial_defect(gs3):
    # for a constant V the soliton rule's mass cancels the mass term, so
    # energy = alpha^(3-n/2) F(U) and leading = alpha^(3-n/2) Q/4: the
    # CLI's constant-V check reads |F(U) - Q/4| / (Q/4)
    C1 = sc.leading_coefficient(gs3)
    for mu in (0.3, -0.6, 5.0):
        row = sc.soliton_row(gs3, constant_potential(3, mu), 0.1, np.zeros(3))
        assert row.energy == pytest.approx((1.0 + mu) ** 1.5 * gs3.energy, rel=1e-13)
        assert row.leading == pytest.approx((1.0 + mu) ** 1.5 * C1, rel=1e-15)


def test_sweep_and_search_build_one_radial_rule(gs3, Vdw, monkeypatch):
    # the Gauss rule of w U^2 serves every eps and every critical set, and
    # no row resamples z on the grid
    gauss, evaluate = sc._gauss_radii, rc.RadialFunction.evaluate
    calls = {"gauss": 0, "evaluate": 0}

    def counted_gauss(*args):
        calls["gauss"] += 1
        return gauss(*args)

    def counted_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(sc, "_gauss_radii", counted_gauss)
    monkeypatch.setattr(rc.RadialFunction, "evaluate", counted_evaluate)
    report = sc.semiclassical_sweep(gs3, Vdw, [0.3, -0.2, 0.1], list(EPS_LIST))
    assert len(report.rows) == 4
    assert calls == {"gauss": 1, "evaluate": 0}
    calls["gauss"] = 0
    cps = sc.predict_concentration(Vdw, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60)
    assert sum(cp.gradient_proxy is not None for cp in cps) == 3
    assert calls == {"gauss": 1, "evaluate": 0}


def test_sweep_search_and_row_take_c1_once(gs3, Vdw, monkeypatch):
    # C1 = Q/4 is one interaction integral per call, shared by every sweep
    # row, every critical point and every proxy
    real = sc.interaction_integral
    calls = []

    def counted(gs):
        calls.append(gs)
        return real(gs)

    monkeypatch.setattr(sc, "interaction_integral", counted)
    assert len(sc.semiclassical_sweep(gs3, Vdw, [0.3, -0.2, 0.1], list(EPS_LIST)).rows) == 4
    assert len(calls) == 1
    cps = sc.predict_concentration(Vdw, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60)
    assert sum(cp.gradient_proxy is not None for cp in cps) == 3
    assert len(calls) == 2
    sc.soliton_row(gs3, Vdw, 0.1, [0.3, -0.2, 0.1])
    assert calls == [gs3] * 3


@pytest.mark.parametrize("spec", ("double_well:1.0,0.5", "x1^2 + exp(-x2)*cos(x3)"))
def test_cloud_blocks_leave_moments_unchanged(gs3, monkeypatch, spec):
    # the shell cloud is evaluated CLOUD_POINTS points at a time: one radius
    # per block and the whole grid in one block give the same moments on
    # every rule a soliton row takes
    V = sc.PotentialField(3, *pots.make_potential_functions(spec, 3))
    xi = np.array([0.6, 0.2, -0.1])
    directions = max(rc.sphere_product_rule(3, d)[1].size for d in sc.STEPPED_DEGREES)
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
            assert row.leading == sc.leading_coefficient(gs) * (1.0 + mu) ** (3.0 - n / 2.0)
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
    # eps xi = 0, mu = 1: degree 24 does not resolve V on z's support
    V = sc.PotentialField(3, pots.compile_expression("cos(30*x1)*cos(30*x2)", 3))
    with pytest.raises(sc.ShellDegreeError, match="degree 24 too low"):
        sc.soliton_energy(gs3, V, 1.0, np.zeros(3))


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


STEPPED_SPECS = ("exp(-x1^2)*cos(x2) + 0.5*x3^2", "x1^2 + exp(-x2)*cos(x3)",
                 "exp(-x2^2)*cos(x3) + x1^2 + 0.2*x1*x2", "cos(2*x1)/(2 + x2^2)")


@pytest.fixture(scope="module")
def coarse_states():
    """Ground states on 64 nodes, which keep the n = 5 degree-28 clouds of
    every node small."""
    return {n: solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 64)) for n in (3, 4, 5)}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_stepped_rows_match_every_node_at_degree_28(coarse_states, monkeypatch, n):
    # each stepped degree D pairs with D/2 + 1 Gauss radii of w U^2; the
    # moments a row accepts are within its own shell_error of the degree-28
    # rule on every rescaled node, for expressions with no degree and for a
    # plain wrapper of a polynomial
    gs = coarse_states[n]
    xi = np.full(n, 0.35)
    cloud_moments = sc._cloud_moments
    taken = []

    def recorded(*args):
        taken.append(cloud_moments(*args))
        return taken[-1]

    monkeypatch.setattr(sc, "_cloud_moments", recorded)
    quartic = pots.compile_expression("x1^4 + x2^2*x3^2", n)
    fields = [sc.PotentialField(n, pots.compile_expression(spec, n)) for spec in STEPPED_SPECS]
    fields.append(sc.PotentialField(n, lambda pts: quartic(pts)))
    for V in fields:
        assert V.degree is None
        for eps in cli.DEFAULT_EPS:
            row = sc.soliton_row(gs, V, eps, xi)
            mu, reference = shell_moments_all_nodes(gs, V, eps, xi, 28)
            mass = (1.0 + mu) ** (2.0 - n / 2.0) * gs.l2_mass
            assert row.shell_degree in sc.STEPPED_DEGREES[1:]
            assert sc._relative_change(taken[-1], reference, mu, mass) <= row.shell_error + 1e-13


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2 the unit roundoff."""
    u = np.finfo(float).eps / 2.0
    return k * u / (1.0 - k * u)


def test_stepped_rule_evaluates_paired_radii(gs3):
    # an opaque constant V: V(eps xi), then degree 8 on 5 Gauss radii and
    # degree 12 on 7, which agree to rounding; no stepped degree visits
    # every node
    points = []

    def counted(pts):
        points.append(pts.shape[0])
        return np.full(pts.shape[0], 0.3)

    V = sc.PotentialField(3, counted)
    row = sc.soliton_row(gs3, V, 0.1, np.zeros(3))
    assert row.shell_degree == 12
    directions = [rc.sphere_product_rule(3, d)[1].size for d in (8, 12)]
    assert directions == [45, 91]
    assert points == [1, 5 * 45, 7 * 91]
    # shell_error is rounding alone.  For V = 0.3 the diff and diff2
    # moments are 0 on both rules, and the value moment of degree D is
    # v_D = fl(sum_i wz2_i fl(sum_d 0.3 wts_d)) over r_D radii and M_D
    # directions.  Its terms are positive, so |v_D - 0.3 R_D A_D| <=
    # gamma(M_D + r_D) 0.3 R_D A_D, with R_D = sum wz2 and A_D = sum wts
    # exactly (N. J. Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., SIAM 2002, section 3.1).  So
    #   shell_error = |v_8 - v_12| / (0.3 mass)
    #     <= (|R_8 A_8 - R_12 A_12| + sum_D gamma(M_D + r_D) R_D A_D) / mass,
    # R_D and A_D by math.fsum; 4 more in each gamma cover the rounding of
    # the products, difference and quotient here and in _relative_change.
    # The bound is about 160 u.  For N = 64 to 400, shell_error read 0 to
    # 11 u, the size of the |R_8 A_8 - R_12 A_12| term (1 to 9 u).
    rules = sc._radial_rule(gs3, V)
    mass = (1.0 + 0.3) ** (2.0 - 3 / 2.0) * gs3.l2_mass
    exact, rounding = [], 0.0
    for degree, size in zip((8, 12), directions):
        wz2 = sc._soliton_rule(rules[degree], 1.0 + 0.3, 3)[1]
        exact.append(math.fsum(wz2) * math.fsum(rc.sphere_product_rule(3, degree)[1]))
        rounding += _gamma(size + wz2.size + 4) * exact[-1]
    assert row.shell_error <= (abs(exact[0] - exact[1]) + rounding) / mass


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
    # 3 - n/2 > 0: the leading term h = C1 (1+V)^(3-n/2) is increasing in V
    lo, mid, hi = (sc.soliton_row(gs3, constant_potential(3, v), 0.1, [0, 0, 0]).leading
                   for v in (-0.3, 0.0, 0.5))
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
        V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60
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
    row = sc._soliton_row

    def counted(*args):
        calls.append(args[3])
        return row(*args)

    monkeypatch.setattr(sc, "_soliton_row", counted)
    value, grad = pots.ring(3, 1.0, 1.0, 1.0)
    V = sc.PotentialField(3, value, grad)
    cps = sc.predict_concentration(
        V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60
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


def test_predict_keeps_the_first_of_each_close_pair(gs3, monkeypatch):
    # greedy in start order: an end point is dropped only when an earlier
    # kept point lies within DEDUPE_DIST * scale, so the chain p,
    # p + 0.6 delta, p + 1.2 delta keeps both ends; repeats go.  V is
    # constant, so every end point is critical and all share one h
    V = sc.PotentialField(3, pots.compile_expression("0.3", 3))
    step = np.array([sc.DEDUPE_DIST * 4.0, 0.0, 0.0])  # the box scale is 4
    p, q = np.array([0.1, -0.2, 0.3]), np.array([-1.0, 1.0, 0.5])
    ends = np.array([p, p + 0.6 * step, p + 1.2 * step, p, q, q + 0.5 * step])
    monkeypatch.setattr(sc, "_newton_on_gradient", lambda V, starts, scale: ends.copy())
    cps = sc.predict_concentration(V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=len(ends))
    assert np.array_equal([cp.location for cp in cps], ends[[0, 2, 4]])
    assert [cp.v_value for cp in cps] == [0.3] * 3


def recorded_search(monkeypatch, V, n, gs, eps, **kw):
    """predict_concentration on [-2, 2]^n (box scale 4), with the Newton
    end points it searched from: (critical points, end points in the box
    with |grad V| <= GRAD_TOL, their gradient norms), in start order."""
    ends = []
    search = sc._newton_on_gradient

    def recorded(V, starts, scale):
        ends.append(search(V, starts, scale))
        return ends[-1]

    monkeypatch.setattr(sc, "_newton_on_gradient", recorded)
    cps = sc.predict_concentration(V, [(-2.0, 2.0)] * n, eps, gs, **kw)
    (x,) = ends
    x = x[np.all(np.abs(x) <= 2.0 + 4e-9, axis=1)]
    gnorm = np.linalg.norm(V.gradients(x), axis=1)
    return cps, x[gnorm <= sc.GRAD_TOL], gnorm[gnorm <= sc.GRAD_TOL]


@pytest.mark.parametrize("spec, n", [
    pytest.param("double_well:1.0,0.5", 3, id="double_well:1.0,0.5"),
    pytest.param("ring", 3, id="ring"),
    pytest.param("double_well:1.0,0.5", 5, id="double_well:1.0,0.5-n5"),
    pytest.param(EXPRESSION_DOUBLE_WELL, 3, id="expression"),
])
def test_predict_dedupe_matches_pairwise_loop(ground_states, monkeypatch, spec, n):
    # the kept points of a real multistart search are those of the greedy
    # rule taken one pair at a time on the same Newton end points
    V = sc.PotentialField(n, *pots.make_potential_functions(spec, n))
    cps, x, _ = recorded_search(monkeypatch, V, n, ground_states[n][0], 0.1, n_starts=80)
    kept = x[dedupe_first_kept_loop(x, sc.DEDUPE_DIST * 4.0)]
    assert len(kept) < len(x)
    assert sorted(map(tuple, kept)) == sorted(tuple(cp.location) for cp in cps)


def _bits(value) -> bytes:
    return b"" if value is None else np.float64(value).tobytes()


# the searches of the benchmark's landscape workload, with its start counts
LANDSCAPE_SEARCHES = {
    "double_well n=3": (3, "double_well:1.0,0.5", 80),
    "double_well n=4": (4, "double_well:1.0,0.5", 80),
    "double_well n=5": (5, "double_well:1.0,0.5", 80),
    "ring n=3": (3, "ring", 24),
    "ring n=4": (4, "ring", 24),
    "quadratic n=3": (3, "quadratic:1.0", 80),
    "expression n=3": (3, EXPRESSION_DOUBLE_WELL, 80),
}


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("label", LANDSCAPE_SEARCHES)
def test_predict_matches_per_point_classification(ground_states, monkeypatch, label, seed):
    # one classification pass over the kept points, with C1 taken once,
    # gives every field of every critical point bit for bit as classifying
    # one point at a time does, the proxies and which points carry one
    # included
    n, spec, starts = LANDSCAPE_SEARCHES[label]
    if spec.startswith("quadratic"):
        value, grad = pots.quadratic(3, 1.0, center=[0.7, -0.6, 0.9])
    else:
        value, grad = pots.make_potential_functions(spec, n)
    V = sc.PotentialField(n, value, grad)
    gs = ground_states[n][0]
    cps, x, gnorm = recorded_search(monkeypatch, V, n, gs, 0.05, n_starts=starts, seed=seed)
    kept = dedupe_first_kept_loop(x, sc.DEDUPE_DIST * 4.0)
    ref = classify_critical_points_loop(V, gs, 0.05, x[kept], gnorm[kept])
    assert len(cps) == len(ref) > 0
    for cp, want in zip(cps, ref):
        assert cp.kind == want.kind and type(cp.kind) is str
        assert cp.location.tobytes() == want.location.tobytes()
        assert cp.hessian_eigenvalues.tobytes() == want.hessian_eigenvalues.tobytes()
        for name in ("v_value", "h_value", "grad_norm", "gradient_proxy"):
            assert _bits(getattr(cp, name)) == _bits(getattr(want, name)), name


def test_predict_refuses_a_critical_point_where_1_plus_v_is_not_positive(gs3, monkeypatch):
    # the box samples miss the narrow well, whose centre is critical with
    # 1 + V = -1: predict_concentration refuses it, not a complex h
    box = [(-1.0, 1.0)] * 3
    V = sc.PotentialField(3, *pots.make_potential_functions(
        "-2*exp(-1000*(x1^2 + x2^2 + x3^2))", 3))
    assert V.lower_bound_check(box) > 0.0
    monkeypatch.setattr(sc, "_newton_on_gradient", lambda V, starts, scale: np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"1 \+ V must be positive"):
        sc.predict_concentration(V, box, 0.1, gs3, n_starts=1)


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
    H = V.hessians(np.array([1.0, 0.0, 0.0])[None])[0]
    assert H[0, 0] == pytest.approx(8.0 * 1.2, rel=1e-14)


def test_fit_scaling_exponent_guards():
    with pytest.raises(ValueError):
        sc.fit_scaling_exponent([0.2, 0.1], [1.0, 0.0])
    for eps in ([0.1], [0.1, 0.1]):
        with pytest.raises(ValueError, match="at least two distinct eps"):
            sc.fit_scaling_exponent(eps, [1.0] * len(eps))
    slope, resid = sc.fit_scaling_exponent([0.2, 0.1, 0.05], [4e-2, 1e-2, 2.5e-3])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert resid < 1e-12


@pytest.mark.parametrize("noise", (0.0, 0.05))
def test_fit_scaling_exponent_matches_polyfit(noise):
    # the closed-form slope on the centred logs is np.polyfit's slope, on
    # exact power laws and on power laws with relative noise: 2 to 8 eps
    # from 0.5 down, each 1.3 to 3 times the next, exponents 0.5 to 4 in
    # size (at most 2.3e-14 apart over 20,000 laws)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        ratios = rng.uniform(1.3, 3.0, rng.integers(1, 8))
        eps = 0.5 / np.cumprod(np.r_[1.0, ratios])
        exponent = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)
        values = rng.uniform(1e-3, 1e3) * eps**exponent
        values *= np.exp(noise * rng.standard_normal(eps.size))
        slope, rms = sc.fit_scaling_exponent(eps, values)
        ref_slope, ref_intercept = np.polyfit(np.log(eps), np.log(values), 1)
        assert abs(slope - ref_slope) <= 1e-13 * abs(ref_slope)
        if noise == 0.0 or eps.size == 2:  # a line through the points
            assert rms < 1e-13
        else:
            resid = np.log(values) - (ref_slope * np.log(eps) + ref_intercept)
            assert rms == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-9)


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
