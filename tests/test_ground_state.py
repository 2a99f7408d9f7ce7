"""Ground-state solvers, residuals, decay diagnostics, rescaling, cache."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_lab import ground_state as gstate
from hartree_lab import newton_potential as npot
from hartree_lab import radial_core as rc

from _reference import (
    bisect_separatrix_events,
    equation_residual,
    fit_decay,
    fixed_point_gaussian_start,
    fit_exponential_rate,
    interaction_integral_double,
    newton_jacobian_out_of_place,
    rescale_state,
    separatrix_dop853,
    shooting_profile_dop853,
)


def _wnorm(grid, vec):
    return math.sqrt(float(np.dot(grid.weights, vec**2)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        gstate.SolverConfig(method="relax")
    with pytest.raises(ValueError):
        gstate.SolverConfig(tol=-1.0)
    cfg = gstate.SolverConfig()
    assert cfg.tol == 1e-10  # fixed-point default


def test_residual_below_tolerance(gs3, gs3_shoot):
    assert gs3.residual <= 1e-10
    assert gs3_shoot.residual <= 1e-7
    assert equation_residual(gs3) == pytest.approx(gs3.residual, rel=1e-10)


def test_cross_method_agreement(gs3, gs3_shoot):
    # unique positive ground state: the two independent solvers must agree
    g = gs3.grid
    diff = gs3.profile.values - gs3_shoot.profile.values
    rel = _wnorm(g, diff) / _wnorm(g, gs3.profile.values)
    assert rel < 10.0 * 1e-7
    assert rel < 1e-6


def test_positivity_and_monotonicity(gs3):
    u = gs3.profile.values
    assert np.all(u > 0.0)
    assert np.all(np.diff(u) <= 1e-10 * u.max())


@pytest.mark.parametrize(
    "method, n, mu, r_max, N",
    [
        pytest.param("fixed_point", 3, 0.3, 30.0, 256, id="fixed_point"),
        pytest.param("shooting", 5, 0.5, 20.0, 200, id="shooting"),
    ],
)
def test_shifted_equation_matches_rescaled_base(method, n, mu, r_max, N):
    # alpha U(beta x) solves the mass-shifted equation
    g = rc.build_grid(n, r_max, N)
    base = gstate.solve_ground_state(g, gstate.SolverConfig(tol=1e-10))
    shifted = gstate.solve_ground_state(
        g, gstate.SolverConfig(method=method), mass_shift=mu
    )
    z = rescale_state(base, mu)
    rel = _wnorm(g, shifted.profile.values - z.values) / _wnorm(
        g, shifted.profile.values
    )
    assert rel < 1e-6


def test_perturbed_profile_raises_residual(gs3):
    g = gs3.grid
    base = gstate._residual(g, gs3.profile.values, 0.0)[1]
    pert = gstate._residual(g, 1.01 * gs3.profile.values, 0.0)[1]
    assert pert > 10.0 * base


def test_zero_profile_residual_and_rejection(gs3):
    g = gs3.grid
    assert gstate._residual(g, np.zeros(g.size), 0.0)[1] == math.inf
    with pytest.raises(gstate.PositivityError):
        gstate.GroundState(
            dim=3,
            profile=rc.RadialFunction(g, np.zeros(g.size)),
            potential=gs3.potential,
            l2_mass=gs3.l2_mass,
            energy=gs3.energy,
            residual=0.0,
            method="fixed_point",
        )


def test_monotonicity_validation(gs3):
    vals = gs3.profile.values.copy()
    vals[200] = vals[198]  # local increase
    with pytest.raises(ValueError):
        gstate.GroundState(
            dim=3,
            profile=rc.RadialFunction(gs3.grid, vals),
            potential=gs3.potential,
            l2_mass=gs3.l2_mass,
            energy=gs3.energy,
            residual=gs3.residual,
            method="fixed_point",
        )
    # a rise of 1e-6 max U between two nodes, far above MONOTONE_TOL = 1e-10,
    # raises too: the ground_state command relies on it and prints no check
    vals = gs3.profile.values.copy()
    dataclasses.replace(gs3, profile=rc.RadialFunction(gs3.grid, vals.copy()))
    vals[40] = vals[39] + 1e-6 * vals.max()
    with pytest.raises(ValueError, match="non-increasing"):
        dataclasses.replace(gs3, profile=rc.RadialFunction(gs3.grid, vals))


def test_nu_definition(ground_states):
    for n, (gs, _) in ground_states.items():
        direct = (
            math.gamma((n - 2) / 2.0) / (4.0 * math.pi ** (n / 2.0)) * gs.l2_mass
        ) ** (1.0 / (n - 2))
        assert gs.nu == pytest.approx(direct, rel=1e-12)


def test_fit_decay(gs3):
    fit = fit_decay(gs3, (15.0, 27.0))
    # against the decay phase the asymptotic slope is -1
    assert fit.rate == pytest.approx(-1.0, abs=0.05)
    assert fit.nu_check == pytest.approx(gs3.nu, rel=1e-10)
    assert fit.fit_defect < 0.05
    with pytest.raises(ValueError):
        fit_decay(gs3, (15.0, 15.2))
    with pytest.raises(ValueError):
        fit_decay(gs3, (1.0, 12.0))  # window starts below nu


def test_uprime_decay_rate(gs3):
    up = gstate.profile_derivative(gs3)
    rate = fit_exponential_rate(gs3, up, (10.0, 27.0))
    assert rate >= 0.9
    assert rate < 1.1


def test_rescale_identity_and_mass(gs3):
    same = rescale_state(gs3, 0.0)
    assert np.max(np.abs(same.values - gs3.profile.values)) < 1e-12 * np.max(
        gs3.profile.values
    )
    mu = 0.3
    z = rescale_state(gs3, mu)
    area = rc.sphere_area(3)
    mass_z = area * rc.integrate_radial(gs3.grid, rc.RadialFunction(gs3.grid, z.values**2))
    expect = (1.0 + mu) ** (2.0 - 1.5) * gs3.l2_mass
    assert mass_z == pytest.approx(expect, rel=1e-8)
    with pytest.raises(ValueError):
        rescale_state(gs3, -1.5)


def test_rescaled_profile_solves_shifted_equation(gs3):
    mu = 0.3
    z = rescale_state(gs3, mu)
    res = gstate._residual(gs3.grid, z.values, mu)[1]
    # solver tolerance plus the interpolation/splice error of the
    # resampled profile (the splice noise sits at ~1e-13 profile values)
    assert res < 1e-6


def test_grid_convergence_of_energy(gs3):
    g200 = rc.build_grid(3, 30.0, 200)
    gs200 = gstate.solve_ground_state(g200, gstate.SolverConfig(tol=1e-10))
    assert gs200.energy == pytest.approx(gs3.energy, rel=1e-8)


def test_interaction_two_routes(gs3):
    pairing = gstate.interaction_integral(gs3)
    double = interaction_integral_double(gs3)
    assert double == pytest.approx(pairing, rel=1e-9)


def test_virial_identities(ground_states):
    # F(U) = M/3, M/2, M for n = 3, 4, 5 by the Pohozaev/Nehari pair
    factor = {3: 1.0 / 3.0, 4: 0.5, 5: 1.0}
    for n, (gs, _) in ground_states.items():
        assert gs.energy == pytest.approx(factor[n] * gs.l2_mass, rel=1e-9)


@pytest.mark.parametrize("mu", (0.0, 0.5))
@pytest.mark.parametrize("N", (200, 400))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_pohozaev_identity_on_profile_derivative(n, N, mu):
    # U' through H_(n-1) gives the kinetic term its Pohozaev share; the
    # largest defect is 2.0e-12 (n = 3, N = 400)
    grid = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    gs = gstate.solve_ground_state(grid, mass_shift=mu)
    assert gstate.pohozaev_defect(gs) <= 1e-10


def test_pohozaev_identity_catches_one_scaled_row_of_H(monkeypatch):
    # one row of H_(n-1) scaled by 1 + 1e-6, the row where w U'^2 peaks,
    # lifts the defect to 2.5e-8 at n = 3, N = 200
    n = 3
    gs = gstate.solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200))
    assert gstate.pohozaev_defect(gs) <= 1e-10
    disc = rc.get_discretization(gs.grid)
    i = int(np.argmax(gs.grid.weights * gstate.profile_derivative(gs) ** 2))
    scaled = disc.head_moment().copy()
    scaled[i] *= 1.0 + 1e-6
    monkeypatch.setattr(disc, "_head", scaled)
    assert gstate.pohozaev_defect(gs) > 1e-10


def test_convergence_error_reports_best(monkeypatch):
    # a budget of 7 runs out at residual 2.3e-10 while every step still
    # moves the iterate by 1.6e-10 or more; the eighth step would reach
    # 9.6e-15, which meets 1e-12.  No node is held at the positivity
    # floor, and the message names none
    monkeypatch.setattr(gstate, "_NEWTON_STEPS", 7)
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(gstate.ConvergenceError) as err:
        gstate.solve_ground_state(
            g, gstate.SolverConfig(method="fixed_point", tol=1e-12)
        )
    assert f"after {gstate._NEWTON_STEPS} iterations" in str(err.value)
    assert "positivity floor" not in str(err.value)
    assert err.value.best_residual > 0.0
    assert math.isfinite(err.value.best_residual)


def test_spent_budget_evaluates_its_last_step(monkeypatch):
    # the case above: every one of the 7 steps is followed by a residual
    # evaluation, the last step's iterate included.  One more _defect call
    # scales the Gaussian start onto the Nehari manifold
    monkeypatch.setattr(gstate, "_NEWTON_STEPS", 7)
    calls = collections.Counter()
    step, defect = gstate._newton_step, gstate._defect

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    def counted_defect(*args):
        calls["defect"] += 1
        return defect(*args)

    monkeypatch.setattr(gstate, "_newton_step", counted_step)
    monkeypatch.setattr(gstate, "_defect", counted_defect)
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(gstate.ConvergenceError, match="after 7 iterations"):
        gstate.solve_ground_state(g, gstate.SolverConfig(method="fixed_point", tol=1e-12))
    residuals = calls["defect"] - 1
    assert calls["step"] == residuals - 1 == 7


def test_tol_below_the_rounding_floor_rejected():
    # at tol 1e-15 on N = 64 the Newton steps from the ninth on move the
    # iterate by rounding alone; the floor rejects it before any solve
    assert gstate.TOL_FLOOR == 64 * np.finfo(float).eps
    for tol in (1e-15, 0.5 * gstate.TOL_FLOOR):
        for method in ("fixed_point", "shooting"):
            with pytest.raises(gstate.ToleranceError, match="rounding floor"):
                gstate.SolverConfig(method=method, tol=tol)
    assert gstate.SolverConfig(tol=gstate.TOL_FLOOR).tol == gstate.TOL_FLOOR
    for method, tol in gstate.DEFAULT_TOL.items():
        assert gstate.SolverConfig(method=method).tol == tol > gstate.TOL_FLOOR
    with pytest.raises(ValueError, match="positive"):
        gstate.SolverConfig(tol=0.0)


def test_fixed_point_stops_at_nonfinite_residual(monkeypatch):
    kernel = gstate.kernel_matrix

    def nan_k0(grid, k):
        mat = kernel(grid, k)
        return np.full_like(mat, np.nan) if k == 0 else mat

    monkeypatch.setattr(gstate, "kernel_matrix", nan_k0)
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(gstate.ConvergenceError, match="residual became nan at iteration 1"):
        gstate.solve_ground_state(g, gstate.SolverConfig(method="fixed_point"))


@pytest.mark.parametrize(
    "bad, residual",
    [pytest.param("nan", "nan", id="nan"), pytest.param("to_zero", "inf", id="to_zero")],
)
def test_bad_newton_step_fails_fast(monkeypatch, bad, residual):
    # a NaN step, or one that takes the iterate to the zero solution
    # (floored at 1e-300, whose relative residual reads inf), ends the solve
    # at the first bad iterate with the finite residual of the start
    g = rc.build_grid(5, rc.DEFAULT_R_MAX[5], 200)
    calls = []

    def step(K, pot0, freq, u, v, defect):
        calls.append(bad)
        return np.full_like(u, np.nan) if bad == "nan" else u.copy()

    monkeypatch.setattr(gstate, "_newton_step", step)
    with pytest.raises(
        gstate.ConvergenceError, match=f"residual became {residual} at iteration 2"
    ) as err:
        gstate.solve_ground_state(g)
    assert len(calls) == 1
    assert 0.0 < err.value.best_residual < math.inf


@pytest.mark.parametrize("stage_n", (80, 200), ids=("coarse", "target"))
def test_failed_newton_stage_names_its_grid(monkeypatch, stage_n):
    # at N = 200 the coarse stage runs on 80 nodes; a NaN step in either
    # stage ends the solve with an error naming that stage's grid size
    g = rc.build_grid(3, rc.DEFAULT_R_MAX[3], 200)
    step = gstate._newton_step

    def nan_on_stage(K, pot0, freq, u, v, defect):
        out = step(K, pot0, freq, u, v, defect)
        return np.full_like(u, np.nan) if u.size == stage_n else out

    monkeypatch.setattr(gstate, "_newton_step", nan_on_stage)
    with pytest.raises(
        gstate.ConvergenceError, match=f"at iteration 2 on the N = {stage_n} grid"
    ):
        gstate.solve_ground_state(g)


def _count_newton_steps(monkeypatch):
    """Patch _newton_step to record the size of every Jacobian it solves."""
    sizes = []
    step = gstate._newton_step

    def counted(K, pot0, freq, u, v, defect):
        sizes.append(u.size)
        return step(K, pot0, freq, u, v, defect)

    monkeypatch.setattr(gstate, "_newton_step", counted)
    return sizes


@pytest.mark.parametrize("N", (200, 400, 401))
@pytest.mark.parametrize("mu", (0.0, 0.5, 2.0))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_target_grid_takes_one_or_two_newton_steps(monkeypatch, n, mu, N):
    # nested iteration: the coarse solve, interpolated, starts the target
    # grid inside Newton's quadratic basin, where the Gaussian start took 5-8
    sizes = _count_newton_steps(monkeypatch)
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    gs = gstate.solve_ground_state(g, mass_shift=mu)
    assert gs.residual <= gs.tol
    assert sizes.count(N) in (1, 2)
    assert set(sizes) == {max(gstate._COARSE_N, N // 5), N}


def test_target_grid_steps_from_a_start_within_tol(monkeypatch):
    # at tol 1e-4 the interpolated coarse solve already meets tol on the
    # target grid; the result is still a Newton iterate of the target grid
    sizes = _count_newton_steps(monkeypatch)
    g = rc.build_grid(4, rc.DEFAULT_R_MAX[4], 200)
    gstate.solve_ground_state(g, gstate.SolverConfig(tol=1e-4))
    assert sizes.count(200) == 1


@pytest.mark.parametrize("N", (200, 400, 600))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_nested_iteration_matches_gaussian_start(n, N):
    # the start changes the profile only at solver rounding
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    for mu in (0.0, 1.0, 2.0, 4.0):
        u = gstate.solve_ground_state(g, mass_shift=mu).profile.values
        ref = fixed_point_gaussian_start(g, mu, gstate.DEFAULT_TOL["fixed_point"])
        assert np.max(np.abs(u - ref)) <= 2.5e-12 * ref[0], mu


def test_coarse_stage_above_its_tolerance_still_converges(monkeypatch):
    # at n = 5 on r_max = 60 with mu = 1 the 80-node grid's floor lies
    # above the coarse tolerance; its best iterate still starts the target
    residuals = {}
    newton = gstate._newton

    def recorded(grid, freq, tol, u=None):
        out = newton(grid, freq, tol, u)
        residuals[grid.size] = out[1]
        return out

    monkeypatch.setattr(gstate, "_newton", recorded)
    gs = gstate.solve_ground_state(rc.build_grid(5, 60.0, 400), mass_shift=1.0)
    assert residuals[gstate._COARSE_N] > gstate._COARSE_TOL
    assert max(residuals[400], gs.residual) <= gs.tol


def test_coarse_stage_stops_once_its_step_stalls(monkeypatch):
    # at n = 5, mu = 2 the 80-node floor, 2.5e-6, lies above the coarse
    # tolerance; the fifth step moves the iterate by less than it, so the
    # stage stops there instead of running all _NEWTON_STEPS
    sizes = _count_newton_steps(monkeypatch)
    gs = gstate.solve_ground_state(rc.build_grid(5, rc.DEFAULT_R_MAX[5], 200), mass_shift=2.0)
    assert gs.residual <= gs.tol
    assert {N: sizes.count(N) for N in set(sizes)} == {80: 5, 200: 1}


@pytest.mark.parametrize("mu", (2.0, 4.0))
def test_target_stage_stops_once_its_step_stalls(monkeypatch, mu):
    # at three times the default r_max the 200-node floor (8.9e-10 at
    # mu = 2, 2.2e-8 at mu = 4) lies above tol: the solve raises once a step
    # stops moving the iterate, and the message counts the steps taken
    sizes = _count_newton_steps(monkeypatch)
    g = rc.build_grid(5, 3.0 * rc.DEFAULT_R_MAX[5], 200)
    with pytest.raises(gstate.ConvergenceError) as err:
        gstate.solve_ground_state(g, mass_shift=mu)
    assert sizes.count(200) <= 3
    assert f"after {sizes.count(200)} iterations on the N = 200 grid" in str(err.value)
    assert err.value.best_residual > gstate.DEFAULT_TOL["fixed_point"]


def test_refusal_names_the_positivity_floor():
    # n = 5 on 1.5 x r_max at N = 100: the best iterate, 4.7e-10 from tol,
    # holds its last 4 nodes at _FLOOR, where the discrete solution dips
    # below zero (ROADMAP item 2); the refusal counts them and names the
    # first one's radius
    g = rc.build_grid(5, 1.5 * rc.DEFAULT_R_MAX[5], 100)
    with pytest.raises(gstate.ConvergenceError) as err:
        gstate.solve_ground_state(g)
    assert "4 nodes held at the positivity floor from r = 29.6" in str(err.value)
    assert err.value.best_residual > gstate.DEFAULT_TOL["fixed_point"]


def _newton_inputs(n, N, start):
    """(K, G_0, freq, u, v, defect) of a Newton step at freq 1 on the
    default r_max: at the Gaussian start, or at the solved profile with its
    far nodes set to _FLOOR."""
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    K = rc.get_discretization(g).neg_laplacian()[:-1, :-1]
    pot0 = npot.kernel_matrix(g, 0)
    if start == "gaussian":
        u = np.exp(-0.5 * g.nodes**2)
    else:
        u = gstate.solve_ground_state(g).profile.values.copy()
        u[-N // 10:] = gstate._FLOOR
    return (K, pot0, 1.0, u) + gstate._defect(K, pot0, 1.0, u)


@pytest.mark.parametrize("start", ("gaussian", "floored"))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_newton_jacobian_bit_identical_to_out_of_place_formula(monkeypatch, n, start):
    # J formed in one buffer, in the out-of-place formula's order of
    # operations, has its bits, signed zeros included; the floored nodes
    # make products that underflow to zero
    K, pot0, freq, u, v, defect = _newton_inputs(n, 200, start)
    solved = []
    monkeypatch.setattr(np.linalg, "solve", lambda J, b: solved.append(J.copy()) or b)
    gstate._newton_step(K, pot0, freq, u, v, defect)
    ref = newton_jacobian_out_of_place(K, pot0, freq, u, v)
    assert np.array_equal(solved[0].view(np.int64), ref.view(np.int64))


def test_newton_step_peak_is_one_jacobian():
    # one N = 400 step allocates J and nothing else of size N^2 that numpy
    # traces (measured 1.05 N^2 floats; the out-of-place formula read 3.05)
    N = 400
    args = _newton_inputs(3, N, "gaussian")
    tracemalloc.start()
    try:
        gstate._newton_step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * N * N * 8, peak / (N * N * 8)


@pytest.mark.parametrize("N", (64, 80))
def test_small_grid_builds_no_coarse_grid(monkeypatch, N):
    # a grid at or below the coarse size starts from the Gaussian itself
    built = []
    monkeypatch.setattr(gstate, "build_grid", lambda *args: built.append(args))
    sizes = _count_newton_steps(monkeypatch)
    gstate.solve_ground_state(rc.build_grid(3, rc.DEFAULT_R_MAX[3], N))
    assert built == []
    assert set(sizes) == {N}


@pytest.mark.parametrize("mu", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_fixed_point_matches_shooting(n, mu):
    # the fixed-point solve must end at the ground state the independent
    # shooting solver finds
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200)
    fp = gstate.solve_ground_state(g, mass_shift=mu).profile.values
    sh = gstate.solve_ground_state(
        g, gstate.SolverConfig(method="shooting"), mass_shift=mu
    ).profile.values
    assert abs(fp[0] - sh[0]) <= 1e-10 * fp[0]
    assert _wnorm(g, fp - sh) <= 1e-9 * _wnorm(g, fp)


def test_shooting_bisects_one_separatrix(monkeypatch):
    # the exact scaling of the (u, W) system turns one separatrix at
    # u(0) = 1 into the solution for any mass shift, on any grid: a process
    # shoots it once per dimension
    calls = []
    shoot = gstate._separatrix_shot

    def counted(*args):
        calls.append(args)
        return shoot(*args)

    monkeypatch.setattr(gstate, "_separatrix_shot", counted)
    gstate._separatrix.cache_clear()
    for N in (64, 200):
        g = rc.build_grid(3, 30.0, N)
        for mu in (0.0, 0.5):
            gstate.solve_ground_state(
                g, gstate.SolverConfig(method="shooting"), mass_shift=mu
            )
    assert calls == [(3, gstate._SEPARATRIX_W0[3])]
    info = gstate._separatrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    assert info.maxsize == len(rc.SUPPORTED_DIMS)


def test_warm_separatrix_solve_equals_cold():
    g = rc.build_grid(5, rc.DEFAULT_R_MAX[5], 200)
    cfg = gstate.SolverConfig(method="shooting")
    gstate._separatrix.cache_clear()
    cold = gstate.solve_ground_state(g, cfg, mass_shift=0.5).profile.values
    warm = gstate.solve_ground_state(g, cfg, mass_shift=0.5).profile.values
    assert gstate._separatrix.cache_info().hits == 1
    assert np.array_equal(warm, cold)
    # the cached path cannot be changed in place
    sol = gstate._separatrix(5)[0]
    assert not any(a.flags.writeable for a in (sol.origin, sol.lo, sol.coef))
    with pytest.raises(ValueError, match="read-only"):
        sol.coef[0, 0, 0] = 0.0


@pytest.mark.parametrize("n", (3, 4, 5))
def test_separatrix_converges_in_order(n, monkeypatch):
    # orders 30 and 40 agree to 1e-16 over (0, r_veer - 8 / sqrt(W(inf))]:
    # 2.3e-17, 1.2e-17 and 9.8e-17 in u at n = 3, 4, 5, 1.1e-16 in W.
    # Closer to the veer radius, rounding grown along the unstable
    # direction takes over: 1.4e-14 in u at r_veer - 8 for n = 5, where u
    # is 1e-9 and the decay length 3.7
    sol, r_veer, w_inf = gstate._separatrix(n)
    monkeypatch.setattr(gstate, "_ORDER", 40)
    sol40, r_veer40, event40 = gstate._separatrix_shot(n, gstate._SEPARATRIX_W0[n])
    assert event40 is not None and abs(r_veer40 - r_veer) < 0.01
    r = np.linspace(gstate._R0, r_veer - 8.0 / math.sqrt(w_inf), 4001)
    diff = np.max(np.abs(sol(r) - sol40(r)), axis=1)
    assert diff[0] <= 1e-15 and diff[2] <= 1e-15


@pytest.mark.parametrize("n", (3, 4, 5))
def test_separatrix_matches_dop853(n):
    # the shot against solve_ivp's DOP853 at rtol 2.3e-14, just above its
    # floor of 100 eps, whose own error is read off its distance from the
    # same shot at rtol 1e-13: 8.3e-12, 6.6e-12 and 3.1e-11 in u on
    # (0, r_veer - 8], where u's rounding grows along the unstable
    # direction.  The Taylor shot is within that error of the reference:
    # 4.2e-12, 2.8e-13 and 2.2e-12
    sol, r_veer, _ = gstate._separatrix(n)
    r = np.linspace(gstate._R0, r_veer - 8.0, 4001)
    ref = separatrix_dop853(n, r_veer - 8.0, 2.3e-14)(r)
    ref_error = np.max(np.abs(separatrix_dop853(n, r_veer - 8.0, 1e-13)(r) - ref), axis=1)
    assert np.all(np.max(np.abs(sol(r) - ref), axis=1) <= ref_error)


@pytest.mark.parametrize("mu", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("N", (200, 400))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_shooting_matches_dop853_far_field(n, N, mu):
    # the Taylor far field against one completed by solve_ivp's DOP853 on
    # the same separatrix.  At rtol 2.3e-14 the reference moves from its
    # rtol 1e-13 run by at most 6.5e-19 U(0) over these 18 cases (n = 3,
    # N = 400, mu = 1): its error is stated as 7e-19 U(0), and the bound is
    # twice that, rounded up.  The Taylor far field is within 1.1e-19 U(0)
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
    ref = shooting_profile_dop853(g, mu, 2.3e-14)
    ref_error = np.max(np.abs(shooting_profile_dop853(g, mu, 1e-13) - ref))
    assert ref_error <= 7e-19 * ref[0]
    sh = gstate.solve_ground_state(
        g, gstate.SolverConfig(method="shooting"), mass_shift=mu
    ).profile.values
    assert np.max(np.abs(sh - ref)) <= 1.5e-18 * ref[0]


def test_warm_shooting_makes_no_new_shot(monkeypatch):
    # with the separatrix cached, a solve at a new mass shift runs one
    # Taylor path, the far field, and no forward shot
    g = rc.build_grid(4, rc.DEFAULT_R_MAX[4], 200)
    cfg = gstate.SolverConfig(method="shooting")
    gstate.solve_ground_state(g, cfg)
    stages = []
    integrate = gstate._integrate

    def counted(n, r, y, r_stop, stage, **kwargs):
        stages.append(stage)
        return integrate(n, r, y, r_stop, stage, **kwargs)

    monkeypatch.setattr(gstate, "_integrate", counted)
    gs = gstate.solve_ground_state(g, cfg, mass_shift=0.3)
    assert gs.residual <= cfg.tol
    assert stages == ["far field"]


def test_warm_shooting_reads_each_path_once(monkeypatch):
    # a warm solve reads the cached separatrix once and its far field
    # once, each at every radius it needs
    g = rc.build_grid(5, rc.DEFAULT_R_MAX[5], 200)
    cfg = gstate.SolverConfig(method="shooting")
    gstate.solve_ground_state(g, cfg)
    reads = []
    call = gstate._TaylorPath.__call__

    def counted(self, r):
        reads.append(np.size(r))
        return call(self, r)

    monkeypatch.setattr(gstate._TaylorPath, "__call__", counted)
    gstate._solve_shooting(g, 0.5)
    assert len(reads) == 2
    assert sum(reads) == 1 + 2 * 40 + g.size


def test_failed_far_field_raises(monkeypatch):
    # far fields take 4-9 Taylor steps, this one more than 4: a budget of 4
    # stops it with the stage and the radius it reached
    g = rc.build_grid(3, 30.0, 200)
    gstate._separatrix(3)
    monkeypatch.setattr(gstate, "_STEP_BUDGET", 4)
    with pytest.raises(gstate.ConvergenceError,
                       match=r"^far field: step budget of 4 spent at r = [\d.]+$") as err:
        gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"), mass_shift=0.3)
    # backward from r_max = 30, short of the matching window
    assert 15.0 < float(str(err.value).rsplit(" ", 1)[1]) < 30.0


def test_spent_separatrix_budget_raises(monkeypatch):
    # the separatrix takes 78-83 steps, about 60 of them capped at r/4 on
    # the way out from the series start at r = 1e-6; a failed shot is not
    # cached
    monkeypatch.setattr(gstate, "_STEP_BUDGET", 40)
    gstate._separatrix.cache_clear()
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(gstate.ConvergenceError,
                       match=r"^separatrix: step budget of 40 spent at r = 0\.0\d+$"):
        gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"))
    assert gstate._separatrix.cache_info().currsize == 0


def test_nonfinite_taylor_coefficient_raises():
    with pytest.raises(gstate.ConvergenceError,
                       match=r"^separatrix: Taylor coefficient not finite at r = 1e-06$"):
        gstate._separatrix_shot(3, math.nan)


def test_shooting_rejects_short_trajectory():
    # on r_max = 10 the junction, six decay lengths before r_max, lies
    # under the five decay lengths the matching window needs
    g = rc.build_grid(4, 10.0, 200)
    with pytest.raises(gstate.ConvergenceError, match=r"r_max 10\b"):
        gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bisection_matches_event_classifier(n):
    # the tabulated W(0) against an independent bisection whose shots are
    # classified by solve_ivp's terminal events
    c = bisect_separatrix_events(n)
    assert abs(gstate._SEPARATRIX_W0[n] - c) <= 1e-14 * abs(c)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_table_brackets_the_taylor_separatrix(n):
    # W(0) is negative: a W(0) 1e-13 above the entry turns around, one
    # 1e-13 below crosses zero
    w0 = gstate._SEPARATRIX_W0[n]
    assert gstate._separatrix_shot(n, w0 * (1.0 - 1e-13))[2] == "turn"
    assert gstate._separatrix_shot(n, w0 * (1.0 + 1e-13))[2] == "cross"


def test_failed_shot_raises(monkeypatch):
    # a shot that ends at _R_END without a terminal event has not left the
    # separatrix, so neither its veer radius nor W(inf) is known: the solve
    # raises, and a failed shot is never cached, so a second solve raises too
    monkeypatch.setattr(gstate, "_R_END", 5.0)
    gstate._separatrix.cache_clear()
    g = rc.build_grid(3, 30.0, 64)
    for _ in range(2):
        with pytest.raises(gstate.ConvergenceError, match="without a terminal event"):
            gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"))
    assert gstate._separatrix.cache_info().currsize == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_wrong_table_entry_fails_the_solve(n, monkeypatch):
    # no bisection guards the table: an entry off by 1e-10 relative veers
    # off the separatrix early enough to fail the solve
    table = dict(gstate._SEPARATRIX_W0)
    table[n] *= 1.0 + 1e-10
    monkeypatch.setattr(gstate, "_SEPARATRIX_W0", table)
    gstate._separatrix.cache_clear()
    try:
        g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200)
        with pytest.raises(gstate.ConvergenceError):
            gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"))
    finally:
        gstate._separatrix.cache_clear()


def test_tail_fit_skips_floor_clamped_window():
    # at mu = 4 on a long grid the far field r_max - 8 ... r_max - 3 reaches
    # the iterate's positivity floor; no far-field model is fitted to it,
    # and the floored nodes leave the solve converged
    grid = rc.build_grid(3, 45.0, 500)
    gs = gstate.solve_ground_state(grid, mass_shift=4.0)
    window = (grid.nodes >= 37.0) & (grid.nodes <= 42.0)
    assert np.min(gs.profile.values[window]) == gstate._FLOOR
    assert gs.residual <= gstate.DEFAULT_TOL[gstate.METHOD_FIXED_POINT]


def test_potential_is_the_truncated_kernel_sum(ground_states):
    # one far field: the stored potential is the k = 0 kernel on U^2, the
    # same v the Newton solve and the residual use
    for n, (gs, _) in ground_states.items():
        U = gs.profile.values
        assert np.array_equal(gs.potential, gstate.kernel_matrix(gs.grid, 0) @ U**2)
        assert gs.residual == gstate._residual(gs.grid, U, 0.0)[1]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_separatrix_carries_its_mass(n):
    # r^(n-1) W'(r) = int_0^r t^(n-1) u^2 dt on the shot, which the shooting
    # solver reads for the far-field mass in place of a quadrature
    sol, r_veer, _ = gstate._separatrix(n)
    for r in (0.5 * r_veer, r_veer - 8.0):
        carried = r ** (n - 1) * float(sol(r)[3])
        ref = quad(lambda t: t ** (n - 1) * float(sol(t)[0]) ** 2, gstate._R0, r,
                   limit=200, epsabs=0.0, epsrel=1e-12)[0]
        assert carried == pytest.approx(ref, rel=1e-9)


def test_invalid_mass_shift(gs3):
    with pytest.raises(ValueError):
        gstate.solve_ground_state(gs3.grid, gstate.SolverConfig(), mass_shift=-1.0)


def test_cache_roundtrip(gs3):
    text = gstate.format_cache(gs3)
    rebuilt = gstate.groundstate_from_cache(gs3.grid, text)
    # 17 significant digits round-trip binary64 bit-identically: the same
    # profile on the same nodes, so the re-verified state writes the same
    # text
    assert np.array_equal(rebuilt.profile.values, gs3.profile.values)
    assert gstate.format_cache(rebuilt) == text
    assert (rebuilt.method, rebuilt.tol) == (gs3.method, gs3.tol)


def _replace_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _edit_header(text, edit):
    return _replace_line(text, 0, edit(text.splitlines()[0]))


def _perturb_node(text):
    r, v = text.splitlines()[5].split()
    return _replace_line(text, 5, f"{float(r) * 1.001:.17g} {v}")


# each input the cache reader must refuse with ValueError, as a change of
# format_cache's text for the state on its own grid
_BAD_CACHES = {
    "empty": lambda text: "",
    "other_grid": lambda text: _edit_header(
        text, lambda head: head.replace("N=400 ", "N=200 ", 1)
    ),
    "no_tol": lambda text: _edit_header(
        text, lambda head: " ".join(t for t in head.split() if not t.startswith("tol="))
    ),
    "token_without_eq": lambda text: _edit_header(text, lambda head: head + " stray"),
    "row_count": lambda text: "".join(text.splitlines(keepends=True)[:-1]),
    "non_numeric_value": lambda text: _replace_line(
        text, 3, text.splitlines()[3].split()[0] + " 1.0e-3x"
    ),
    "perturbed_nodes": _perturb_node,
}


@pytest.mark.parametrize("case", sorted(_BAD_CACHES))
def test_cache_rejects_malformed_or_mismatched_text(gs3, case):
    text = gstate.format_cache(gs3)
    bad = _BAD_CACHES[case](text)
    assert bad != text
    with pytest.raises(ValueError):
        gstate.groundstate_from_cache(gs3.grid, bad)
