"""Ground-state solvers, residuals, decay diagnostics, rescaling, cache."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_lab import ground_state as gstate
from hartree_lab import radial_core as rc

from _reference import (
    bisect_separatrix_events,
    classify_events,
    equation_residual,
    fit_decay,
    fit_exponential_rate,
    interaction_integral_double,
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
    z = gstate.rescale_state(base, mu)
    rel = _wnorm(g, shifted.profile.values - z.values) / _wnorm(
        g, shifted.profile.values
    )
    assert rel < 1e-6


def test_perturbed_profile_raises_residual(gs3):
    g = gs3.grid
    base = gstate.profile_equation_residual(g, gs3.profile.values)
    pert = gstate.profile_equation_residual(g, 1.01 * gs3.profile.values)
    assert pert > 10.0 * base


def test_zero_profile_residual_and_rejection(gs3):
    g = gs3.grid
    assert gstate.profile_equation_residual(g, np.zeros(g.size)) == 0.0
    with pytest.raises(gstate.PositivityError):
        gstate.GroundState(
            dim=3,
            profile=rc.RadialFunction(g, np.zeros(g.size)),
            potential=gs3.potential,
            l2_mass=gs3.l2_mass,
            energy=gs3.energy,
            nu=gs3.nu,
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
            nu=gs3.nu,
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
    same = gstate.rescale_state(gs3, 0.0)
    assert np.max(np.abs(same.values - gs3.profile.values)) < 1e-12 * np.max(
        gs3.profile.values
    )
    mu = 0.3
    z = gstate.rescale_state(gs3, mu)
    area = rc.sphere_area(3)
    mass_z = area * rc.integrate_radial(gs3.grid, rc.RadialFunction(gs3.grid, z.values**2))
    expect = (1.0 + mu) ** (2.0 - 1.5) * gs3.l2_mass
    assert mass_z == pytest.approx(expect, rel=1e-8)
    with pytest.raises(ValueError):
        gstate.rescale_state(gs3, -1.5)


def test_rescaled_profile_solves_shifted_equation(gs3):
    mu = 0.3
    z = gstate.rescale_state(gs3, mu)
    res = gstate.profile_equation_residual(gs3.grid, z.values, mass_shift=mu)
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


def test_convergence_error_reports_best():
    g = rc.build_grid(3, 30.0, 64)
    with pytest.raises(gstate.ConvergenceError) as err:
        gstate.solve_ground_state(
            g, gstate.SolverConfig(method="fixed_point", tol=1e-15)
        )
    assert f"after {gstate._NEWTON_STEPS} iterations" in str(err.value)
    assert err.value.best_residual > 0.0
    assert math.isfinite(err.value.best_residual)


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


@pytest.mark.parametrize("mu", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_fixed_point_matches_shooting(n, mu):
    # Newton from the Nehari-scaled Gaussian must end at the ground state
    # the independent shooting solver finds
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
    # bisects once per dimension
    calls = []
    bisect = gstate._bisect_separatrix

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(gstate, "_bisect_separatrix", counted)
    gstate._separatrix.cache_clear()
    for N in (64, 200):
        g = rc.build_grid(3, 30.0, N)
        for mu in (0.0, 0.5):
            gstate.solve_ground_state(
                g, gstate.SolverConfig(method="shooting"), mass_shift=mu
            )
    assert calls == [(3,)]
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
    # the cached dense output cannot be changed in place
    sol = gstate._separatrix(5)[0]
    assert not sol.ts.flags.writeable
    assert not any(part.y_old.flags.writeable for part in sol.interpolants)


def test_shooting_rejects_short_trajectory():
    # at mu = 5 the rescaled shot leaves the separatrix too close to the
    # origin for a junction at r >= 5
    g = rc.build_grid(4, 25.0, 200)
    with pytest.raises(gstate.ConvergenceError):
        gstate.solve_ground_state(
            g, gstate.SolverConfig(method="shooting"), mass_shift=5.0
        )


@pytest.fixture(scope="module")
def separatrix_events():
    # W(0) of the separatrix from the solve_ivp event classifier, n = 3, 4, 5
    return {n: bisect_separatrix_events(n) for n in (3, 4, 5)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compiled_side_matches_event_classifier(n, separatrix_events):
    c = separatrix_events[n]
    for d in 10.0 ** -np.arange(2, 13, 2):
        for sign, side in ((-1.0, "low"), (1.0, "high")):
            w0 = c + sign * d * abs(c)
            assert gstate._side(n, w0) == classify_events(n, w0) == side, (d, sign)
    # W(0) >= 0: u' >= 0 from the first step on
    for w0 in (0.0, 0.5):
        assert gstate._side(n, w0) == classify_events(n, w0) == "high", w0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bisection_matches_event_classifier(n, separatrix_events):
    c = separatrix_events[n]
    assert abs(gstate._bisect_separatrix(n) - c) <= 1e-14 * abs(c)


def test_failed_shot_raises(monkeypatch):
    # a shot the stepper abandons raises; it never passes for 'none'
    monkeypatch.setattr(gstate, "_MAX_STEPS", 20)
    with pytest.raises(gstate.ConvergenceError, match="DOP853 return code -2"):
        gstate._side(3, gstate._W0_GUESS)
    # a separatrix cached by an earlier solve would skip the bisection; a
    # failed one is never cached, so a second solve raises too
    gstate._separatrix.cache_clear()
    g = rc.build_grid(3, 30.0, 64)
    for _ in range(2):
        with pytest.raises(gstate.ConvergenceError, match="step limit"):
            gstate.solve_ground_state(g, gstate.SolverConfig(method="shooting"))
    assert gstate._separatrix.cache_info().currsize == 0


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
        assert np.array_equal(gs.potential.values, gstate.kernel_matrix(gs.grid, 0) @ U**2)
        assert gs.residual == gstate.profile_equation_residual(gs.grid, U)


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
    data = gstate.parse_cache(text)
    assert data["n"] == 3 and data["N"] == gs3.grid.size
    # 17 significant digits round-trip binary64 bit-identically
    assert np.array_equal(data["values"], gs3.profile.values)
    assert np.array_equal(data["r"], gs3.grid.nodes)
    assert data["mass"] == gs3.l2_mass
    rebuilt = gstate.groundstate_from_cache(gs3.grid, text)
    assert rebuilt.l2_mass == pytest.approx(gs3.l2_mass, rel=1e-14)
    assert rebuilt.residual == pytest.approx(gs3.residual, rel=1e-6)
    # second format/parse cycle is byte-identical
    assert gstate.format_cache(rebuilt).splitlines()[1:] == text.splitlines()[1:]


def test_cache_header_mismatch(gs3):
    text = gstate.format_cache(gs3)
    other = rc.build_grid(3, 30.0, 200)
    with pytest.raises(ValueError):
        gstate.groundstate_from_cache(other, text)
    with pytest.raises(ValueError):
        gstate.parse_cache("")
    # matching header but perturbed nodes is rejected too
    lines = text.splitlines()
    r, v = lines[5].split()
    lines[5] = f"{float(r) * 1.001:.17g} {v}"
    with pytest.raises(ValueError, match="nodes"):
        gstate.groundstate_from_cache(gs3.grid, "\n".join(lines))
