"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from hartree_lab import ground_state as gstate
from hartree_lab import linearized_spectrum as lsp
from hartree_lab import newton_potential as npot
from hartree_lab import potentials as pots
from hartree_lab import radial_core as rc
from hartree_lab import semiclassical as sc

from _reference import (
    newton_potential_midpoint,
    radial_potential_from_callable,
)

DIMS = (3, 4, 5)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ground_state_cross_validation(ground_states, shooting_states):
    worst_rel = 0.0
    worst_time = 0.0
    for n in DIMS:
        gs_fp, t_fp = ground_states[n]
        gs_sh, t_sh = shooting_states[n]
        w = gs_fp.grid.weights
        diff = gs_fp.profile.values - gs_sh.profile.values
        rel = math.sqrt(
            float(np.dot(w, diff**2)) / float(np.dot(w, gs_fp.profile.values**2))
        )
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, t_fp + t_sh)
        assert rel < 1e-6, f"n={n}: cross-method disagreement {rel:.3e}"
    _verdict(
        "criterion 1 (solver cross-validation, each n)",
        worst_rel < 1e-6 and worst_time < 60.0,
        f"worst ||dU||/||U|| = {worst_rel:.3e}, worst per-dim runtime "
        f"{worst_time:.1f}s",
    )


def test_criterion_2_equation_residual(ground_states):
    worst = max(ground_states[n][0].residual for n in DIMS)
    _verdict(
        "criterion 2 (equation residual < 1e-8, each n)",
        worst < 1e-8,
        f"worst relative residual = {worst:.3e}",
    )


def test_criterion_3_radial_reduction_vs_oracle():
    indicator = lambda r: (r < 1.0).astype(float)  # noqa: E731
    vals = radial_potential_from_callable(
        3, indicator, [0.0, 1.5, 2.0, 3.0], breakpoints=[1.0], r_cut=30.0
    )
    expect = np.array([0.5, 1.0 / 4.5, 1.0 / 6.0, 1.0 / 9.0])
    analytic_err = float(np.max(np.abs(vals - expect)))

    def ball(p):
        return (np.linalg.norm(p, axis=1) < 1.0).astype(float)

    # tight box resolves the near/inside points, the wide one reaches r = 3;
    # the midpoint oracle takes the singular cell and the ball's edge
    tight = newton_potential_midpoint(ball, [(-1.7, 1.7)] * 3, 64,
                                      [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    wide = newton_potential_midpoint(ball, [(-3.2, 3.2)] * 3, 64,
                                     [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    oracle_err = float(np.max(np.abs(np.concatenate((tight, wide)) - vals)))
    _verdict(
        "criterion 3 (radial reduction vs analytic and nD oracle)",
        analytic_err < 1e-8 and oracle_err < 2e-3,
        f"analytic error {analytic_err:.2e}, oracle gap {oracle_err:.2e}",
    )


def test_criterion_4_multipole_expansion():
    worst_rel, monotone = {}, {}
    for n in DIMS:
        _, oracle, errors = npot.multipole_completeness_experiment(k_max=8, n=n)
        worst_rel[n] = float(np.max(errors[:, 8] / np.abs(oracle)))
        curve = list(errors.max(axis=0))
        monotone[n] = all(b <= a for a, b in zip(curve, curve[1:]))
    _verdict(
        "criterion 4 (multipole completeness at K_max = 8, n = 3, 4, 5)",
        max(worst_rel.values()) < 1e-4 and all(monotone.values()),
        "worst relative error "
        + ", ".join(f"n={n}: {e:.3e}" for n, e in worst_rel.items())
        + f", monotone decay over K_max: {all(monotone.values())}",
    )


def test_criterion_5_identity_suite(ground_states):
    worst = 0.0
    for n in DIMS:
        defects = lsp.identity_defects(ground_states[n][0])
        worst = max(worst, max(defects.values()))
        assert max(defects.values()) < 1e-4, f"n={n}: {defects}"
    # refinement order measured in the convergence regime (the floor beyond
    # is rounding-dominated)
    pairs = {3: (48, 96), 4: (64, 96), 5: (96, 128)}
    slopes = {}
    for n, (n_lo, n_hi) in pairs.items():
        defs = []
        for N in (n_lo, n_hi):
            g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
            gs = gstate.solve_ground_state(g, gstate.SolverConfig(tol=1e-9))
            defs.append(lsp.identity_defects(gs)["LrU"])
        slopes[n] = -math.log(defs[1] / defs[0]) / math.log(n_hi / n_lo)
    min_slope = min(slopes.values())
    _verdict(
        "criterion 5 (identity suite and refinement order)",
        worst < 1e-4 and min_slope >= 1.8,
        f"worst defect {worst:.3e}, refinement orders "
        + ", ".join(f"n={n}: {s:.1f}" for n, s in slopes.items()),
    )


def test_criterion_6_nondegeneracy_certificate(ground_states, reports):
    t_extra = time.perf_counter()
    details = []
    ok = True
    for n in DIMS:
        rep, _ = reports[n]
        ok &= abs(rep.records[1].eigenvalues[0]) < rep.tol_zero
        ok &= rep.u_prime_correlation > 0.999
        ok &= rep.k0_min_abs > rep.tol_zero
        ok &= all(r.eigenvalues[0] > 0.0 for r in rep.records[2:])
        ok &= rep.verdict
        # gap stability under N doubling (200 -> 400)
        g200 = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200)
        gs200 = gstate.solve_ground_state(g200, gstate.SolverConfig(tol=1e-10))
        spec200 = lsp.lowest_eigenpairs(lsp.assemble_sector(gs200, 0), 2)
        gap200 = min(abs(spec200.eigenvalues[0]), abs(spec200.eigenvalues[1]))
        drift = abs(gap200 - rep.k0_min_abs) / rep.k0_min_abs
        ok &= drift < 0.05
        details.append(
            f"n={n}: |l10|={abs(rep.records[1].eigenvalues[0]):.1e}<{rep.tol_zero:.1e}, "
            f"gap={rep.k0_min_abs:.3f} (drift {drift:.1e})"
        )
    runtime = sum(reports[n][1] for n in DIMS) + (time.perf_counter() - t_extra)
    ok &= runtime < 300.0
    _verdict(
        "criterion 6 (nondegeneracy certificate, n = 3, 4, 5)",
        ok,
        "; ".join(details) + f"; total runtime {runtime:.0f}s",
    )


def test_criterion_7_hessian_scaling(gs3):
    mu = 0.3
    shifted = gstate.solve_ground_state(gs3.grid, mass_shift=mu)
    worst = 0.0
    for k in (0, 1, 2):
        bare = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, k), 2).eigenvalues
        resc = lsp.lowest_eigenpairs(lsp.assemble_sector(shifted, k), 2).eigenvalues
        err = np.max(
            np.abs(resc - (1.0 + mu) * bare)
            / np.maximum(np.abs((1.0 + mu) * bare), 1.0)
        )
        worst = max(worst, float(err))
    _verdict(
        "criterion 7 (rescaled-soliton Hessian scaling, k = 0, 1, 2)",
        worst < 1e-4,
        f"worst relative eigenvalue mismatch {worst:.3e} at mu = {mu}",
    )


def test_criterion_8_semiclassical_scaling(gs3):
    eps_list = (0.2, 0.1, 0.05, 0.025)
    value, grad = pots.quadratic(3, 1.0)
    V_crit = sc.PotentialField(3, value, grad)
    value2, grad2 = pots.quadratic(3, 1.0, center=[1.0, 0.0, 0.0])
    V_noncrit = sc.PotentialField(3, value2, grad2)
    p_crit, _ = sc.fit_scaling_exponent(
        eps_list, [sc.soliton_row(gs3, V_crit, e, [0, 0, 0]).gradient_proxy for e in eps_list]
    )
    p_non, _ = sc.fit_scaling_exponent(
        eps_list,
        [sc.soliton_row(gs3, V_noncrit, e, [0, 0, 0]).gradient_proxy for e in eps_list],
    )
    g_exp, _ = sc.fit_scaling_exponent(
        eps_list, [sc.soliton_row(gs3, V_crit, e, [0, 0, 0]).gamma_half for e in eps_list]
    )
    mu = 0.3
    const = sc.PotentialField(3, lambda pts: np.full(pts.shape[0], mu))
    f_const = sc.soliton_energy(gs3, const, 0.05, [0.3, -0.2, 0.1])
    lead = sc.leading_coefficient(gs3) * (1.0 + mu) ** 1.5
    const_rel = abs(f_const - lead) / abs(lead)
    ok = (
        1.9 <= p_crit <= 2.1
        and 0.9 <= p_non <= 1.1
        and 1.9 <= g_exp <= 2.1
        and const_rel < 1e-6
    )
    _verdict(
        "criterion 8 (semiclassical scaling laws)",
        ok,
        f"proxy exponents: critical {p_crit:.3f}, noncritical {p_non:.3f}; "
        f"gamma exponent {g_exp:.3f}; constant-V exactness {const_rel:.1e}",
    )


def test_criterion_9_concentration_prediction(gs3):
    value, grad = pots.double_well(3, 1.0, 0.5)
    V = sc.PotentialField(3, value, grad)
    cps = sc.predict_concentration(V, [(-2.0, 2.0)] * 3, 0.1, gs3, n_starts=60)
    expected = [np.array([-1.0, 0, 0]), np.array([0.0, 0, 0]), np.array([1.0, 0, 0])]
    ok = len(cps) == 3
    worst_loc = 0.0
    if ok:
        for target in expected:
            dist = min(np.linalg.norm(cp.location - target) for cp in cps)
            worst_loc = max(worst_loc, float(dist))
        ok &= worst_loc < 1e-8
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2.0, 2.0, size=(10_000, 3))
    v_vals = V.evaluate(pts)
    h_vals = sc.leading_coefficient(gs3) * (1.0 + v_vals) ** 1.5
    ok &= int(np.argmin(v_vals)) == int(np.argmin(h_vals))
    _verdict(
        "criterion 9 (concentration landscape)",
        ok,
        f"{len(cps)} critical points, worst location error {worst_loc:.2e}, "
        "argmin(h) = argmin(V) on 10^4 samples",
    )
