"""Sector operators, spectra, operator identities, nondegeneracy report."""

import collections
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hartree_lab import ground_state as gstate
from hartree_lab import linearized_spectrum as lsp
from hartree_lab import newton_potential as npot
from hartree_lab import radial_core as rc

from _reference import sector_apply_free_pair, sector_matrix_out_of_place


@pytest.fixture(scope="module")
def report3(reports):
    return reports[3][0]


def test_operator_weighted_symmetry(ground_states):
    # in sqrt(w) coordinates the sector matrix is W^(1/2) L_k W^(-1/2):
    # symmetric by construction, bit for bit, with no symmetrizing step
    for n, (gs, _) in ground_states.items():
        for k in range(9):
            op = lsp.assemble_sector(gs, k)
            assert op.matrix.shape == (op.keep.sum(),) * 2
            assert np.array_equal(op.matrix, op.matrix.T), (n, k)


def test_sector_matrix_bit_identical_to_out_of_place_assembly(ground_states):
    # B_k formed in the buffer of M + M^T, with M scaled in place, has the
    # bits of the assembly from full temporaries, for k = 0..8 in
    # n = 3, 4, 5; n = 5 at N = 200 drops pinned near-origin nodes
    states = {n: ground_states[n][0] for n in (3, 4)}
    states[5] = gstate.solve_ground_state(rc.build_grid(5, rc.DEFAULT_R_MAX[5], 200))
    for n, gs in states.items():
        for k in range(9):
            op = lsp.assemble_sector(gs, k)
            assert np.array_equal(op.matrix, sector_matrix_out_of_place(gs, k)), (n, k)
    assert not op.keep.all()


def test_centrifugal_term_exact(gs3, monkeypatch):
    # with G_1 in every sector k >= 1, B_k - B_1 is the centrifugal difference
    g = gs3.grid
    kernel = lsp.kernel_matrix
    monkeypatch.setattr(lsp, "kernel_matrix", lambda grid, k: kernel(grid, min(k, 1)))
    op1 = lsp.assemble_sector(gs3, 1)
    r = g.nodes[op1.keep]
    for k in (2, 5):
        diff = lsp.assemble_sector(gs3, k).matrix - op1.matrix
        # off-diagonal parts are shared and cancel exactly; the diagonal
        # carries the centrifugal coefficient up to rounding of the sums
        assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0
        ratio = np.diag(diff) * r**2 / (k * (k + g.dim - 2) - (g.dim - 1))
        assert np.max(np.abs(ratio - 1.0)) < 1e-6


def test_identity_suite(gs3):
    assert lsp.identity_defects(gs3) < 1e-4


def test_wrong_sign_probe(gs3):
    # flipping the sign of the right side must leave an O(1) defect
    g = gs3.grid
    w = g.weights
    u = gs3.profile.values
    ru = g.nodes * gstate.profile_derivative(gs3)
    wrong = lsp.sector_apply_pointwise(gs3, 0, 2.0 * u + ru, npot.kernel_matrix(g, 0)) - 2.0 * u
    rel = math.sqrt(float(np.dot(w, wrong**2)) / float(np.dot(w, u**2)))
    assert rel >= 1.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pointwise_apply_matches_free_pair_reference(n, ground_states):
    # the cached pair's first N rows on [f; p(r_max)] against the N x N
    # free-basis pair, for U and r U' (k = 0) and U' (k = 1) at N = 400:
    # both sit at the rounding floor of the rows next to r_max, which sets
    # their difference, measured at most 8.0e-7 of max(||L_k f||, ||f||)
    # (n = 5, U'), 6.2e-8 for U and r U'
    gs = ground_states[n][0]
    w = gs.grid.weights
    up = gstate.profile_derivative(gs)
    for k, f in ((0, gs.profile.values), (0, gs.grid.nodes * up), (1, up)):
        ref = sector_apply_free_pair(gs, k, f)
        got = lsp.sector_apply_pointwise(gs, k, f, npot.kernel_matrix(gs.grid, k))
        scale = max(math.sqrt(float(np.dot(w, ref**2))), math.sqrt(float(np.dot(w, f**2))))
        assert math.sqrt(float(np.dot(w, (got - ref) ** 2))) <= 2e-6 * scale, k


def test_pointwise_checks_build_no_n2_array():
    # with the grid's cached G_0, H_(n-1) and -Laplacian warm and G_1 given,
    # as the report gives it, the zero-mode residual and the LrU identity
    # are matvecs: their traced peak stays below one N x N float array (the
    # free-basis pair they once built took three)
    N = 200
    gs = gstate.solve_ground_state(rc.build_grid(3, rc.DEFAULT_R_MAX[3], N))
    g1 = npot.kernel_matrix(gs.grid, 1)
    checks = {"zero-mode residual": lambda: lsp.zero_mode_residual(gs, g1),
              "LrU": lambda: lsp.identity_defects(gs)}
    for name, check in checks.items():
        check()
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8, (name, peak / (N * N * 8))


def test_one_negative_laplacian_per_grid(monkeypatch):
    # every -Laplacian_k starts from one cached (N+1)^2 matrix, formed in the
    # buffer of the grid's one D2: across G_0 ... G_8, a fixed-point solve
    # (whose coarse grid has its own), the zero-mode residual and LrU, each
    # grid builds the pair once, and its D2 is the -Laplacian
    built = []
    pair = rc._diff_matrices

    def counted(x, w):
        D1, D2 = pair(x, w)
        built.append((x.size, D2))
        return D1, D2

    monkeypatch.setattr(rc, "_diff_matrices", counted)
    grid = rc.build_grid(3, 29.75, 200)  # a key no other test builds
    gs = gstate.solve_ground_state(grid)
    for k in range(9):
        npot.kernel_matrix(grid, k)
    lsp.zero_mode_residual(gs, npot.kernel_matrix(grid, 1))
    lsp.identity_defects(gs)
    assert [size for size, _ in built] == [gstate._COARSE_N + 1, 201]
    assert built[1][1] is rc.get_discretization(grid).neg_laplacian()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zero_mode(n, ground_states, reports):
    report = reports[n][0]
    gs = ground_states[n][0]
    zmr = lsp.zero_mode_residual(gs, npot.kernel_matrix(gs.grid, 1))
    assert zmr < 1e-6
    rec = report.records[1]
    assert abs(rec.eigenvalues[0]) < 100.0 * zmr
    assert report.u_prime_correlation > 0.999


def test_k0_trivial_kernel(report3):
    assert report3.k0_min_abs > report3.tol_zero > 0.0
    # one negative direction (mountain pass) and then a genuine gap
    assert report3.records[0].eigenvalues[0] < 0.0
    assert report3.records[0].eigenvalues[1] > 0.1


def test_default_gap_bound_is_tol_zero(report3):
    # the k = 0 gap is reported, not checked: Morse index 1 implies it.
    # Every "nonzero" claim compares with tol_zero, which none of them reads
    checks = {c.name: c for c in report3.checks}
    assert len(checks) == 5 and "k=0 kernel gap" not in checks
    assert f"k=0 kernel gap min|lambda| = {report3.k0_min_abs:.6e}" in report3.to_text()
    morse = checks["k=0 Morse index 1"]
    assert morse.value <= report3.k0_min_abs
    for name in ("k=1 next eigenvalue lambda_11", "k=0 Morse index 1",
                 "sectors k>=2 positive, k>=3 by the order"):
        assert (checks[name].relation, checks[name].bound) == (">", report3.tol_zero)


@pytest.mark.parametrize("relation", ["<", "<=", ">"])
def test_check_nan_fails_every_relation(relation):
    assert not lsp.Check("x", math.nan, relation, 0.0).ok
    assert str(lsp.Check("x", math.nan, relation, 1.0)) == f"[FAIL] x (nan {relation} 1)"


def test_check_relations_and_line():
    assert lsp.Check("a", 1.0, "<", 2.0).ok
    assert not lsp.Check("a", 2.0, "<", 2.0).ok
    assert lsp.Check("a", 2.0, "<=", 2.0).ok
    assert not lsp.Check("a", 2.0, ">", 2.0).ok
    assert str(lsp.Check("gap", 0.40536, ">", 3.39e-6)) == "[PASS] gap (0.4054 > 3.39e-06)"
    with pytest.raises(ValueError, match="relation"):
        lsp.Check("a", 1.0, ">=", 2.0)


def test_double_zero_mode_not_certified(gs3, monkeypatch):
    solve = lsp.lowest_eigenpairs

    def double_zero(op, m):
        spec = solve(op, m)
        if op.degree == 1:
            spec.eigenvalues[1] = spec.eigenvalues[0]
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", double_zero)
    rep = lsp.nondegeneracy_report(gs3, 2)
    assert abs(rep.records[1].eigenvalues[0]) < rep.tol_zero
    # the zero mode itself stays below tol_zero; its double fails the second
    assert [c.name for c in rep.checks if not c.ok] == ["k=1 next eigenvalue lambda_11"]
    assert not rep.verdict
    assert "NOT CERTIFIED" in rep.to_text()


def test_positive_sectors_and_Wk(report3):
    for rec in report3.records:
        if rec.degree >= 2:
            assert rec.eigenvalues[0] > 0.0


def test_lambda_monotone_in_k(report3):
    lams = [rec.eigenvalues[0] for rec in report3.records if rec.degree >= 1]
    assert all(b > a for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perron_frobenius_structure(n, reports):
    for rec in reports[n][0].records:
        assert rec.eigenvalues[1] - rec.eigenvalues[0] > 0.0
        assert rec.sign_changes == 0, rec.degree


def test_nodal_sector_ground_state_not_certified(gs3, monkeypatch):
    solve = lsp.lowest_eigenpairs

    def nodal(op, m):
        spec = solve(op, m)
        if op.degree == 3:
            spec.sign_changes = 1
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", nodal)
    rep = lsp.nondegeneracy_report(gs3, 4)
    assert rep.records[3].sign_changes == 1
    assert all(rec.eigenvalues[0] > 0.0 for rec in rep.records[2:])
    assert not rep.verdict
    assert "NOT CERTIFIED" in rep.to_text()


@pytest.mark.parametrize("n", [3, 5])
def test_lowest_eigenpairs_match_subset_eigh(n):
    # numpy's eigvalsh (syevd) against scipy's subset eigh (syevr) on the
    # same B_k: each of the two lowest eigenvalues within eps ||B_k||_2 (Weyl)
    from scipy.linalg import eigh

    gs = gstate.solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200))
    for k in range(9):
        op = lsp.assemble_sector(gs, k)
        ref = eigh(op.matrix, eigvals_only=True, subset_by_index=(0, 1))
        bound = np.finfo(float).eps * np.linalg.norm(op.matrix, 2)
        vals = lsp.lowest_eigenpairs(op, 2).eigenvalues
        assert np.max(np.abs(vals - ref)) <= bound, (k, vals - ref, bound)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inverse_iteration_pairs(n):
    # the ground pair has a residual ||B x - lambda x|| <= eps ||B_k||_2
    # (at most 0.02 eps ||B_k||_2 here) and a unit weighted norm, and phi_0
    # is numpy eigh's vector up to sign
    gs = gstate.solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200))
    w = gs.grid.weights
    for k in range(9):
        op = lsp.assemble_sector(gs, k)
        B = op.matrix
        bound = np.finfo(float).eps * np.linalg.norm(B, 2)
        spec = lsp.lowest_eigenpairs(op, 2)
        phi = spec.ground_eigenvector
        assert abs(float(np.dot(w, phi**2)) - 1.0) <= 1e-14, k
        x = np.sqrt(w[op.keep]) * phi[op.keep]
        lam = spec.eigenvalues[0]
        assert np.linalg.norm(B @ x - lam * x) <= bound, (k, lam)
        ref = np.linalg.eigh(B)[1][:, 0]
        assert 1.0 - abs(float(ref @ x)) <= 1e-12, k


def test_Wk_consistency_with_lambda(gs3, report3):
    # L_1 >= 0: its pairing with each sector's ground eigenfunction is
    # nonnegative; op1.matrix acts on sqrt(w) phi over the kept nodes
    op1 = lsp.assemble_sector(gs3, 1)
    sw = np.sqrt(gs3.grid.weights[op1.keep])
    for rec in report3.records:
        if rec.degree < 2:
            continue
        spec = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, rec.degree), 1)
        x = sw * spec.ground_eigenvector[op1.keep]
        pairing = float(x @ (op1.matrix @ x))
        assert pairing >= -1e-8


def test_zeroed_nonlocal_term_breaks_zero_mode(gs3, report3, monkeypatch):
    # dropping the rank-structured kernel removes the translation zero mode:
    # the k=1 bottom jumps to a strictly positive O(1) value
    kernel = lsp.kernel_matrix
    monkeypatch.setattr(
        lsp, "kernel_matrix",
        lambda grid, k: np.zeros_like(kernel(grid, k)) if k == 1 else kernel(grid, k),
    )
    op = lsp.assemble_sector(gs3, 1)
    spec = lsp.lowest_eigenpairs(op, 1)
    assert spec.eigenvalues[0] > 100.0 * report3.tol_zero
    assert spec.eigenvalues[0] > 0.1


def test_mu_scaling_of_sector_spectra(gs3):
    mu = 0.3
    shifted = gstate.solve_ground_state(gs3.grid, mass_shift=mu)
    for k in (0, 1, 2):
        bare = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, k), 2).eigenvalues
        resc = lsp.lowest_eigenpairs(lsp.assemble_sector(shifted, k), 2).eigenvalues
        err = np.abs(resc - (1.0 + mu) * bare) / np.maximum(
            np.abs((1.0 + mu) * bare), 1.0
        )
        assert np.max(err) < 1e-4


def test_mass_shift_is_read_from_the_ground_state():
    # a state solved at mass shift mu is the rescaled (1+mu) U0(sqrt(1+mu) r):
    # the equation and the identities hold with (1+mu), the certificate
    # stands, and the sector spectra scale by 1 + mu
    mu = 0.5
    grid = rc.build_grid(3, rc.DEFAULT_R_MAX[3], 200)
    gs = gstate.solve_ground_state(grid, mass_shift=mu)
    assert gs.residual < 1e-10
    assert lsp.identity_defects(gs) < 1e-4
    assert lsp.nondegeneracy_report(gs, 4).verdict
    bare = lsp.lowest_eigenpairs(
        lsp.assemble_sector(gstate.solve_ground_state(grid), 0), 1).eigenvalues[0]
    shifted = lsp.lowest_eigenpairs(lsp.assemble_sector(gs, 0), 1).eigenvalues[0]
    assert shifted == pytest.approx((1.0 + mu) * bare, rel=1e-3)


def test_zero_mode_refinement_order():
    # residual decays at order >= 1.8 before the rounding floor
    zmrs = []
    for N in (48, 96):
        g = rc.build_grid(3, 30.0, N)
        gs = gstate.solve_ground_state(g, gstate.SolverConfig(tol=1e-9))
        zmrs.append(lsp.zero_mode_residual(gs, npot.kernel_matrix(g, 1)))
    slope = -math.log(zmrs[1] / zmrs[0]) / math.log(2.0)
    assert slope >= 1.8


def test_report_serialization(report3):
    text = report3.to_text()
    assert "verdict: nondegenerate" in text
    rows = report3.to_csv_rows()
    assert rows[0] == ["k", "lambda0", "lambda1", "zero_mode_residual"]
    assert len(rows) == 10
    # zero-mode residual recorded on the k=1 row
    assert rows[2][3] != ""


def test_report_requires_kmax(gs3):
    with pytest.raises(ValueError):
        lsp.nondegeneracy_report(gs3, 1)


def test_report_parallel_workers_identical(gs3, report3):
    par = lsp.nondegeneracy_report(gs3, 8, workers=2)
    assert par.verdict == report3.verdict
    for a, b in zip(par.records, report3.records):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_assemble_guards(gs3):
    with pytest.raises(ValueError):
        lsp.assemble_sector(gs3, -1)
    # the full spectrum on a small grid: one shifted solve per pair; a shot
    # on 16 nodes meets only a loose tolerance (residual 8.3e-3)
    grid = rc.build_grid(3, rc.DEFAULT_R_MAX[3], 16)
    small = gstate.solve_ground_state(grid, gstate.SolverConfig("shooting", tol=1e-2))
    op = lsp.assemble_sector(small, 0)
    with pytest.raises(ValueError):
        lsp.lowest_eigenpairs(op, 0)
    size = op.matrix.shape[0]
    assert lsp.lowest_eigenpairs(op, size).eigenvalues.shape == (size,)
    with pytest.raises(ValueError):  # more pairs than kept nodes
        lsp.lowest_eigenpairs(op, size + 1)


def test_lowest_eigenpairs_leaves_the_matrix_unchanged(gs3, monkeypatch):
    # the shifted solve runs on op.matrix's own diagonal, which is put back
    # bit for bit, also when the solve raises
    op = lsp.assemble_sector(gs3, 1)
    before = op.matrix.copy()
    lsp.lowest_eigenpairs(op, 2)
    assert np.array_equal(op.matrix, before)

    def singular(a, b):
        assert a is op.matrix and not np.array_equal(a.diagonal(), before.diagonal())
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lsp.np.linalg, "solve", singular)
    with pytest.raises(np.linalg.LinAlgError):
        lsp.lowest_eigenpairs(op, 2)
    assert np.array_equal(op.matrix, before)


def test_eigenpairs_of_exactly_representable_eigenvalues():
    # eigvalsh returns diag(1, ..., 16)'s eigenvalues exactly, so a shift by
    # lambda_0 itself leaves an exactly zero pivot; the ground vector is
    # still the unit vector up to rounding
    grid = rc.build_grid(3, 30.0, 16)
    op = lsp.SectorOperator(degree=2, grid=grid, keep=np.ones(16, bool),
                            matrix=np.diag(np.arange(1.0, 17.0)))
    spec = lsp.lowest_eigenpairs(op, 2)
    assert np.array_equal(spec.eigenvalues, [1.0, 2.0])
    x = np.sqrt(grid.weights) * spec.ground_eigenvector
    assert np.max(np.abs(x - np.eye(16)[0])) <= 1e-14


def test_eigenpair_of_a_zero_eigenvalue():
    # the float below 0.0 is the subnormal 5e-324: a shift by it overflowed
    # the solve to a NaN vector, which read as node-free; a zero eigenvalue
    # takes a shift of normal size and still gives the unit vector
    grid = rc.build_grid(3, 30.0, 16)
    op = lsp.SectorOperator(degree=2, grid=grid, keep=np.ones(16, bool),
                            matrix=np.diag(np.arange(0.0, 16.0)))
    spec = lsp.lowest_eigenpairs(op, 2)
    assert np.array_equal(spec.eigenvalues, [0.0, 1.0])
    x = np.sqrt(grid.weights) * spec.ground_eigenvector
    assert np.max(np.abs(x - np.eye(16)[0])) <= 1e-14
    assert spec.sign_changes == 0


# Each of the next three tests solves on a grid that no other test builds
# (n = 3 with r_max 22.5, 23.5 or 24.5), so every per-grid cache starts cold.

def test_one_process_builds_each_sector_kernel_once(monkeypatch):
    # G_0 for the solve and sector 0, G_1 for the zero-mode residual and
    # sector 1, G_k for sector k alone: one collocated build each, and one
    # G_0 on the coarse grid that starts the solve
    builds = collections.Counter()
    build = npot._collocated_kernel

    def counted(grid, k):
        builds[grid.size, k] += 1
        return build(grid, k)

    monkeypatch.setattr(npot, "_collocated_kernel", counted)
    gs = gstate.solve_ground_state(rc.build_grid(3, 23.5, 96))
    assert lsp.nondegeneracy_report(gs, 8).verdict
    assert builds == {(96, k): 1 for k in range(9)} | {(gstate._COARSE_N, 0): 1}


def test_report_keeps_no_single_use_matrix(monkeypatch):
    # no G_k, k >= 2, is referenced once the report is made: each served
    # one sector, so none may stay in a cache
    single_use = []
    kernel = lsp.kernel_matrix

    def recorded_kernel(grid, k):
        G = kernel(grid, k)
        if k >= 2:
            single_use.append(weakref.ref(G))
        return G

    monkeypatch.setattr(lsp, "kernel_matrix", recorded_kernel)
    gs = gstate.solve_ground_state(rc.build_grid(3, 24.5, 96))
    assert lsp.nondegeneracy_report(gs, 8).verdict
    assert len(single_use) == 7
    assert [ref() for ref in single_use if ref() is not None] == []


def test_report_peak_memory_in_n2_arrays():
    # the report's traced peak, in N x N float arrays at N = 200: the
    # largest transient is the sector-order check's, the stiffness block,
    # M_1, M_0 - M_1 and its symmetric sum; B_k is formed in the buffer of
    # M + M^T, G_1 is gone before any sector but sector 1 is assembled, and
    # no kernel build holds an identity array.  Measured 4.22; 4.33 while
    # B_k was a copy of the block next to M and M + M^T, 5.34 while G_1
    # stayed cached and each kernel solved against an identity array, and
    # 6.49 while the stiffness's derivative rows took five temporaries.
    # Keeping every G_k, the free pair and S for the process, as a cache
    # per (grid, k) does, reads 14.4
    N = 200
    gs = gstate.solve_ground_state(rc.build_grid(3, 22.5, N))
    tracemalloc.start()
    try:
        lsp.nondegeneracy_report(gs, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * N * N * 8, peak / (N * N * 8)


def test_report_leaves_only_the_reused_matrices(monkeypatch):
    # after a report, the grid's Discretization and the kernel cache hold no
    # (N+1)^2 or N^2 float array but -Laplacian, H_(n-1) and G_0: no D1 or
    # D2 is kept, and G_1 is dropped after sector 1
    N = 200
    kernels = []
    build = npot._collocated_kernel

    def recorded(grid, k):
        G = build(grid, k)
        if grid.size == N:
            kernels.append((k, weakref.ref(G)))
        return G

    monkeypatch.setattr(npot, "_collocated_kernel", recorded)
    grid = rc.build_grid(3, 21.5, N)  # a key no other test builds
    gs = gstate.solve_ground_state(grid)
    assert lsp.nondegeneracy_report(gs, 8).verdict
    disc = rc.get_discretization(grid)
    held = [v for v in vars(disc).values() if isinstance(v, np.ndarray) and v.size >= N * N]
    assert sorted(map(id, held)) == sorted(map(id, (disc.neg_laplacian(), disc.head_moment())))
    alive = [k for k, ref in kernels if ref() is not None]
    assert alive == [0] and kernels[0][1]() is npot.kernel_matrix(grid, 0)


def test_each_report_builds_g1_once(monkeypatch):
    # G_1 is not cached: every report builds it once and reads it for both
    # the zero-mode residual and sector 1, a second report on the same grid
    # too
    builds = collections.Counter()
    build = npot._collocated_kernel

    def counted(grid, k):
        builds[k] += 1
        return build(grid, k)

    monkeypatch.setattr(npot, "_collocated_kernel", counted)
    gs = gstate.solve_ground_state(rc.build_grid(3, 20.5, 96))
    for _ in range(2):
        builds.clear()
        lsp.nondegeneracy_report(gs, 3)
        assert builds == {1: 1, 2: 1, 3: 1}


def _with_smallest_eigenvalue(lam_min, size=50, seed=7):
    """Q diag(lam_min, 1, ..., size - 1) Q^T, symmetric to the bit."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))
    A = (Q * np.r_[lam_min, 1.0:float(size)]) @ Q.T
    return 0.5 * (A + A.T)


def test_rounding_shift_formula_and_its_factorization():
    # Rump's shift from A's diagonal; D + tau I factors when D's smallest
    # eigenvalue is -tau/2 and not when it is -3 tau
    size = 50
    A = _with_smallest_eigenvalue(0.0, size)
    u = np.finfo(float).eps / 2.0
    gamma = (size + 1) * u / (1.0 - (size + 1) * u)
    d = np.abs(np.diag(A))
    expect = gamma / (1.0 - 2.0 * gamma) * d.sum() + 4.0 * 5e-324 * (2 * (size + 2) + d.max())
    tau = lsp.rounding_shift(A)
    assert tau == pytest.approx(expect, rel=1e-14)
    assert 1e-12 < tau < 1e-10
    for scale, factors in ((-0.5, True), (-3.0, False)):
        D = _with_smallest_eigenvalue(scale * tau, size)
        assert np.linalg.eigvalsh(D)[0] == pytest.approx(scale * tau, rel=1e-2)
        ok, shift = lsp._factors_with_shift(D)
        assert ok is factors and shift == pytest.approx(tau, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sector_order_holds_with_margin(n, reports):
    # B_1 - B_0's smallest eigenvalue is about (n-1)/r_max^2, 2.2e-3 to
    # 1.0e-2, and tau is below 1e-3 of it; the check reads lambda_20, the
    # smallest lambda_k0 of the solved k >= 2
    rep = reports[n][0]
    order = {c.name: c for c in rep.checks}["sectors k>=2 positive, k>=3 by the order"]
    assert order.ok and rep.order_factors
    assert order.value == rep.records[2].eigenvalues[0]
    r_max = rc.DEFAULT_R_MAX[n]
    assert 0.0 < rep.order_shift < 1e-3 * (n - 1) / r_max**2
    assert "B1 - B0 + tau I factors" in rep.to_text()


def test_scaled_m1_fails_the_sector_order(gs3, monkeypatch):
    # 4 M_1 outweighs M_0 near the diagonal: B_1 - B_0 then has an
    # eigenvalue far below -2 tau and its shifted factorization breaks
    grid = gs3.grid
    keep = lsp._stiffness_block(grid)[0]
    g0 = lsp.kernel_matrix(grid, 0)
    m1 = 4.0 * lsp._kernel_block(gs3, lsp.kernel_matrix(grid, 1))
    S = lsp._kernel_block(gs3, g0) - m1
    D = S + S.T
    D[np.diag_indices_from(D)] += rc.centrifugal_diagonal(grid, 1)[keep]
    tau = lsp.rounding_shift(D)
    assert np.linalg.eigvalsh(D)[0] < -2.0 * tau
    assert lsp._sector_order(gs3, m1, g0) == (False, tau)

    real = lsp._sector_order
    monkeypatch.setattr(lsp, "_sector_order", lambda gs, m, g: real(gs, 4.0 * m, g))
    rep = lsp.nondegeneracy_report(gs3, 2)
    failing = [c for c in rep.checks if not c.ok]
    assert [c.name for c in failing] == ["sectors k>=2 positive, k>=3 by the order"]
    assert failing[0].value == -math.inf and rep.records[2].eigenvalues[0] > 0.0
    assert "B1 - B0 + tau I does not factor" in rep.to_text()
    assert not rep.verdict


def test_scaled_g2_fails_the_sector_order(gs3, monkeypatch):
    kernel = lsp.kernel_matrix

    def scaled(grid, k):
        G = kernel(grid, k)
        return 20.0 * G if k == 2 else G

    monkeypatch.setattr(lsp, "kernel_matrix", scaled)
    rep = lsp.nondegeneracy_report(gs3, 2)
    lam = [rec.eigenvalues[0] for rec in rep.records]
    assert lam[2] < lam[1] and rep.order_factors
    failing = [c.name for c in rep.checks if not c.ok]
    assert failing == ["sectors k>=2 positive, k>=3 by the order"]


def test_two_negative_k0_eigenvalues_fail_the_morse_index(gs3, monkeypatch):
    # lambda_01 moved to -1 by a rank-one term on its eigenvector: the gap
    # min(|lambda_00|, |lambda_01|) stays open, and Morse index 1 fails
    assemble = lsp.assemble_sector

    def second_negative(gs, k):
        op = assemble(gs, k)
        if k == 0:
            vals, vecs = np.linalg.eigh(op.matrix)
            v = vecs[:, 1]
            op.matrix -= (vals[1] + 1.0) * np.outer(v, v)
        return op

    monkeypatch.setattr(lsp, "assemble_sector", second_negative)
    rep = lsp.nondegeneracy_report(gs3, 2)
    assert rep.records[0].eigenvalues[1] == pytest.approx(-1.0, abs=1e-9)
    assert [c.name for c in rep.checks if not c.ok] == ["k=0 Morse index 1"]


def test_default_sectors_are_the_first_rows_of_k_max_8(gs3, report3):
    rep = lsp.nondegeneracy_report(gs3, 2)
    assert [rec.degree for rec in rep.records] == [0, 1, 2]
    assert rep.to_csv_rows() == report3.to_csv_rows()[:4]
    assert rep.to_text().splitlines()[:9] == report3.to_text().splitlines()[:9]
    assert rep.checks == report3.checks
