"""Sector operators, spectra, operator identities, nondegeneracy report."""

import math

import numpy as np
import pytest

from hartree_lab import ground_state as gstate
from hartree_lab import linearized_spectrum as lsp
from hartree_lab import radial_core as rc
from hartree_lab.newton_potential import sector_kernel_value


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


def test_centrifugal_term_exact(gs3):
    g = gs3.grid
    op0 = lsp.assemble_sector(gs3, 0, include_nonlocal=False)
    r = g.nodes[op0.keep]
    for k in (1, 2, 5):
        ak = lsp.assemble_sector(gs3, k, include_nonlocal=False).matrix
        diff = ak - op0.matrix
        # off-diagonal parts are shared and cancel exactly; the diagonal
        # carries the centrifugal coefficient up to rounding of the sums
        assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0
        ratio = np.diag(diff) * r**2 / (k * (k + g.dim - 2))
        assert np.max(np.abs(ratio - 1.0)) < 1e-6


def test_identity_LU(gs3):
    defects = lsp.identity_defects(gs3)
    assert defects["LU"] < 50.0 * 1e-10


def test_identity_suite(gs3):
    defects = lsp.identity_defects(gs3)
    assert defects["LrU"] < 1e-4
    assert defects["L2UrU"] < 1e-4
    assert set(defects) == {"LU", "LrU", "L2UrU"}


def test_wrong_sign_probe(gs3):
    # flipping the sign of the right side must leave an O(1) defect
    g = gs3.grid
    w = g.weights
    u = gs3.profile.values
    ru = g.nodes * gstate.profile_derivative(gs3)
    wrong = lsp.sector_apply_pointwise(gs3, 0, 2.0 * u + ru) - 2.0 * u
    rel = math.sqrt(float(np.dot(w, wrong**2)) / float(np.dot(w, u**2)))
    assert rel >= 1.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zero_mode(n, ground_states, reports):
    report = reports[n][0]
    zmr = lsp.zero_mode_residual(ground_states[n][0])
    assert zmr < 1e-6
    rec = report.records[1]
    assert abs(rec.lambda0) < 100.0 * zmr
    assert report.u_prime_correlation > 0.999


def test_k0_trivial_kernel(report3):
    assert report3.k0_min_abs > report3.tol_zero > 0.0
    # one negative direction (mountain pass) and then a genuine gap
    assert report3.records[0].lambda0 < 0.0
    assert report3.records[0].lambda1 > 0.1


def test_default_gap_bound_is_tol_zero(report3):
    # the k = 0 gap is compared with a bound that does not depend on it
    gap = {name: detail for name, _, detail in report3.checks}["k=0 kernel gap"]
    assert gap == f"min|lambda|={report3.k0_min_abs:.3e} vs {report3.tol_zero:.3e}"


def test_double_zero_mode_not_certified(gs3, monkeypatch):
    solve = lsp.lowest_eigenpairs

    def double_zero(op, m):
        spec = solve(op, m)
        if op.degree == 1:
            spec.eigenvalues[1] = spec.eigenvalues[0]
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", double_zero)
    rep = lsp.nondegeneracy_report(gs3, 2)
    assert abs(rep.records[1].lambda0) < rep.tol_zero
    assert [name for name, ok, _ in rep.checks if not ok] == ["k=1 zero mode"]
    assert not rep.verdict
    assert "NOT CERTIFIED" in rep.to_text()


def test_positive_sectors_and_Wk(report3):
    for rec in report3.records:
        assert rec.error is None
        if rec.degree >= 2:
            assert rec.lambda0 > 0.0
            assert rec.w_k > 0.0


def test_lambda_monotone_in_k(report3):
    lams = [rec.lambda0 for rec in report3.records if rec.degree >= 1]
    assert all(b > a for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perron_frobenius_structure(n, reports):
    for rec in reports[n][0].records:
        assert rec.lambda1 - rec.lambda0 > 0.0
        assert rec.sign_changes == 0, rec.degree


def test_nodal_sector_ground_state_not_certified(gs3, monkeypatch):
    solve = lsp.lowest_eigenpairs

    def nodal(op, m):
        spec = solve(op, m)
        if op.degree == 3:
            spec.ground_eigenfunction_sign_changes = 1
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", nodal)
    rep = lsp.nondegeneracy_report(gs3, 4)
    assert rep.records[3].sign_changes == 1
    assert all(rec.lambda0 > 0.0 for rec in rep.records[2:])
    assert not rep.verdict
    assert "NOT CERTIFIED" in rep.to_text()


def test_eigenvectors_weighted_orthonormal(gs3):
    op = lsp.assemble_sector(gs3, 2)
    spec = lsp.lowest_eigenpairs(op, 3)
    w = gs3.grid.weights
    gram = spec.eigenvectors.T @ (w[:, None] * spec.eigenvectors)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8


@pytest.mark.parametrize("n", [3, 5])
def test_lowest_eigenpairs_match_subset_eigh(n):
    # numpy's full eigh (syevd) against scipy's subset eigh (syevr) on the
    # same B_k: each of the two lowest eigenvalues within eps ||B_k||_2 (Weyl)
    from scipy.linalg import eigh

    gs = gstate.solve_ground_state(rc.build_grid(n, rc.DEFAULT_R_MAX[n], 200))
    for k in range(9):
        op = lsp.assemble_sector(gs, k)
        ref = eigh(op.matrix, eigvals_only=True, subset_by_index=(0, 1))
        bound = np.finfo(float).eps * np.linalg.norm(op.matrix, 2)
        vals = lsp.lowest_eigenpairs(op, 2).eigenvalues
        assert np.max(np.abs(vals - ref)) <= bound, (k, vals - ref, bound)


def test_Wk_consistency_with_lambda(gs3, report3):
    # lambda_{k,0} = <phi, L_1 phi> + W_k with a nonnegative first term
    # op1.matrix acts on sqrt(w) phi over the kept nodes, where phi lives
    op1 = lsp.assemble_sector(gs3, 1)
    sw = np.sqrt(gs3.grid.weights[op1.keep])
    for rec in report3.records:
        if rec.degree < 2:
            continue
        spec = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, rec.degree), 1)
        x = sw * spec.eigenvectors[op1.keep, 0]
        pairing = float(x @ (op1.matrix @ x))
        assert pairing >= -1e-8
        assert rec.lambda0 >= rec.w_k - 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_Wk_is_operator_pairing(n, ground_states):
    # W_k = <phi, (L_k - L_1) phi> read off the assembled operators at
    # x = sqrt(w) phi on the kept nodes
    gs = ground_states[n][0]
    op1 = lsp.assemble_sector(gs, 1)
    sw = np.sqrt(gs.grid.weights[op1.keep])
    for k in (2, 4, 8):
        opk = lsp.assemble_sector(gs, k)
        phi = lsp.lowest_eigenpairs(opk, 1).eigenvectors[:, 0]
        x = sw * phi[op1.keep]
        pairing = float(x @ ((opk.matrix - op1.matrix) @ x))
        wk = lsp.compute_Wk(gs, phi, k)
        assert abs(wk - pairing) <= 1e-10 * abs(pairing), (n, k)


def test_Wk_centrifugal_lower_bound(gs3, report3):
    # the kernel difference G_1 - G_k is pointwise positive, so W_k is at
    # least the centrifugal part
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        r, rho = np.exp(rng.uniform(-2, 3, size=2))
        assert sector_kernel_value(3, 1, r, rho) > sector_kernel_value(3, k, r, rho)
    g = gs3.grid
    w, r = g.weights, g.nodes
    for rec in report3.records:
        k = rec.degree
        if k < 2:
            continue
        spec = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, k), 1)
        phi = spec.eigenvectors[:, 0]
        centrifugal = float(
            np.dot(w, (k * (k + 1) - 2.0) / r**2 * phi**2)
        )
        assert rec.w_k >= centrifugal - 1e-10


def test_compute_Wk_guards(gs3):
    with pytest.raises(ValueError):
        lsp.compute_Wk(gs3, gs3.profile.values, 1)


def test_zeroed_nonlocal_term_breaks_zero_mode(gs3, report3):
    # dropping the rank-structured kernel removes the translation zero mode:
    # the k=1 bottom jumps to a strictly positive O(1) value
    op = lsp.assemble_sector(gs3, 1, include_nonlocal=False)
    spec = lsp.lowest_eigenpairs(op, 1)
    assert spec.eigenvalues[0] > 100.0 * report3.tol_zero
    assert spec.eigenvalues[0] > 0.1


def test_mu_scaling_of_sector_spectra(gs3):
    mu = 0.3
    z = gstate.rescale_state(gs3, mu)
    for k in (0, 1, 2):
        bare = lsp.lowest_eigenpairs(lsp.assemble_sector(gs3, k), 2).eigenvalues
        resc = lsp.lowest_eigenpairs(
            lsp.assemble_sector_from_profile(
                gs3.grid, z.values, k, mass_shift=mu
            ),
            2,
        ).eigenvalues
        err = np.abs(resc - (1.0 + mu) * bare) / np.maximum(
            np.abs((1.0 + mu) * bare), 1.0
        )
        assert np.max(err) < 1e-4


def test_zero_mode_refinement_order():
    # residual decays at order >= 1.8 before the rounding floor
    zmrs = []
    for N in (48, 96):
        g = rc.build_grid(3, 30.0, N)
        gs = gstate.solve_ground_state(g, gstate.SolverConfig(tol=1e-9))
        zmrs.append(lsp.zero_mode_residual(gs))
    slope = -math.log(zmrs[1] / zmrs[0]) / math.log(2.0)
    assert slope >= 1.8


def test_report_serialization(report3):
    text = report3.to_text()
    assert "verdict: nondegenerate" in text
    rows = report3.to_csv_rows()
    assert rows[0] == ["k", "lambda0", "lambda1", "zero_mode_residual", "W_k"]
    assert len(rows) == 10
    # zero-mode residual recorded on the k=1 row, W_k from k=2 on
    assert rows[2][3] != ""
    assert rows[3][4] != ""


def test_report_requires_kmax(gs3):
    with pytest.raises(ValueError):
        lsp.nondegeneracy_report(gs3, 1)


def test_report_parallel_workers_identical(gs3, report3):
    par = lsp.nondegeneracy_report(gs3, 8, workers=2)
    assert par.verdict == report3.verdict
    for a, b in zip(par.records, report3.records):
        assert a.lambda0 == b.lambda0
        assert a.lambda1 == b.lambda1
        assert a.w_k == b.w_k


def test_assemble_guards(gs3):
    with pytest.raises(ValueError):
        lsp.assemble_sector(gs3, -1)
    with pytest.raises(ValueError):
        lsp.assemble_sector(gs3, 0, mu=-2.0)
    op = lsp.assemble_sector(gs3, 0)
    with pytest.raises(ValueError):
        lsp.lowest_eigenpairs(op, 0)
    size = op.matrix.shape[0]
    assert lsp.lowest_eigenpairs(op, size).eigenvalues.shape == (size,)
    with pytest.raises(ValueError):  # more pairs than kept nodes
        lsp.lowest_eigenpairs(op, size + 1)
