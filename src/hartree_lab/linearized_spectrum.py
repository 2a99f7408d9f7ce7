"""Sector decomposition and spectra of the linearized operator at the ground
state.

On the degree-k spherical-harmonic sector the linearization acts on radial
profiles as

    L_k = -d2/dr2 - ((n-1)/r) d/dr + k(k+n-2)/r^2 + (1+mu) - (I2*U^2)
          - 2 U G_k (U .)

with G_k the sector kernel of the Newton potential, and U and mu taken from
the ground state.  The nondegeneracy structure to certify: L_1 U' = 0 with a
simple lowest eigenvalue, a trivial radial (k = 0) kernel, L_k > 0 for
k >= 2, and a node-free ground eigenfunction in every sector.
nondegeneracy_report states these once, as its named checks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .ground_state import GroundState, profile_derivative
from .newton_potential import kernel_matrix
from .radial_core import RadialGrid, centrifugal_diagonal, get_discretization

WEIGHT_DROP = 1e-15  # relative quadrature-weight floor for the eigen basis
SIGN_FLOOR = 1e-6  # entries below this times the largest carry no sign


@dataclass
class SectorOperator:
    """L_k in sqrt(w) coordinates, W^(1/2) L_k W^(-1/2), on the nodes kept
    by WEIGHT_DROP; symmetric by construction.  The pinned near-origin nodes
    carry ~r^(n-1) measure, but not none: keeping them (WEIGHT_DROP = 0)
    moves lambda_00 by 0 at n = 3, 9.0e-7 at n = 4 (N = 400), 2.2e-5 at
    n = 5 (N = 200) and 1.5e-5 at n = 5 (N = 400, lambda_01 by 2.8e-6);
    ROADMAP item 5 replaces the pin."""

    degree: int
    grid: RadialGrid
    keep: np.ndarray
    matrix: np.ndarray


@functools.lru_cache(maxsize=None)
def _stiffness_block(grid: RadialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes kept by WEIGHT_DROP and W^-1/2 S W^-1/2 on them, read-only;
    one per grid, since every sector starts from this block.  Entry
    S_ij / (sqrt(w_i) sqrt(w_j)) is exactly symmetric."""
    w = grid.weights
    keep = w >= WEIGHT_DROP * float(np.max(w))
    sw = np.sqrt(w[keep])
    block = get_discretization(grid).stiffness()[np.ix_(keep, keep)]
    block /= np.outer(sw, sw)
    keep.flags.writeable = False
    block.flags.writeable = False
    return keep, block


def assemble_sector(gs: GroundState, k: int) -> SectorOperator:
    """Assemble L_k at the ground state as the exactly symmetric
    B_k = W^-1/2 S W^-1/2 + diag(k(k+n-2)/r^2 + 1 + mu - v) - (M + M^T),
    M = W^1/2 U G_k U W^-1/2, S the Galerkin stiffness, with U, mu and
    v = I2*U^2 read off the state (v is the solver's own potential).  A
    negative k raises ValueError in kernel_matrix.

    M is G_k's kept block scaled in place, formed before B_k so that a G_k
    built for this call alone (k >= 2, kernel_matrix) is gone before B_k,
    the one copy of the grid's cached stiffness block, exists.
    """
    grid = gs.grid
    w = grid.weights
    keep, block = _stiffness_block(grid)
    sw = np.sqrt(w[keep])
    u = gs.profile.values[keep]
    M = kernel_matrix(grid, k)[np.ix_(keep, keep)]
    M *= (sw * u)[:, None]
    M *= (u / sw)[None, :]
    B = block.copy()
    diag = centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - gs.potential
    B[np.diag_indices_from(B)] += diag[keep]
    B -= M + M.T
    return SectorOperator(degree=k, grid=grid, keep=keep, matrix=B)


def _count_sign_changes(phi: np.ndarray) -> int:
    big = phi[np.abs(phi) > SIGN_FLOOR * float(np.max(np.abs(phi)))]
    if big.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(big[1:]) != np.sign(big[:-1])))


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: np.ndarray
    ground_eigenvector: np.ndarray  # node values, unit norm in the weighted inner product
    sign_changes: int  # of the ground eigenvector


def lowest_eigenpairs(op: SectorOperator, m: int) -> SpectrumResult:
    """The m smallest eigenvalues of B_k = op.matrix and the ground
    eigenvector: eigenvalues by numpy's eigvalsh (LAPACK syevd, no vectors),
    each within eps ||B_k||_2 (Weyl); the vector by one solve with
    B_k - sigma I on the ones vector, with a residual of order eps ||B_k||_2
    (Ipsen, SIAM Rev. 39 (1997)); sigma is the float below lambda_0, so an
    exactly computed lambda_0 leaves no zero pivot.  Below a zero or
    subnormal lambda_0 that float is subnormal too, and a pivot that small
    overflows the solve, so there sigma = -eps max|B_k|.  The shift is made
    on op.matrix's own diagonal, with no N x N copy, and the saved diagonal
    is put back bit for bit whether or not the solve returns.  The
    eigenvector holds node values x / sqrt(w) with sum w phi >= 0, zero on
    the pinned nodes."""
    B = op.matrix
    size = B.shape[0]
    if not 1 <= m <= size:
        raise ValueError(f"need 1 to {size} eigenpairs, got {m}")
    sw = np.sqrt(op.grid.weights[op.keep])
    vals = np.linalg.eigvalsh(B)[:m]
    finfo = np.finfo(B.dtype)
    if abs(vals[0]) < finfo.tiny:
        sigma = -finfo.eps * float(np.max(np.abs(B)))
    else:
        sigma = np.nextafter(vals[0], -np.inf)
    diagonal = B.diagonal().copy()
    try:
        np.fill_diagonal(B, diagonal - sigma)
        x = np.linalg.solve(B, np.ones(size))
    finally:
        np.fill_diagonal(B, diagonal)
    phi = np.zeros(op.grid.size)
    phi[op.keep] = x / math.copysign(np.linalg.norm(x), sw @ x) / sw
    return SpectrumResult(op.degree, vals, phi, _count_sign_changes(phi))


def zero_mode_residual(gs: GroundState) -> float:
    """|| L_1 U' || / || U' || in the weighted norm (translation zero mode),
    by pointwise application of the degree-1 sector operator."""
    up = profile_derivative(gs)
    w = gs.grid.weights
    defect = sector_apply_pointwise(gs, 1, up)
    return math.sqrt(float(np.dot(w, defect**2)) / float(np.dot(w, up**2)))


def sector_apply_pointwise(gs: GroundState, k: int, f: np.ndarray) -> np.ndarray:
    """L_k f by collocation rows on the free interpolant p of f.

    Identity vectors such as r U' carry small nonzero values at r_max; the
    Dirichlet-pinned basis would turn those into interpolation oscillations
    under differentiation, so pointwise identity checks differentiate p
    instead.  p has degree N - 1, so it is the interpolant of
    [f; p(r_max)] on the grid's node set, and the first N rows of the
    grid's cached -Laplacian, Discretization.neg_laplacian, apply to it in
    one matvec with no new N x N array.
    """
    grid = gs.grid
    u = gs.profile.values
    v = gs.potential
    nonlocal_term = 2.0 * u * (kernel_matrix(grid, k) @ (u * f))
    disc = get_discretization(grid)
    fx = np.append(f, disc.basis_eval([grid.r_max]) @ f)
    lap = disc.neg_laplacian()[:-1] @ fx
    diag = (centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - v) * f
    return lap + diag - nonlocal_term


def identity_defects(gs: GroundState) -> Dict[str, float]:
    """Relative defect of the closed-form identity satisfied by L at U,

        L (r U') = -2 (1+mu) U + 4 (I2*U^2) U,

    measured against ||U|| in the weighted norm, under the key "LrU".
    L U = -2 (I2*U^2) U is not checked: on the collocated rows and the
    k = 0 kernel it is the equation residual, which the solver already
    bounds.  Nor is L (2U + rU') = -2 (1+mu) U, the derivative of the
    scaling family s^2 U(s r): its defect vector is exactly
    2 (L U + 2 (I2*U^2) U, on the free basis) + LrU's, so it restates
    these two (and at n = 4 they cancel to rounding).
    """
    grid = gs.grid
    w = grid.weights
    u = gs.profile.values
    v = gs.potential
    r = grid.nodes
    ru = r * profile_derivative(gs)
    norm_u = math.sqrt(float(np.dot(w, u**2)))
    two_freq_u = 2.0 * (1.0 + gs.mass_shift) * u
    defect = sector_apply_pointwise(gs, 0, ru) + two_freq_u - 4.0 * v * u
    return {"LrU": math.sqrt(float(np.dot(w, defect**2))) / norm_u}


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """One declared check: it passes when value relation bound holds, so a
    NaN value fails every relation."""

    name: str
    value: float
    relation: str
    bound: float

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"check relation must be one of {tuple(_RELATIONS)}")

    @property
    def ok(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    def __str__(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"[{tag}] {self.name} ({self.value:.4g} {self.relation} {self.bound:.4g})"


@dataclass
class NondegeneracyReport:
    dim: int
    grid_header: str
    records: List[SpectrumResult]
    k0_min_abs: float
    tol_zero: float
    zero_mode_residual: float
    u_prime_correlation: float
    checks: List[Check]

    @property
    def verdict(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"nondegeneracy report  n={self.dim}",
            f"grid: {self.grid_header}",
            f"zero-mode residual ||L1 U'||/||U'|| = {self.zero_mode_residual:.6e}",
            f"tol_zero = {self.tol_zero:.6e}  (100 x zero-mode residual)",
            f"k=0 kernel gap min|lambda| = {self.k0_min_abs:.6e}",
            f"corr(phi_10, U') = {self.u_prime_correlation:.10f}",
        ]
        for rec in self.records:
            lam0, lam1 = rec.eigenvalues
            lines.append(
                f"k={rec.degree}: lambda0={lam0:.10e}"
                f"  lambda1={lam1:.10e}"
                f"  sign_changes={rec.sign_changes}"
            )
        lines.append(f"verdict: {'nondegenerate' if self.verdict else 'NOT CERTIFIED'}")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> List[List[str]]:
        rows = [["k", "lambda0", "lambda1", "zero_mode_residual"]]
        for rec in self.records:
            lam0, lam1 = rec.eigenvalues
            zmr = f"{self.zero_mode_residual:.17g}" if rec.degree == 1 else ""
            rows.append([str(rec.degree), f"{lam0:.17g}", f"{lam1:.17g}", zmr])
        return rows


def nondegeneracy_report(
    gs: GroundState,
    k_max: int,
    workers: int = 1,
) -> NondegeneracyReport:
    """Aggregate per-sector spectra into the nondegeneracy certificate.

    Its checks, the only statement of the certificate's conditions, each a
    value against tol_zero = 100 x zero-mode residual or against 0:
    |lambda_{1,0}| < tol_zero and lambda_{1,1} > tol_zero (a simple
    translation zero mode), min(|lambda_{0,0}|, |lambda_{0,1}|) > tol_zero
    (trivial radial kernel), min_{2<=k<=k_max} lambda_{k,0} > 0 (positive
    sectors), and the count of sectors whose ground eigenfunction changes
    sign <= 0 (Perron-Frobenius).  The verdict is that all of them pass.
    records holds each sector's SpectrumResult, two eigenvalues and the
    ground eigenvector; a sector that raises raises here.

    Sectors are independent jobs; with workers > 1 they run on a bounded
    thread pool (the dense eigensolves release the GIL).  Results are
    merged by degree, so the report is identical either way.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    grid = gs.grid
    zmr = zero_mode_residual(gs)
    tol_zero = 100.0 * zmr

    def solve_sector(k: int) -> SpectrumResult:
        return lowest_eigenpairs(assemble_sector(gs, k), 2)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(solve_sector, range(k_max + 1)))
    else:
        records = [solve_sector(k) for k in range(k_max + 1)]
    lam = np.array([rec.eigenvalues for rec in records])  # row k: lambda_k0, lambda_k1
    k0_min_abs = float(np.min(np.abs(lam[0])))
    up = profile_derivative(gs)
    w = grid.weights
    phi10 = records[1].ground_eigenvector
    corr = abs(float(np.dot(w, phi10 * up))) / math.sqrt(
        float(np.dot(w, phi10**2)) * float(np.dot(w, up**2))
    )
    checks = [
        Check("k=1 zero mode |lambda_10|", abs(float(lam[1, 0])), "<", tol_zero),
        Check("k=1 next eigenvalue lambda_11", float(lam[1, 1]), ">", tol_zero),
        Check("k=0 kernel gap", k0_min_abs, ">", tol_zero),
        Check("positive sectors k>=2", float(np.min(lam[2:, 0])), ">", 0.0),
        Check("node-free sector ground states",
              sum(1 for rec in records if rec.sign_changes), "<=", 0),
    ]
    return NondegeneracyReport(
        dim=gs.dim,
        grid_header=grid.header(),
        records=records,
        k0_min_abs=k0_min_abs,
        tol_zero=tol_zero,
        zero_mode_residual=zmr,
        u_prime_correlation=corr,
        checks=checks,
    )
