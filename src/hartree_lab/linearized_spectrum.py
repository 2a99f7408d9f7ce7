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
nondegeneracy_report states these once, as its named checks.  It solves
sectors 0, 1 and 2 alone: every k >= 3 follows from sector 2 by the order

    L_(k+1) - L_k = (2k+n-1)/r^2 + 2 U (G_k - G_(k+1)) U >= 0,

the step E. Lenzmann takes for n = 3 (Anal. PDE 2 (2009)), which the
report checks on the matrices at its smallest centrifugal step, k = 0.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .ground_state import GroundState, profile_derivative, relative_defect
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
    built for this call alone (k >= 1, kernel_matrix) is gone before B_k,
    the one copy of the grid's cached stiffness block, exists.
    """
    return _assemble_sector(gs, k, _kernel_block(gs, kernel_matrix(gs.grid, k)))


def _kernel_block(gs: GroundState, G: np.ndarray) -> np.ndarray:
    """assemble_sector's M from G_k: its block on the kept nodes, a new
    array, scaled in place."""
    keep = _stiffness_block(gs.grid)[0]
    sw = np.sqrt(gs.grid.weights[keep])
    u = gs.profile.values[keep]
    M = G[np.ix_(keep, keep)]
    M *= (sw * u)[:, None]
    M *= (u / sw)[None, :]
    return M


def _assemble_sector(gs: GroundState, k: int, M: np.ndarray) -> SectorOperator:
    """assemble_sector's B_k from its M (_kernel_block), formed in the
    buffer of M + M^T, the same bits as block + diag - (M + M^T) out of
    place: block - (M + M^T) off the diagonal and
    (block_ii + diag_i) - (M + M^T)_ii on it."""
    grid = gs.grid
    keep, block = _stiffness_block(grid)
    diag = centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - gs.potential
    B = M + M.T
    sym_diag = B.diagonal().copy()
    np.subtract(block, B, out=B)
    np.fill_diagonal(B, (block.diagonal() + diag[keep]) - sym_diag)
    return SectorOperator(degree=k, grid=grid, keep=keep, matrix=B)


def rounding_shift(A: np.ndarray) -> float:
    """Rump's shift for a Cholesky factorization of the symmetric A in
    floating point (S. M. Rump, BIT 46 (2006)):

        c = gamma_(N+1) / (1 - 2 gamma_(N+1)) sum_i |A_ii|
            + 4 eta (2 (N + 2) + max_i |A_ii|),

    gamma_m = m u / (1 - m u), u = eps / 2 and eta the smallest subnormal.
    A factorization of A - c I that runs to completion proves A positive
    definite; c bounds the rounding of the factorization itself."""
    N = A.shape[0]
    finfo = np.finfo(A.dtype)
    mu = (N + 1) * (finfo.eps / 2.0)
    gamma = mu / (1.0 - mu)
    d = np.abs(A.diagonal())
    eta = float(finfo.smallest_subnormal)
    return gamma / (1.0 - 2.0 * gamma) * float(np.sum(d)) + 4.0 * eta * (
        2.0 * (N + 2) + float(np.max(d)))


def _factors_with_shift(D: np.ndarray) -> Tuple[bool, float]:
    """(whether D + tau I has a Cholesky factorization, tau), with tau =
    rounding_shift(D).  D's diagonal is shifted in place.  By Rump's
    theorem a completed factorization proves D + 2 tau I positive definite
    (to first order in eps): no eigenvalue of D lies at or below -2 tau."""
    tau = rounding_shift(D)
    D[np.diag_indices_from(D)] += tau
    try:
        np.linalg.cholesky(D)
    except np.linalg.LinAlgError:
        return False, tau
    return True, tau


def _sector_order(gs: GroundState, m1: np.ndarray, g0: np.ndarray) -> Tuple[bool, float]:
    """_factors_with_shift of B_1 - B_0 = C + (M_0 + M_0^T) - (M_1 + M_1^T),
    C = (n-1)/r^2 on the kept nodes, from sector 1's M (m1, unchanged) and
    M_0 from G_0 (g0, unchanged).  This is L_(k+1) - L_k at k = 0, the
    smallest centrifugal step of the order that carries sector 2 to every
    k >= 3; its smallest eigenvalue is about (n-1)/r_max^2."""
    grid = gs.grid
    keep = _stiffness_block(grid)[0]
    S = _kernel_block(gs, g0)
    S -= m1
    D = S + S.T
    del S
    D[np.diag_indices_from(D)] += centrifugal_diagonal(grid, 1)[keep]
    return _factors_with_shift(D)


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


def zero_mode_residual(gs: GroundState, g1: np.ndarray) -> float:
    """relative_defect of L_1 U' against U' (the translation zero mode),
    L_1 applied pointwise on G_1 = g1."""
    up = profile_derivative(gs)
    return relative_defect(gs.grid.weights, sector_apply_pointwise(gs, 1, up, g1), up)


def sector_apply_pointwise(gs: GroundState, k: int, f: np.ndarray,
                           G: np.ndarray) -> np.ndarray:
    """L_k f on the sector kernel G = G_k, by collocation rows on the free
    interpolant p of f.

    Identity vectors such as r U' carry small nonzero values at r_max; the
    Dirichlet-pinned basis would turn those into interpolation oscillations
    under differentiation, so pointwise identity checks differentiate p
    instead.  p has degree N - 1, so it is the interpolant of
    [f; p(r_max)] on the grid's node set, and the first N rows of the
    grid's -Laplacian apply to it in one matvec with no new N x N array.
    """
    grid = gs.grid
    u = gs.profile.values
    v = gs.potential
    nonlocal_term = 2.0 * u * (G @ (u * f))
    disc = get_discretization(grid)
    fx = np.append(f, disc.basis_eval([grid.r_max]) @ f)
    lap = disc.neg_laplacian()[:-1] @ fx
    diag = (centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - v) * f
    return lap + diag - nonlocal_term


def identity_defects(gs: GroundState) -> float:
    """LrU: relative_defect, against U, of the closed-form identity that L
    satisfies at U,

        L (r U') = -2 (1+mu) U + 4 (I2*U^2) U.

    L U = -2 (I2*U^2) U is not checked: on the collocated rows and the
    k = 0 kernel it is the equation residual, which the solver already
    bounds.  Nor is L (2U + rU') = -2 (1+mu) U, the derivative of the
    scaling family s^2 U(s r): its defect vector is exactly
    2 (L U + 2 (I2*U^2) U, on the free basis) + LrU's, so it restates
    these two (and at n = 4 they cancel to rounding).
    """
    grid = gs.grid
    u = gs.profile.values
    ru = grid.nodes * profile_derivative(gs)
    defect = (sector_apply_pointwise(gs, 0, ru, kernel_matrix(grid, 0))
              + 2.0 * (1.0 + gs.mass_shift) * u - 4.0 * gs.potential * u)
    return relative_defect(grid.weights, defect, u)


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
    order_factors: bool  # B_1 - B_0 + tau I has a Cholesky factorization
    order_shift: float  # tau
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
        factors = "factors" if self.order_factors else "does not factor"
        lines.append(
            f"k>=3 follow from k=2 by the order L_(k+1) >= L_k: B1 - B0 + tau I "
            f"{factors}, tau = {self.order_shift:.3e}"
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

    Sectors 0, 1 and 2 are solved always, and 3 <= k <= k_max as
    diagnostics: every k >= 3 follows from sector 2 by the order
    L_(k+1) >= L_k (module docstring).  The checks, the only statement of
    the certificate's conditions, each a value against tol_zero = 100 x
    zero-mode residual or against 0: |lambda_{1,0}| < tol_zero and
    lambda_{1,1} > tol_zero (a simple translation zero mode),
    min(-lambda_{0,0}, lambda_{0,1}) > tol_zero (Morse index 1 at k = 0,
    which implies the reported gap k0_min_abs > tol_zero), min_{2<=k<=k_max}
    lambda_{k,0} > tol_zero with B_1 - B_0 + tau I factoring, -inf if not
    (_sector_order), and the count of sectors whose ground eigenfunction
    changes sign <= 0 (Perron-Frobenius).  The verdict is that all of them
    pass; it implies lambda_{0,0} < lambda_{1,0} < lambda_{2,0}.  records
    holds each sector's SpectrumResult, two eigenvalues and the ground
    eigenvector, in degree order; a sector that raises raises here.

    G_1 is built once, for the zero-mode residual and sector 1's M, which
    with G_0 also serves the order check; sectors 2, 0 and 3..k_max follow,
    each from its own G_k.  With workers > 1 those sectors run on a bounded
    thread pool (the dense eigensolves release the GIL); the report is
    identical either way.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    grid = gs.grid
    _stiffness_block(grid)  # first: its transients come and go before any kernel is held
    g1 = kernel_matrix(grid, 1)
    zmr = zero_mode_residual(gs, g1)
    m1 = _kernel_block(gs, g1)
    del g1
    order_factors, order_shift = _sector_order(gs, m1, kernel_matrix(grid, 0))
    op = _assemble_sector(gs, 1, m1)
    del m1
    sector_one = lowest_eigenpairs(op, 2)
    del op
    tol_zero = 100.0 * zmr

    def solve_sector(k: int) -> SpectrumResult:
        return lowest_eigenpairs(assemble_sector(gs, k), 2)

    others = [2, 0, *range(3, k_max + 1)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(solve_sector, others))
    else:
        solved = [solve_sector(k) for k in others]
    records = sorted([sector_one, *solved], key=operator.attrgetter("degree"))
    lam = np.array([rec.eigenvalues for rec in records])  # row k: lambda_k0, lambda_k1
    k0_min_abs = float(np.min(np.abs(lam[0])))
    up = profile_derivative(gs)
    w = grid.weights
    phi10 = records[1].ground_eigenvector
    corr = abs(float(np.dot(w, phi10 * up))) / math.sqrt(
        float(np.dot(w, phi10**2)) * float(np.dot(w, up**2))
    )
    # NaN eigenvalues propagate through np.min and fail their checks
    morse = float(np.min([-lam[0, 0], lam[0, 1]]))
    positive = float(np.min(lam[2:, 0])) if order_factors else -math.inf
    checks = [
        Check("k=1 zero mode |lambda_10|", abs(float(lam[1, 0])), "<", tol_zero),
        Check("k=1 next eigenvalue lambda_11", float(lam[1, 1]), ">", tol_zero),
        Check("k=0 Morse index 1", morse, ">", tol_zero),
        Check("sectors k>=2 positive, k>=3 by the order", positive, ">", tol_zero),
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
        order_factors=order_factors,
        order_shift=order_shift,
        checks=checks,
    )
