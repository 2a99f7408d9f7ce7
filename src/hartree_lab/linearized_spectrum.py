"""Sector decomposition and spectra of the linearized operator at the ground
state.

On the degree-k spherical-harmonic sector the linearization acts on radial
profiles as

    L_k = -d2/dr2 - ((n-1)/r) d/dr + k(k+n-2)/r^2 + (1+mu) - (I2*U^2)
          - 2 U G_k (U .)

with G_k the sector kernel of the Newton potential.  The nondegeneracy
structure to certify: L_1 U' = 0 with a simple lowest eigenvalue, a trivial
radial (k = 0) kernel, L_k > 0 for k >= 2 with the explicit positive gap
W_k = <phi, (L_k - L_1) phi>, and a node-free ground eigenfunction in every
sector.  nondegeneracy_report states these once, as its named checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .ground_state import GroundState, profile_derivative
from .newton_potential import kernel_matrix
from .radial_core import RadialGrid, get_discretization

WEIGHT_DROP = 1e-15  # relative quadrature-weight floor for the eigen basis


@dataclass
class SectorOperator:
    """L_k in sqrt(w) coordinates, W^(1/2) L_k W^(-1/2), on the nodes kept
    by WEIGHT_DROP; symmetric by construction.  The pinned near-origin nodes
    carry ~r^(n-1) measure: Rayleigh quotients move by less than ~1e-6."""

    degree: int
    grid: RadialGrid
    keep: np.ndarray
    matrix: np.ndarray


def centrifugal_diagonal(grid: RadialGrid, k: int) -> np.ndarray:
    return k * (k + grid.dim - 2) / grid.nodes**2


def assemble_sector_from_profile(
    grid: RadialGrid,
    values: np.ndarray,
    k: int,
    mass_shift: float = 0.0,
    include_nonlocal: bool = True,
) -> SectorOperator:
    """Assemble L_k at an arbitrary positive radial profile U as the exactly
    symmetric B_k = W^-1/2 S W^-1/2 + diag(k(k+n-2)/r^2 + 1 + mu - v)
    - (M + M^T), M = W^1/2 U G_k U W^-1/2, S the Galerkin stiffness.  v is
    I2*U^2 of this profile, so rescaled solitons get a consistent diagonal.
    """
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    if 1.0 + mass_shift <= 0.0:
        raise ValueError("mass shift must satisfy 1 + mu > 0")
    w = grid.weights
    keep = w >= WEIGHT_DROP * float(np.max(w))
    kept = np.ix_(keep, keep)
    B = get_discretization(grid).weighted_stiffness()[kept]
    v = kernel_matrix(grid, 0) @ values**2
    diag = centrifugal_diagonal(grid, k) + (1.0 + mass_shift) - v
    B[np.diag_indices_from(B)] += diag[keep]
    if include_nonlocal:
        sw = np.sqrt(w[keep])
        u = values[keep]
        M = ((sw * u)[:, None] * kernel_matrix(grid, k)[kept]) * (u / sw)[None, :]
        B -= M + M.T
    return SectorOperator(degree=k, grid=grid, keep=keep, matrix=B)


def assemble_sector(
    gs: GroundState, k: int, mu: float = 0.0, include_nonlocal: bool = True
) -> SectorOperator:
    return assemble_sector_from_profile(
        gs.grid, gs.profile.values, k, mass_shift=mu, include_nonlocal=include_nonlocal
    )


def _count_sign_changes(phi: np.ndarray, rel_floor: float = 1e-6) -> int:
    big = phi[np.abs(phi) > rel_floor * float(np.max(np.abs(phi)))]
    if big.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(big[1:]) != np.sign(big[:-1])))


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit norm in the weighted inner product
    ground_eigenfunction_sign_changes: int


def lowest_eigenpairs(op: SectorOperator, m: int) -> SpectrumResult:
    """m smallest eigenpairs from numpy's full eigh of op.matrix (LAPACK
    syevd), each eigenvalue within eps ||B_k||_2 of the exact one (Weyl); the
    eigenvectors are node values x / sqrt(w), zero on the pinned nodes."""
    if m < 1:
        raise ValueError("need at least one eigenpair")
    if m > op.matrix.shape[0]:
        raise ValueError(f"need at most {op.matrix.shape[0]} eigenpairs, got {m}")
    w = op.grid.weights
    vals, vecs = np.linalg.eigh(op.matrix)
    vals, vecs = vals[:m], vecs[:, :m]
    phis = np.zeros((op.grid.size, m))
    phis[op.keep] = vecs / np.sqrt(w[op.keep])[:, None]
    for j in range(m):
        if float(np.dot(w, phis[:, j])) < 0.0:
            phis[:, j] = -phis[:, j]
    return SpectrumResult(
        degree=op.degree,
        eigenvalues=vals,
        eigenvectors=phis,
        ground_eigenfunction_sign_changes=_count_sign_changes(phis[:, 0]),
    )


def zero_mode_residual(gs: GroundState) -> float:
    """|| L_1 U' || / || U' || in the weighted norm (translation zero mode),
    by pointwise application of the degree-1 sector operator."""
    up = profile_derivative(gs)
    w = gs.grid.weights
    defect = sector_apply_pointwise(gs, 1, up)
    return math.sqrt(float(np.dot(w, defect**2)) / float(np.dot(w, up**2)))


def sector_apply_pointwise(
    gs: GroundState, k: int, f: np.ndarray, mu: float = 0.0, bc: str = "free"
) -> np.ndarray:
    """L_k f by collocation rows on the bc basis (free by default).

    Identity vectors such as r U' carry small nonzero values at r_max; the
    Dirichlet-pinned basis would turn those into interpolation oscillations
    under differentiation, so pointwise identity checks differentiate the
    free interpolant instead.
    """
    grid = gs.grid
    disc = get_discretization(grid)
    r = grid.nodes
    n = grid.dim
    u = gs.profile.values
    v = gs.potential.values
    lap = -(disc.d2(bc) @ f) - (n - 1) / r * (disc.d1(bc) @ f)
    diag = (centrifugal_diagonal(grid, k) + (1.0 + mu) - v) * f
    nonlocal_term = 2.0 * u * (kernel_matrix(grid, k) @ (u * f))
    return lap + diag - nonlocal_term


def identity_defects(gs: GroundState) -> Dict[str, float]:
    """Relative defects of the closed-form identities satisfied by L at U:

        L U          = -2 (I2*U^2) U
        L (r U')     = -2 U + 4 (I2*U^2) U
        L (2U + rU') = -2 U

    all measured against ||U|| in the weighted norm.
    """
    grid = gs.grid
    w = grid.weights
    u = gs.profile.values
    v = gs.potential.values
    r = grid.nodes
    ru = r * profile_derivative(gs)
    norm_u = math.sqrt(float(np.dot(w, u**2)))

    def rel(vec):
        return math.sqrt(float(np.dot(w, vec**2))) / norm_u

    # U decays compatibly with the pinned basis, so LU takes its collocated
    # rows, the ones the equation residual uses; the rU' combinations carry
    # small nonzero values at r_max and are differentiated on the free basis
    return {
        "LU": rel(sector_apply_pointwise(gs, 0, u, bc="dirichlet") + 2.0 * v * u),
        "LrU": rel(sector_apply_pointwise(gs, 0, ru) + 2.0 * u - 4.0 * v * u),
        "L2UrU": rel(sector_apply_pointwise(gs, 0, 2.0 * u + ru) + 2.0 * u),
    }


def compute_Wk(gs: GroundState, phi: np.ndarray, k: int) -> float:
    """Explicit positive gap W_k = <phi, (L_k - L_1) phi> for k >= 2:

        W_k = int [k(k+n-2) - (n-1)]/r^2 phi^2 r^(n-1) dr
              + 2 iint U phi (G_1 - G_k) U phi  (weighted double quadrature)

    with G_1 and G_k the sector kernels that assemble_sector uses, so W_k
    is the pairing x^T (B_k - B_1) x of the assembled operators at
    x = sqrt(w) phi.  G_1 - G_k > 0 pointwise for k >= 2, so W_k is at
    least its centrifugal part.
    """
    if k < 2:
        raise ValueError("W_k is defined for k >= 2")
    grid = gs.grid
    n = grid.dim
    w = grid.weights
    r = grid.nodes
    u = gs.profile.values
    uphi = u * phi
    centrifugal = float(
        np.dot(w, (k * (k + n - 2) - (n - 1)) / r**2 * phi**2)
    )
    gk_apply = kernel_matrix(grid, k) @ uphi
    g1_apply = kernel_matrix(grid, 1) @ uphi
    return centrifugal + 2.0 * float(np.dot(w, uphi * (g1_apply - gk_apply)))


@dataclass
class SectorRecord:
    degree: int
    lambda0: float
    lambda1: float
    sign_changes: int
    w_k: Optional[float] = None
    error: Optional[str] = None


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
    records: List[SectorRecord]
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
            if rec.error is not None:
                lines.append(f"k={rec.degree}: ERROR {rec.error}")
                continue
            extra = ""
            if rec.w_k is not None:
                extra = f"  W_k={rec.w_k:.6e}"
            lines.append(
                f"k={rec.degree}: lambda0={rec.lambda0:.10e}"
                f"  lambda1={rec.lambda1:.10e}"
                f"  sign_changes={rec.sign_changes}{extra}"
            )
        lines.append(f"verdict: {'nondegenerate' if self.verdict else 'NOT CERTIFIED'}")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> List[List[str]]:
        rows = [["k", "lambda0", "lambda1", "zero_mode_residual", "W_k"]]
        for rec in self.records:
            if rec.error is not None:
                rows.append([str(rec.degree), "error", "error", "", ""])
                continue
            zmr = f"{self.zero_mode_residual:.17g}" if rec.degree == 1 else ""
            wk = f"{rec.w_k:.17g}" if rec.w_k is not None else ""
            rows.append(
                [
                    str(rec.degree),
                    f"{rec.lambda0:.17g}",
                    f"{rec.lambda1:.17g}",
                    zmr,
                    wk,
                ]
            )
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
    sign <= 0 (Perron-Frobenius).  The verdict is that all of them pass; a
    sector that raised records NaN eigenvalues, which fail every check
    that reads them.

    Sectors are independent jobs; with workers > 1 they run on a bounded
    thread pool (the dense eigensolves release the GIL).  Results are
    merged by degree, so the report is identical either way.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    grid = gs.grid
    zmr = zero_mode_residual(gs)
    tol_zero = 100.0 * zmr

    def solve_sector(k: int) -> SectorRecord:
        spec = lowest_eigenpairs(assemble_sector(gs, k), 2)
        rec = SectorRecord(
            degree=k,
            lambda0=float(spec.eigenvalues[0]),
            lambda1=float(spec.eigenvalues[1]),
            sign_changes=spec.ground_eigenfunction_sign_changes,
        )
        if k >= 2:
            phi = spec.eigenvectors[:, 0]
            rec.w_k = compute_Wk(gs, phi, k)
        return rec, spec

    records: List[SectorRecord] = []
    spectra: Dict[int, SpectrumResult] = {}

    def guarded(k):
        try:
            return k, solve_sector(k), None
        except Exception as exc:  # keep other sectors alive
            return k, None, str(exc)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(guarded, range(k_max + 1)))
    else:
        results = [guarded(k) for k in range(k_max + 1)]
    for k, payload, err in results:
        if err is not None:
            records.append(SectorRecord(k, math.nan, math.nan, 0, error=err))
        else:
            rec, spec = payload
            records.append(rec)
            spectra[k] = spec
    k0_min_abs = min(abs(records[0].lambda0), abs(records[0].lambda1))
    up = profile_derivative(gs)
    w = grid.weights
    if 1 in spectra:
        phi10 = spectra[1].eigenvectors[:, 0]
        corr = abs(float(np.dot(w, phi10 * up))) / math.sqrt(
            float(np.dot(w, phi10**2)) * float(np.dot(w, up**2))
        )
    else:
        corr = math.nan
    checks = [
        Check("k=1 zero mode |lambda_10|", abs(records[1].lambda0), "<", tol_zero),
        Check("k=1 next eigenvalue lambda_11", records[1].lambda1, ">", tol_zero),
        Check("k=0 kernel gap", k0_min_abs, ">", tol_zero),
        Check("positive sectors k>=2",
              float(np.min([rec.lambda0 for rec in records[2:]])), ">", 0.0),
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
