"""Independent references the tests compare the pipelines against.

Adaptive-quadrature Newton potentials, the zonal-harmonic series of the
kernel, a symmetric double quadrature of the interaction integral, an
exponential-rate fit, the fit of the profile against its decay
asymptotics, the batched Newton search on grad V with a fixed
step limit, the greedy first-kept rule on its end points one pair at a
time, the classification of the kept points one point at a time, the
bisection for the separatrix W(0) that ground_state
tabulates, its shots classified by solve_ivp events, the separatrix on
solve_ivp's DOP853, the shooting profile with its far field completed by
solve_ivp's DOP853 dense output, the barycentric weights one node at a
time by log-sums and the error of any weights against exact rational
products, the differentiation matrices, the collocated -Laplacian of
sector k (with the kernel's Robin solve on it) and the sector matrix B_k
with a new array for every operation, the free-basis differentiation pair
on the grid nodes alone and L_k applied through it, the masked barycentric basis
evaluation, the cumulative-moment
matrix summed over basis_eval rows by its composite rule and by one Gauss
rule per row, the Galerkin stiffness from the derivative of the
barycentric formula, the Gauss-Legendre rule by Newton's method on the
three-term recurrence, the rescaled soliton (1+mu) U(sqrt(1+mu) r) resampled on
the grid, the shell moments of the rescaled soliton on every node of
U's grid, the fixed-point Newton solve from the Nehari-scaled Gaussian on
the target grid alone, the real spherical harmonics from
scipy's sph_harm_y and the multipole check's expansion summed over them
one (k, m) at a time, the multipole check's zonal projection summed over
a sphere cloud, the Gauss-Gegenbauer rule from scipy's
roots_gegenbauer, a midpoint-rule 3D Newton potential with a
singular-cell correction, and a tensor Gauss-Legendre 3D Newton potential
for smooth densities, the n = 3 cross-check of the multipole check's
closed-form oracle.
The closed-form kernels K and G_k, the radial derivative of the Newton
potential by its cumulative moment, the equation residual of a solved
state and the bare interaction constant C0 are oracles too.
No pipeline of the package runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import eval_gegenbauer, roots_gegenbauer, sph_harm_y

from hartree_lab import ground_state as gstate
from hartree_lab import linearized_spectrum as lsp
from hartree_lab import semiclassical as sc
from hartree_lab.ground_state import GroundState
from hartree_lab.newton_potential import (
    N_RADIAL,
    SOURCE_CENTER,
    SOURCE_WIDTH,
    kernel_matrix,
)
from hartree_lab.radial_core import (
    Discretization,
    RadialFunction,
    RadialGrid,
    build_grid,
    centrifugal_diagonal,
    get_discretization,
    legendre_rule,
    sphere_area,
    sphere_product_rule,
)


def kernel_K(n: int, r: float, rho: float) -> float:
    """Inner-region kernel K(r, rho) = rho/(n-2) (1 - rho^{n-2}/r^{n-2}), rho <= r."""
    if r <= 0.0 or rho <= 0.0:
        raise ValueError("kernel_K requires positive radii")
    if rho > r:
        raise ValueError(f"kernel_K requires rho <= r, got rho={rho} > r={r}")
    return rho / (n - 2) * (1.0 - (rho / r) ** (n - 2))


def sector_kernel_value(n: int, k: int, r, rho):
    """G_k(r, rho) = (1/(2k+n-2)) r_<^k / r_>^{k+n-2}."""
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(r <= 0.0) or np.any(rho <= 0.0):
        raise ValueError("sector kernel requires positive radii")
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    rlt = np.minimum(r, rho)
    rgt = np.maximum(r, rho)
    val = rlt**k / rgt ** (k + n - 2) / (2 * k + n - 2)
    return float(val) if val.ndim == 0 else val


def potential_radial_derivative(grid: RadialGrid, u2: RadialFunction) -> RadialFunction:
    """(I2 * u2)'(r) = -r^{1-n} int_0^r rho^{n-1} u2(rho) d rho for u2 >= 0."""
    if u2.grid is not grid and u2.grid != grid:
        raise ValueError("radial function does not live on the given grid")
    if np.min(u2.values) < -1e-12 * max(1.0, float(np.max(np.abs(u2.values)))):
        raise ValueError("potential_radial_derivative expects a nonnegative density")
    n = grid.dim
    disc = get_discretization(grid)
    cum = disc.head_moment() @ u2.values
    vals = -cum / grid.nodes ** (n - 1)
    return RadialFunction(grid=grid, values=vals)


def rescale_state(gs: GroundState, mu: float) -> RadialFunction:
    """(1+mu) U(sqrt(1+mu) r) resampled on the grid by barycentric
    interpolation; zero where sqrt(1+mu) r passes r_max, like U itself."""
    if 1.0 + mu <= 0.0:
        raise ValueError("rescale requires 1 + mu > 0")
    alpha = 1.0 + mu
    vals = alpha * gs.profile.evaluate(math.sqrt(alpha) * gs.grid.nodes)
    return RadialFunction(grid=gs.grid, values=vals)


def shell_moments_all_nodes(gs: GroundState, V, eps: float, xi,
                            degree: int) -> Tuple[float, np.ndarray]:
    """mu = V(eps xi) and the shell moments (int V z^2, int (V - mu) z^2,
    int (V - mu)^2 z^2) of V(eps x) against z_xi^2, z_xi = alpha U(sqrt(alpha)
    |x - xi|) with alpha = 1 + mu: the product rule of the given degree on
    S^(n-1) times every node of U's grid, rescaled exactly to the radii
    r_i / sqrt(alpha) with weights alpha^(2-n/2) w_i U_i^2, one radius at a
    time."""
    xi = np.asarray(xi, dtype=float)
    mu = float(V.evaluate(eps * xi[None, :])[0])
    alpha = 1.0 + mu
    dirs, wts = sphere_product_rule(gs.dim, degree)
    radii = gs.grid.nodes / math.sqrt(alpha)
    wz2 = alpha ** (2.0 - gs.dim / 2.0) * gs.grid.weights * gs.profile.values ** 2
    sums = np.zeros(3)
    cloud = np.empty_like(dirs)
    for rho, w in zip(radii, wz2):
        np.multiply(dirs, eps * rho, out=cloud)
        cloud += eps * xi
        vals = np.asarray(V.evaluate(cloud), dtype=float)
        centered = vals - mu
        sums += w * np.array([wts @ vals, wts @ centered, wts @ (centered * centered)])
    return mu, sums


def equation_residual(gs: GroundState) -> float:
    return gstate._residual(gs.grid, gs.profile.values, gs.mass_shift)[1]


def constant_C0(gs: GroundState) -> float:
    """C0 = iint U^2(x) U^2(y) / |x-y|^(n-2) dx dy, the bare double
    integral: (n-2) |S^{n-1}| times the I2-normalized interaction."""
    return (gs.dim - 2) * sphere_area(gs.dim) * gstate.interaction_integral(gs)


def radial_potential_from_callable(
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    points,
    breakpoints: Sequence[float] = (),
    r_cut: float = 50.0,
) -> np.ndarray:
    """(I2*f)(r) at arbitrary radii by adaptive quadrature.

    breakpoints mark discontinuities of f; r_cut truncates the outer
    integral.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty_like(pts)
    bps = sorted(float(b) for b in breakpoints)

    def inner(a: float, b: float, weight_pow: int) -> float:
        if b <= a:
            return 0.0
        cuts = [a] + [c for c in bps if a < c < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += quad(
                lambda s: s**weight_pow * float(f(np.asarray([s]))[0]),
                lo,
                hi,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-12,
            )[0]
        return total

    for i, r in enumerate(pts):
        if r < 0:
            raise ValueError("radii must be nonnegative")
        near = inner(0.0, min(r, r_cut), n - 1) * (r ** (2 - n) if r > 0 else 0.0)
        far = inner(min(r, r_cut), r_cut, 1)
        out[i] = (near + far) / (n - 2)
    return out



def potential_derivative_from_callable(
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    points,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """(I2*f)'(r) at arbitrary radii by adaptive quadrature of the
    cumulative density."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    bps = sorted(float(b) for b in breakpoints)
    out = np.empty_like(pts)
    for i, r in enumerate(pts):
        cuts = [0.0] + [c for c in bps if 0.0 < c < r] + [r]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += quad(
                lambda s: s ** (n - 1) * float(f(np.asarray([s]))[0]),
                lo,
                hi,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-12,
            )[0]
        out[i] = -total / r ** (n - 1)
    return out



def kernel_addition_series(n: int, k_max: int, r: float, rho: float, cos_gamma: float) -> float:
    """Partial sum of the multipole expansion of |x-y|^{2-n} via zonal
    (Gegenbauer) harmonics; converges geometrically in (r_</r_>)."""
    lam = 0.5 * (n - 2)
    area = sphere_area(n)
    total = 0.0
    for k in range(k_max + 1):
        zonal = (2 * k + n - 2) / ((n - 2) * area) * eval_gegenbauer(k, lam, cos_gamma)
        total += (
            (n - 2) * area * sector_kernel_value(n, k, r, rho) * zonal
        )
    return total



def fit_exponential_rate(
    gs: GroundState, values: np.ndarray, window: Tuple[float, float]
) -> float:
    """Effective exponential rate of |values| on the window: minus the
    log-linear slope (single-exponential model, no algebraic prefactor)."""
    r = gs.grid.nodes
    a = np.abs(values)
    mask = (r >= window[0]) & (r <= window[1]) & (a > 1e-300)
    if np.count_nonzero(mask) < 10:
        raise ValueError("rate-fit window contains fewer than 10 usable nodes")
    slope = np.polyfit(r[mask], np.log(a[mask]), 1)[0]
    return -float(slope)



@dataclass
class DecayFit:
    """Fit of the profile's far field against the decay asymptotics."""

    rate: float
    nu_check: float
    fit_defect: float
    n_points: int


def decay_phase(n: int, nu: float, r: np.ndarray) -> np.ndarray:
    """I(r) = int_nu^r sqrt(1 - (nu/s)^(n-2)) ds for r >= nu."""
    out = np.empty_like(r)
    for i, ri in enumerate(r):
        out[i] = quad(
            lambda s: math.sqrt(max(0.0, 1.0 - (nu / s) ** (n - 2))),
            nu,
            ri,
            limit=200,
        )[0]
    return out


def fit_decay(gs: GroundState, window: Tuple[float, float]) -> DecayFit:
    """Regress log U + ((n-1)/2) log r on the decay phase over the window."""
    r = gs.grid.nodes
    u = gs.profile.values
    mask = (r >= window[0]) & (r <= window[1]) & (u > 1e-12)
    if np.count_nonzero(mask) < 10:
        raise ValueError("decay-fit window contains fewer than 10 usable nodes")
    if window[0] <= gs.nu:
        raise ValueError("decay-fit window must start beyond nu")
    rw = r[mask]
    y = np.log(u[mask]) + 0.5 * (gs.dim - 1) * np.log(rw)
    x = decay_phase(gs.dim, gs.nu, rw)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    defect = float(np.sqrt(np.mean(resid**2)) / (np.max(y) - np.min(y)))
    return DecayFit(
        rate=float(slope),
        nu_check=gstate.nu_from_mass(gs.dim, gs.l2_mass),
        fit_defect=defect,
        n_points=int(np.count_nonzero(mask)),
    )


def interaction_integral_double(gs: GroundState, m_outer: int = 320) -> float:
    """Same integral via an independent symmetric double quadrature with the
    k = 0 sector kernel on the interpolated profile."""
    n = gs.dim
    area = sphere_area(n)
    R = gs.grid.r_max
    xg, wg = np.polynomial.legendre.leggauss(m_outer)
    ro = 0.5 * R * (xg + 1.0)
    wo = 0.5 * R * wg
    u2o = gs.profile.evaluate(ro) ** 2
    inner = np.empty_like(ro)
    xi, wi = np.polynomial.legendre.leggauss(200)
    for i, r in enumerate(ro):
        s1 = 0.5 * r * (xi + 1.0)
        q1 = 0.5 * r * wi
        s2 = r + 0.5 * (R - r) * (xi + 1.0)
        q2 = 0.5 * (R - r) * wi
        f1 = gs.profile.evaluate(s1) ** 2
        f2 = gs.profile.evaluate(s2) ** 2
        inner[i] = (
            np.dot(q1, s1 ** (n - 1) * f1) / r ** (n - 2) + np.dot(q2, s2 * f2)
        ) / (n - 2)
    return area * float(np.dot(wo, ro ** (n - 1) * u2o * inner))



def interaction_of_values(grid: RadialGrid, values: np.ndarray) -> float:
    """int (I2*u^2) u^2 dx for an arbitrary sampled radial profile."""
    v = kernel_matrix(grid, 0) @ values**2
    return sphere_area(grid.dim) * float(np.dot(grid.weights, v * values**2))


def newton_fixed_step_limit(V, x: np.ndarray, scale: float, step: float = 0.25,
                            iterations: int = 100) -> np.ndarray:
    """semiclassical._newton_on_gradient with one step limit, step * scale,
    for every row and iteration: no 2-cycle halving."""
    x = x.copy()
    live = np.ones(x.shape[0], dtype=bool)
    stop = 1e-14 * max(1.0, scale)
    longest = step * scale
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            g = V.gradients(x[rows])
            H = V.hessians(x[rows])
            gnorm = np.linalg.norm(g, axis=1)
            bad = ~(np.isfinite(gnorm) & np.all(np.isfinite(H), axis=(1, 2)))
            x[rows[bad]] = np.nan
            move = ~bad & (gnorm >= stop)
            live[rows[~move]] = False
            rows, g, H = rows[move], g[move], H[move]
            lam, vec = np.linalg.eigh(H)
            coef = np.einsum("mji,mj->mi", vec, g)
            small = np.abs(lam) < 1e-12 * np.max(np.abs(lam), axis=1, keepdims=True)
            s = np.einsum("mij,mj->mi", vec, np.where(small, 0.0, coef / lam))
            length = np.linalg.norm(s, axis=1)
            x[rows] -= s * (longest / np.maximum(length, longest))[:, None]
    return x


def barycentric_weights_loop(x: np.ndarray) -> np.ndarray:
    """Barycentric weights one node at a time by another construction than
    radial_core._barycentric_weights: log-accumulated products over the
    differences x_j - x_i, i != j."""
    m = x.size
    logw = np.zeros(m)
    sign = np.ones(m)
    for j in range(m):
        d = np.delete(x[j] - x, j)
        logw[j] = -np.sum(np.log(np.abs(d)))
        sign[j] = np.prod(np.sign(d))
    logw -= np.max(logw)
    return sign * np.exp(logw)


def exact_weight_spread(x: np.ndarray, w: np.ndarray, idx) -> float:
    """Relative error of barycentric weights w on the stored nodes x, at the
    indices idx, against exact rational products: w_j prod_(i != j)
    (x_j - x_i), taken exactly, is one constant for exact weights.  Returns
    (max - min) / (max + min) of that product over idx, each divided by the
    first one's, i.e. the largest relative error after the best common
    factor.  The nodes are integers times one power of two, so each product
    is a product of integers."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    den = max(d for _, d in ratios)
    X = [num * (den // d) for num, d in ratios]
    prods = [Fraction(float(w[j])) * math.prod(X[j] - X[i] for i in range(len(X)) if i != j)
             for j in idx]
    rel = [float(p / prods[0]) for p in prods]
    return (max(rel) - min(rel)) / (max(rel) + min(rel))


def diff_matrices_out_of_place(x: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """radial_core._diff_matrices with a new array for every operation: the
    formula D1_ij = (w_j / w_i) / dx_ij, D2_ij = 2 D1_ij (D1_ii - 1 / dx_ij),
    each diagonal minus its row's off-diagonal sum."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D1 = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D1, 0.0)
    np.fill_diagonal(D1, -np.sum(D1, axis=1))
    D2 = 2.0 * D1 * (np.diag(D1)[:, None] - 1.0 / dx)
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -np.sum(D2, axis=1))
    return D1, D2


def sector_laplacian(disc: Discretization, k: int) -> np.ndarray:
    """-D2 - ((n-1)/x) D1 + k(k+n-2)/x^2, the collocated -Laplacian of
    sector k on the node set (r_max last), out of place from the grid's
    differentiation pair."""
    n = disc.grid.dim
    x, D1, D2 = disc.collocation()
    return -D2 - ((n - 1) / x)[:, None] * D1 + np.diag(k * (k + n - 2) / x**2)


def kernel_robin_solve(grid: RadialGrid, k: int) -> np.ndarray:
    """newton_potential.kernel_matrix on sector_laplacian: its last row
    replaced by the Robin row g'(R) + ((k+n-2)/R) g(R) = 0, solved against
    [I; 0], the first N rows kept."""
    N = grid.size
    disc = get_discretization(grid)
    x, D1, _ = disc.collocation()
    A = sector_laplacian(disc, k)
    A[N] = D1[N]
    A[N, N] += (k + grid.dim - 2) / x[N]
    return np.linalg.solve(A, np.eye(N + 1, N))[:N]


def free_pair(grid: RadialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The free-basis differentiation pair: the out-of-place matrices on the
    N grid nodes alone, with their barycentric weights one node at a time,
    so r_max is no node and the derived free weights play no part."""
    x = grid.nodes
    return diff_matrices_out_of_place(x, barycentric_weights_loop(x))


def sector_apply_free_pair(gs: GroundState, k: int, f: np.ndarray) -> np.ndarray:
    """linearized_spectrum.sector_apply_pointwise with the derivatives of the
    free interpolant from free_pair's N x N rows."""
    grid = gs.grid
    u = gs.profile.values
    D1, D2 = free_pair(grid)
    lap = -(D2 @ f) - (grid.dim - 1) / grid.nodes * (D1 @ f)
    diag = (centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - gs.potential) * f
    return lap + diag - 2.0 * u * (kernel_matrix(grid, k) @ (u * f))


def sector_matrix_out_of_place(gs: GroundState, k: int) -> np.ndarray:
    """linearized_spectrum.assemble_sector's B_k from full temporaries:
    the kept block of the whole W^-1/2 S W^-1/2, plus the diagonal, minus
    M + M^T with M = (sqrt(w) U)_i G_k,ij (U / sqrt(w))_j, G_k's kept block
    scaled by two outer products."""
    grid = gs.grid
    w = grid.weights
    keep = w >= lsp.WEIGHT_DROP * float(np.max(w))
    kept = np.ix_(keep, keep)
    sw = np.sqrt(w)
    B = (get_discretization(grid).stiffness() / np.outer(sw, sw))[kept]
    diag = centrifugal_diagonal(grid, k) + (1.0 + gs.mass_shift) - gs.potential
    B[np.diag_indices_from(B)] += diag[keep]
    sw = sw[keep]
    u = gs.profile.values[keep]
    M = ((sw * u)[:, None] * kernel_matrix(grid, k)[kept]) * (u / sw)[None, :]
    return B - (M + M.T)


def basis_eval_masked(disc: Discretization, targets: np.ndarray) -> np.ndarray:
    """Discretization.basis_eval with separate temporaries, the rows that
    hit no node gathered, divided and scattered back."""
    t = np.asarray(targets, dtype=float)
    x = disc.grid.nodes
    wb = disc._wb_free
    d = t[:, None] - x[None, :]
    exact = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = wb[None, :] / d
    c[exact] = np.inf
    hit_rows = np.any(exact, axis=1)
    denom = np.sum(c, axis=1)
    E = np.empty_like(c)
    ok = ~hit_rows
    E[ok] = c[ok] / denom[ok, None]
    if np.any(hit_rows):
        E[hit_rows] = exact[hit_rows].astype(float)
    return E


def head_moment_subrule(disc: Discretization, p: int, chunk_doubles: int = 4_000_000) -> np.ndarray:
    """The cumulative-moment matrix by one Gauss rule per row, independent
    of Discretization.head_moment's composite rule: row i sums the
    interpolation rows at the m-point Gauss nodes of (0, r_i), weighted by
    the rule, m = floor((N+p)/2) + 1, which is exact for the degree N-1+p
    integrand; rows are filled in chunks whose temporaries hold about
    chunk_doubles values."""
    r = disc.grid.nodes
    N = r.size
    m = (N + p) // 2 + 1
    xg, wg = np.polynomial.legendre.leggauss(m)
    H = np.empty((N, N))
    chunk = max(1, chunk_doubles // (m * N))
    for lo in range(0, N, chunk):
        rb = r[lo:lo + chunk, None]
        t = 0.5 * rb * (xg + 1.0)
        q = 0.5 * rb * wg * t**p
        E = disc.basis_eval(t.ravel()).reshape(rb.size, m, N)
        H[lo:lo + chunk] = np.matmul(q[:, None, :], E)[:, 0]
    return H


def head_moment_composite(disc: Discretization, p: int) -> np.ndarray:
    """Discretization.head_moment's composite rule through basis_eval: the
    8-point Gauss rule on every node interval [r_(j-1), r_j], r_(-1) = 0,
    one normalised interpolation row per target, and row i the running sum
    over the intervals j <= i."""
    r = disc.grid.nodes
    xg, wg = np.polynomial.legendre.leggauss(8)
    left = np.concatenate(([0.0], r[:-1]))
    H = np.zeros((r.size, r.size))
    total = np.zeros(r.size)
    for j, (a, b) in enumerate(zip(left, r)):
        t = a + 0.5 * (b - a) * (xg + 1.0)
        total += (0.5 * (b - a) * wg * t**p) @ disc.basis_eval(t)
        H[j] = total
    return H


def stiffness_out_of_place(disc: Discretization) -> np.ndarray:
    """Discretization.stiffness by another construction, with a new array
    for every operation: the derivative rows of the dirichlet interpolant
    at the (N+8)-point rule by the derivative of the barycentric formula,

        L_ij = (wb_j / d_ij) / sum_l (wb_l / d_il),  d_ij = t_i - x_j,
        Ed_ij = L_ij (sum_l L_il / d_il - 1 / d_ij),

    in place of interpolating D1's columns, scaled by the square roots of
    the rule's weights, and S = Eq^T Eq.  No rule point may be a node, so N
    must be even."""
    n, R = disc.grid.dim, disc.grid.r_max
    t, q = legendre_rule(disc.grid.size + 8, 0.0, R)
    q = q * t ** (n - 1)
    x = disc.collocation()[0]
    wb = disc._wb
    d = t[:, None] - x[None, :]
    c = wb[None, :] / d
    L = c / np.sum(c, axis=1)[:, None]
    s1 = np.sum(L / d, axis=1)
    Ed = (L * (s1[:, None] - 1.0 / d))[:, :-1]
    Eq = np.sqrt(q)[:, None] * Ed
    return Eq.T @ Eq


def shooting_rhs(n: int):
    """(u, u', W, W')' of the shooting system, u'' = W u - (n-1)/r u' and
    W'' = u^2 - (n-1)/r W', for solve_ivp."""

    def rhs(r, y):
        u, up, w, wp = y
        return [up, w * u - (n - 1) / r * up, wp, u * u - (n - 1) / r * wp]

    return rhs


def classify_events(n: int, w0: float) -> str:
    """Which side of the separatrix the shot u(0) = 1, W(0) = w0 is on,
    through solve_ivp's DOP853 with terminal events: 'low' when u crosses
    zero (w0 below), 'high' when u' crosses zero upward or u crosses 10
    (w0 above), 'none' when the shot reaches ground_state._R_END.  Error
    control is relative alone, at rtol 2.3e-14 just above solve_ivp's
    floor of 100 eps: at rtol 1e-12 the bisection on these shots lands
    1.2e-14 from the Taylor table at n = 3, at 2.3e-14 within 4.8e-16."""
    r0, y0 = gstate._series_start(n, w0)

    def ev_cross(r, y):
        return y[0]

    def ev_turn(r, y):
        return y[1]

    def ev_blow(r, y):
        return y[0] - 10.0

    for ev, direction in ((ev_cross, -1.0), (ev_turn, 1.0), (ev_blow, 1.0)):
        ev.terminal = True
        ev.direction = direction

    sol = solve_ivp(
        shooting_rhs(n),
        (r0, gstate._R_END),
        y0,
        method="DOP853",
        rtol=2.3e-14,
        atol=1e-300,
        events=(ev_cross, ev_turn, ev_blow),
    )
    if sol.t_events[0].size:
        return "low"
    if sol.t_events[1].size or sol.t_events[2].size:
        return "high"
    return "none"


W0_START = -0.85  # first W(0) of the oracle's expanding bracket search


def bracket_separatrix_events(n: int):
    """(W(0) below, W(0) above) the separatrix at u(0) = 1: an expanding
    search from W0_START, each side from classify_events."""
    scale = abs(W0_START)
    c_lo = c_hi = None
    c = W0_START
    for _ in range(80):
        side = classify_events(n, c)
        if side == "low":
            c_lo = c
            if c_hi is not None:
                return c_lo, c_hi
            c = c + max(scale, abs(c))
        elif side == "high":
            c_hi = c
            if c_lo is not None:
                return c_lo, c_hi
            c = c - max(scale, abs(c))
        else:
            break
    raise RuntimeError("failed to bracket the shooting separatrix")


def bisect_separatrix_events(n: int) -> float:
    """W(0) of the decaying separatrix at u(0) = 1, re-derived: bisection
    to 1e-15 on the bracket of bracket_separatrix_events, each side from
    classify_events.  ground_state._SEPARATRIX_W0 tabulates it."""
    c_lo, c_hi = bracket_separatrix_events(n)
    while c_hi - c_lo > 1e-15 * max(1.0, abs(c_lo)):
        c = 0.5 * (c_lo + c_hi)
        side = classify_events(n, c)
        if side == "none":
            return c
        if side == "low":
            c_lo = c
        else:
            c_hi = c
    return 0.5 * (c_lo + c_hi)


def separatrix_dop853(n: int, r_end: float, rtol: float):
    """solve_ivp's DOP853 dense output of the shot from
    ground_state._series_start at the tabulated W(0) out to r_end, with
    pure relative error control."""
    r0, y0 = gstate._series_start(n, gstate._SEPARATRIX_W0[n])
    return solve_ivp(shooting_rhs(n), (r0, r_end), y0, method="DOP853", rtol=rtol,
                     atol=1e-300, dense_output=True).sol


def shooting_profile_dop853(grid: RadialGrid, mass_shift: float, rtol: float) -> np.ndarray:
    """ground_state._solve_shooting on the program's cached separatrix, with
    the far field completed backward from r_max by solve_ivp's DOP853 at
    rtol and read off its dense output."""
    n = grid.dim
    freq = 1.0 + mass_shift
    sol, r_veer, w_inf = gstate._separatrix(n)
    s = math.sqrt(freq / w_inf)

    def fwd(r):
        return s * s * sol(s * r)[0]

    r_veer /= s
    r_j = min(r_veer - 5.0, grid.r_max - 6.0)
    m_rad = s ** (4 - n) * (s * r_j) ** (n - 1) * float(sol(s * r_j)[3])
    r_b = grid.r_max
    u_fj = float(fwd(r_j))
    slope = -u_fj * math.exp(-(r_b - r_j) * math.sqrt(freq)) * math.sqrt(freq)
    y_b = [0.0, slope, freq - m_rad / ((n - 2) * r_b ** (n - 2)), m_rad / r_b ** (n - 1)]
    rw = np.linspace(r_j - 2.5, r_j - 0.5, 40)
    back = solve_ivp(
        shooting_rhs(n),
        (r_b, rw[0]),
        y_b,
        method="DOP853",
        rtol=rtol,
        atol=1e-60,
        first_step=1e-3,
        dense_output=True,
    ).sol
    uf = fwd(rw)
    ub = back(rw)[0]
    gamma = float(np.dot(uf, ub) / np.dot(ub, ub))
    r = grid.nodes
    values = np.empty_like(r)
    cut = r <= r_j - 1.5
    values[cut] = fwd(r[cut])
    values[~cut] = gamma * back(r[~cut])[0]
    return values


def fixed_point_gaussian_start(grid: RadialGrid, mass_shift: float, tol: float) -> np.ndarray:
    """ground_state's fixed-point solve without nested iteration: Newton on
    the collocated equation on the grid itself, from the Gaussian
    exp(-(1+mu) r^2 / 2) scaled onto the Nehari manifold, to tol."""
    freq = 1.0 + mass_shift
    w = grid.weights
    K = get_discretization(grid).neg_laplacian()[:-1, :-1]
    pot0 = kernel_matrix(grid, 0)
    u = np.exp(-0.5 * freq * grid.nodes**2)
    v = pot0 @ u**2
    Ku = K @ u + freq * u
    u *= math.sqrt(float(np.dot(w * u, Ku)) / float(np.dot(w * u, v * u)))
    for _ in range(20):
        v = pot0 @ u**2
        defect = K @ u + (freq - v) * u
        if math.sqrt(float(np.dot(w, defect**2)) / float(np.dot(w, u**2))) <= tol:
            return u
        J = K + np.diag(freq - v) - 2.0 * (u[:, None] * pot0) * u[None, :]
        u = np.maximum(u - np.linalg.solve(J, defect), 1e-300)
    raise RuntimeError(f"Gaussian-start Newton did not reach tol {tol:.3e}")


def real_sph_harm_scipy(k: int, m: int, theta, phi) -> np.ndarray:
    """Real orthonormal Y_km from scipy's complex sph_harm_y, with its
    Condon-Shortley phase (-1)^m taken back out."""
    y = sph_harm_y(k, abs(m), np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    if m == 0:
        return np.real(y)
    return math.sqrt(2.0) * (-1.0) ** m * (np.real(y) if m > 0 else np.imag(y))


def multipole_sums_per_km(k_max: int, points) -> np.ndarray:
    """Running sums over K_max of the multipole expansion of the multipole
    check's density at each 3D point, one real harmonic Y_km at a time:
    project f on every Y_km by the product rule of degree 2 k_max + 26,
    apply G_k on the check's N_RADIAL-node grid to each coefficient and add
    g_km(|x|) Y_km(x/|x|) in (k, m) order.  Returns an array
    (len(points), k_max + 1).  The degree integrates f Y_km to rounding on
    the grid's radii, as the check's Funk-Hecke projection does: against
    the check's errors at k_max = 0, 3, 8 it misses by at most 2.1e-17 from
    degree 2 k_max + 20 on, by 1.5e-14 at 2 k_max + 16 and by 4.5e-6 at
    2 k_max + 6 (k_max = 0)."""
    a = np.asarray(SOURCE_CENTER[:3], dtype=float)
    grid = build_grid(3, 6.0, N_RADIAL)
    dirs, w = sphere_product_rule(3, 2 * k_max + 26)
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    cloud = (grid.nodes[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    f = np.exp(-np.sum((cloud - a) ** 2, axis=1) / (2.0 * SOURCE_WIDTH**2))
    fw = f.reshape(grid.size, -1) * w
    keys = [(k, m) for k in range(k_max + 1) for m in range(-k, k + 1)]
    g = {(k, m): kernel_matrix(grid, k) @ (fw @ real_sph_harm_scipy(k, m, theta, phi))
         for k, m in keys}
    sums = np.zeros((len(points), k_max + 1))
    for p, x in enumerate(np.asarray(points, dtype=float)):
        r = float(np.linalg.norm(x))
        row = get_discretization(grid).basis_eval([r])[0]
        value = 0.0
        for k, m in keys:
            y = real_sph_harm_scipy(k, m, math.acos(x[2] / r), math.atan2(x[1], x[0]))
            value += float(row @ g[(k, m)]) * float(y)
            sums[p, k] = value
    return sums


def zonal_projection_sphere_cloud(a, rho, d, k_max: int, degree: int) -> np.ndarray:
    """The multipole check's zonal projection Z[i, p, k] = int_(S^(n-1))
    f(rho_i e) C_k^lam(e.d_p) de, lam = (n-2)/2, for the Gaussian f of width
    SOURCE_WIDTH about a in R^n, as an array (len(rho), len(d), k_max + 1):
    the direct sum over the product rule of S^(n-1) of the given degree,
    8,192 directions at a time, with f(rho e) = exp((2 rho (e.a) - rho^2 -
    |a|^2) / 2 s^2) and C_k^lam from scipy's eval_gegenbauer.  No
    Funk-Hecke reduction: every direction of the cloud is summed."""
    a = np.asarray(a, dtype=float)
    lam = 0.5 * (len(a) - 2)
    e, w = sphere_product_rule(len(a), degree)
    Z = np.zeros((len(rho), len(d), k_max + 1))
    for lo in range(0, len(e), 8192):
        eb, wb = e[lo:lo + 8192], w[lo:lo + 8192]
        fw = np.exp((2.0 * np.multiply.outer(rho, eb @ a) - (rho**2 + a @ a)[:, None])
                    / (2.0 * SOURCE_WIDTH**2)) * wb
        cos = eb @ np.asarray(d).T
        for k in range(k_max + 1):
            Z[:, :, k] += fw @ eval_gegenbauer(k, lam, cos)
    return Z


def dedupe_first_kept_loop(x: np.ndarray, dist: float) -> list:
    """Indices of the rows of x that the greedy first-kept rule keeps: row i
    is kept unless an earlier kept row lies within dist of it, by one
    np.linalg.norm call per pair."""
    found = []
    for i in range(len(x)):
        if all(np.linalg.norm(x[i] - x[j]) >= dist for j in found):
            found.append(i)
    return found


def classify_critical_points_loop(V, gs: GroundState, eps: float, x: np.ndarray,
                                  gnorm: np.ndarray) -> list:
    """semiclassical.predict_concentration from its kept end points on, one
    point at a time: x and gnorm are the kept points and their gradient
    norms, in start order.  Each point takes its own V, Hessian eigenvalues,
    nullity, kind and h = C1 (1 + V)^(3 - n/2), with C1 recomputed for
    each point and each proxy; then the h-sort and one gradient-bound
    proxy per critical set."""
    points = []  # (critical point, Hessian nullity)
    for x_i, g_i, v_i, eigs in zip(x, gnorm, V.evaluate(x),
                                   np.linalg.eigvalsh(V.hessians(x))):
        h_scale = max(float(np.max(np.abs(eigs))), 1e-30)
        null = int(np.sum(np.abs(eigs) < 1e-6 * h_scale))
        if null:
            kind = "degenerate"
        elif np.all(eigs > 0.0):
            kind = "minimum"
        elif np.all(eigs < 0.0):
            kind = "maximum"
        else:
            kind = "saddle"
        cp = sc.CriticalPoint(
            location=x_i,
            v_value=float(v_i),
            h_value=sc.leading_coefficient(gs) * (1.0 + float(v_i)) ** (3.0 - gs.dim / 2.0),
            grad_norm=float(g_i),
            kind=kind,
            hessian_eigenvalues=eigs,
        )
        points.append((cp, null))
    points.sort(key=lambda p: p[0].h_value)

    sets = []  # (first point, nullity) of each degenerate set
    rules = sc._radial_rule(gs, V)
    for cp, null in points:
        if null:
            if any(n == null and abs(rep.v_value - cp.v_value)
                   <= 1e-10 * max(1.0, abs(rep.v_value)) for rep, n in sets):
                continue
            sets.append((cp, null))
        cp.gradient_proxy = sc._soliton_row(gs, V, eps, cp.location / eps, rules,
                                            sc.leading_coefficient(gs)).gradient_proxy
    return [cp for cp, _ in points]


def legendre_rule_recurrence(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left half of the m-point Gauss-Legendre rule on (-1, 1), independent
    of radial_core's cosine series: s_k = (1 + x_k) / 2 = sin^2(theta_k / 2)
    ascending for the ceil(m/2) nodes x_k <= 0, and their weights.

    Newton's method in s on Bonnet's three-term recurrence
    (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1), taken at the mirror node
    x = 1 - 2 s (P_m(-x) = (-1)^m P_m(x)) and written for the differences
    D_k = P_k - P_(k-1) and the s-derivatives Q_k = dP_k/ds, E_k = dD_k/ds:

        D_(k+1) = (k D_k - 2 (2k+1) s P_k) / (k+1),          P_(k+1) = P_k + D_(k+1),
        E_(k+1) = (k E_k - 2 (2k+1) (P_k + s Q_k)) / (k+1),  Q_(k+1) = Q_k + E_(k+1),

    so s enters with its full relative precision.  The weight is
    2 / ((1 - x^2) P_m'(x)^2) = 2 / (s (1 - s) Q_m^2).

    Its own error, against a 40-digit mpmath Newton solve of the same
    recurrence at m = 1, 2, 3, 8, 17, 64, 200, 307, 400, 401, 408, 629 and
    1000: nodes (1 - 2 s) within 6e-17 absolute, s within 2.0e-15 relative
    (the first node at m = 629; 1.0e-15 at m = 200, 8.9e-17 at m = 400),
    and weights within (m/4 + 1) eps relative (2.2e-16 at m = 2, 5.8e-15
    at m = 400, 9.5e-15 at m = 1000).
    The same Newton solve in x with P_(m-1) in the weight, 2 (1 - x^2) /
    (m P_(m-1))^2, reads weights to only 1.9e-12 (m = 400) and 8.2e-12
    (1000), and the first s to 2.5e-12 relative (m = 400)."""
    half = (m + 1) // 2
    phi = (4.0 * np.arange(1, half + 1) - 1.0) * math.pi / (4.0 * m + 2.0)
    s = np.sin(0.5 * phi) ** 2
    settled = False
    for _ in range(50):
        p, d = np.ones_like(s), np.zeros_like(s)
        q, e = np.zeros_like(s), np.zeros_like(s)
        for k in range(m):
            e = (k * e - 2.0 * (2 * k + 1) * (p + s * q)) / (k + 1)
            d = (k * d - 2.0 * (2 * k + 1) * s * p) / (k + 1)
            p, q = p + d, q + e
        step = p / q
        s = s - step
        if settled:
            break
        # one more sweep once the steps reach rounding level
        settled = bool(np.all(np.abs(step) <= 1e-14 * s))
    else:
        raise RuntimeError(f"recurrence reference for m = {m} did not converge")
    return s, 2.0 / (s * (1.0 - s) * q * q)


def gauss_gegenbauer_scipy(m: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for the weight (1 - t^2)^(alpha - 1/2) on [-1, 1]
    from scipy's roots_gegenbauer."""
    return roots_gegenbauer(m, alpha)


def newton_potential_midpoint(
    func: Callable[[np.ndarray], np.ndarray],
    box: Sequence[Tuple[float, float]],
    m: int,
    points: Sequence[Sequence[float]],
) -> np.ndarray:
    """(I2*f)(x) in R^3 at each point inside the box, by the midpoint rule on
    m^3 uniform cells.  The cell holding x is replaced by the analytic
    integral of 1/|x-y| over the ball of equal volume, 2 pi Req^2 with
    Req^3 = 3 Vcell / (4 pi), so x may lie on a cell centre and f may be
    discontinuous there.  A point within 0.5 h (1 + 1e-12) of its nearest
    cell centre on every axis holds that cell, so a face, edge or corner
    that cells share, placed there up to rounding, takes the correction
    for the cell that argmin picks on each axis."""
    axes = [lo + (hi - lo) / m * (np.arange(m) + 0.5) for lo, hi in box]
    h = np.array([(hi - lo) / m for lo, hi in box])
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    vals = np.asarray(func(np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)),
                      dtype=float).reshape(X.shape)
    req = (3.0 * np.prod(h) / (4.0 * math.pi)) ** (1.0 / 3.0)
    out = []
    for point in points:
        x = np.asarray(point, dtype=float)
        cell = tuple(int(np.argmin(np.abs(a - c))) for a, c in zip(axes, x))
        with np.errstate(divide="ignore"):
            integrand = vals / np.sqrt((X - x[0]) ** 2 + (Y - x[1]) ** 2 + (Z - x[2]) ** 2)
        centre = np.array([a[i] for a, i in zip(axes, cell)])
        ball = 0.0
        if np.all(np.abs(x - centre) <= 0.5 * h * (1.0 + 1e-12)):
            integrand[cell] = 0.0
            ball = vals[cell] * 2.0 * math.pi * req**2
        out.append((float(np.sum(integrand * np.prod(h))) + ball) / sphere_area(3))
    return np.array(out)


@dataclass
class GriddedDensity:
    """Tensor-product samples of a density on a 3D box."""

    axes: Tuple[np.ndarray, np.ndarray, np.ndarray]
    axis_weights: Tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray
    box: Tuple[Tuple[float, float], ...]


def sample_density(
    func: Callable[[np.ndarray], np.ndarray],
    box: Sequence[Tuple[float, float]],
    shape: Sequence[int],
) -> GriddedDensity:
    """Sample a 3D density for the oracle on the tensor Gauss-Legendre rule
    of the given shape.  The oracle handles no singularity, so it is meant
    for smooth densities evaluated where they are negligible."""
    if len(box) != 3 or len(shape) != 3:
        raise ValueError("box and shape must be 3-dimensional")
    if max(shape) > 64:
        raise ValueError("oracle grid is capped at 64 nodes per axis")
    axes, weights = [], []
    for (lo, hi), m in zip(box, shape):
        x, w = np.polynomial.legendre.leggauss(m)
        axes.append(0.5 * (hi - lo) * (x + 1.0) + lo)
        weights.append(0.5 * (hi - lo) * w)
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    vals = np.asarray(func(pts), dtype=float).reshape(X.shape)
    return GriddedDensity(
        axes=tuple(axes),
        axis_weights=tuple(weights),
        values=vals,
        box=tuple((float(lo), float(hi)) for lo, hi in box),
    )


def direct_newton_potential_nd(density: GriddedDensity, point) -> float:
    """Brute-force (I2 * f)(x) in 3D by tensor quadrature; x must not be a
    node."""
    x = np.asarray(point, dtype=float)
    for c, (lo, hi) in zip(x, density.box):
        if c < lo or c > hi:
            raise ValueError(f"evaluation point {x} outside oracle box {density.box}")
    ax, ay, az = density.axes
    wx, wy, wz = density.axis_weights
    DX2 = (ax - x[0])[:, None, None] ** 2
    DY2 = (ay - x[1])[None, :, None] ** 2
    DZ2 = (az - x[2])[None, None, :] ** 2
    dist = np.sqrt(DX2 + DY2 + DZ2)
    W = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
    if np.any(dist == 0.0):
        raise ValueError("evaluation point coincides with a quadrature node")
    total = float(np.sum(density.values / dist * W))
    return total / sphere_area(3)
