"""Newton potential: exact radial reduction and multipole sector kernels.

The radial reduction of I2 * f for radial f is

    (I2*f)(r) = (1/(n-2)) [ r^{2-n} int_0^r rho^{n-1} f + int_r^inf rho f ],

equivalently the k = 0 instance of the degree-k sector kernel

    G_k(r, rho) = (1/(2k+n-2)) r_<^k / r_>^{k+n-2},

which maps the radial coefficient of a degree-k spherical harmonic sector
to the coefficient of its potential.  G_k is the Green's function of the
sector operator -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2, so every kernel
matrix comes from one solve of that operator, the grid's one collocated
-Laplacian, Discretization.neg_laplacian, plus centrifugal_diagonal, with
the decaying-harmonic Robin condition at r_max; kernel_matrix keeps G_0
and G_1 per grid, where the solver and the k = 0, 1 checks reuse them,
and builds each G_k, k >= 2, for its one sector.  I2 * f on the nodes is
kernel_matrix(grid, 0) @ f.  The independent cross-check of every G_k,
k <= K_max, in n = 3, 4, 5: multipole_completeness_experiment expands an
off-centre Gaussian on N_RADIAL radial nodes by the n-dimensional
addition theorem (Gegenbauer zonal harmonics; Stein and Weiss,
Introduction to Fourier Analysis on Euclidean Spaces, 1971, ch. IV) and
compares the sum with the Gaussian's closed-form potential,
gaussian_potential, returning the arrays (points, oracle, errors).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .radial_core import (
    RadialGrid,
    build_grid,
    centrifugal_diagonal,
    get_discretization,
    sphere_area,
    sphere_product_rule,
)


def kernel_matrix(grid: RadialGrid, k: int) -> np.ndarray:
    """Dense matrix of f -> int_0^rmax G_k(r_i, rho) f(rho) rho^{n-1} d rho.

    G_k is the Green's function of -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2
    whose solution continues as the decaying harmonic r^(-(k+n-2)) beyond
    R = r_max, i.e. g'(R) + ((k+n-2)/R) g(R) = 0.  The operator is a copy
    of Discretization.neg_laplacian, collocated on the dirichlet node set
    (grid nodes plus r_max), with centrifugal_diagonal(grid, k) added to
    its first N diagonal entries; the Robin row takes the place of its row
    at r_max, the system is solved against [I; 0] and the first N rows are
    kept.  Regularity at the origin is built into the polynomial basis.
    Read-only.

    Cached only where it is reused: G_0 serves every Newton step, the
    residual, the ground state's potential and sector 0, and G_1 the
    zero-mode residual and sector 1, so both are kept per grid (grids hash
    and compare by cache_key, so grids built apart with equal keys share
    them).  Each G_k, k >= 2, is read by its own sector alone and is built
    on each call, so a process holds at most one of them at a time.
    """
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    return _reused_kernel(grid, k) if k <= 1 else _collocated_kernel(grid, k)


@functools.lru_cache(maxsize=None)
def _reused_kernel(grid: RadialGrid, k: int) -> np.ndarray:
    return _collocated_kernel(grid, k)


def _collocated_kernel(grid: RadialGrid, k: int) -> np.ndarray:
    """kernel_matrix's one construction, uncached."""
    n, N = grid.dim, grid.size
    disc = get_discretization(grid)
    x, D1, _ = disc.collocation()
    A = disc.neg_laplacian().copy()
    A[np.diag_indices(N)] += centrifugal_diagonal(grid, k)
    A[N] = D1[N]
    A[N, N] += (k + n - 2) / x[N]
    G = np.linalg.solve(A, np.eye(N + 1, N))[:N]
    G.flags.writeable = False
    return G


# The off-center Gaussian density of the multipole check (every sector
# populated) and the radius of its evaluation points, twice the density's
# effective support radius, so the sector series converges geometrically.
# Centre and directions carry five coordinates; dimension n takes the
# first n (the direction is normalized after).
SOURCE_CENTER = (0.4, 0.15, -0.1, 0.12, -0.12)
SOURCE_WIDTH = 0.45
EVAL_DIRECTIONS = (
    (1.0, 0.0, 0.0, 0.3, -0.2),
    (0.0, 1.0, 0.0, 0.3, -0.2),
    (0.0, 0.0, 1.0, 0.3, -0.2),
    (-0.577350269189626, 0.577350269189626, 0.577350269189626, 0.3, -0.2),
    (0.707106781186548, -0.707106781186548, 0.0, 0.3, -0.2),
    (-0.6, -0.64, 0.48, 0.3, -0.2),
)
EVAL_RADIUS = 4.5
N_RADIAL = 160  # radial nodes of the expansion, on (0, 6)
DIRECTION_BLOCK = 8192  # sphere directions per block of the density, bounding its memory


def gaussian_potential(n: int, r: float, width: float) -> float:
    """(I2*f)(x) in closed form for the Gaussian f(y) = exp(-|y|^2 / 2 s^2)
    of width s, at |x| = r > 0: the radial reduction with

        int_0^r rho^(n-1) f = (1/2) (2 s^2)^(n/2) gamma(n/2, r^2 / 2 s^2),
        int_r^inf rho f     = s^2 exp(-r^2 / 2 s^2),

    the lower incomplete gamma(n/2, x) climbing from gamma(1/2, x) =
    sqrt(pi) erf(sqrt(x)) or gamma(1, x) = 1 - e^-x by gamma(a+1, x) =
    a gamma(a, x) - x^a e^-x.
    """
    s2 = width * width
    x = r * r / (2.0 * s2)
    a, g = (0.5, math.sqrt(math.pi) * math.erf(math.sqrt(x))) if n % 2 else (1.0, -math.expm1(-x))
    while a < 0.5 * n:
        g = a * g - x**a * math.exp(-x)
        a += 1.0
    return (r ** (2 - n) * 0.5 * (2.0 * s2) ** (0.5 * n) * g + s2 * math.exp(-x)) / (n - 2)


def _gegenbauer_columns(t: np.ndarray, k_max: int, lam: float) -> np.ndarray:
    """C_k^lam(t) for k = 0..k_max in a new last axis, by the three-term
    recurrence k C_k = 2 (k + lam - 1) t C_(k-1) - (k + 2 lam - 2) C_(k-2);
    lam = 1/2 gives the Legendre P_k."""
    C = [np.ones_like(t), 2.0 * lam * t]
    for k in range(2, k_max + 1):
        C.append((2.0 * (k + lam - 1.0) * t * C[k - 1] - (k + 2.0 * lam - 2.0) * C[k - 2]) / k)
    return np.stack(C[:k_max + 1], axis=-1)


def multipole_completeness_experiment(k_max: int = 8, n: int = 3):
    """Truncated multipole expansion of a smooth non-radial density in R^n
    vs its closed-form potential.

    The density is the Gaussian of width s = SOURCE_WIDTH about the centre
    a = SOURCE_CENTER[:n], so its potential is gaussian_potential at
    |x - a|.  By the addition theorem sum_m Y_km(e) Y_km(d) =
    (2k+n-2)/((n-2) |S^(n-1)|) C_k^((n-2)/2)(e.d), the degree-k part of
    I2*f at x = R d is (G_k z_k)(R) with the zonal projection

        z_k(rho) = (2k+n-2)/((n-2) |S^(n-1)|) int f(rho e) C_k^((n-2)/2)(e.d) de,

    taken at each grid radius by the product rule of degree 2 k_max + 6.
    On that rule f(rho e) = exp((2 rho (e.a) - rho^2 - |a|^2) / 2 s^2), an
    outer product of the radii and e.a, summed DIRECTION_BLOCK directions
    at a time.  Returns the arrays (points, oracle, errors): the six
    evaluation points (6, n), the oracle there (6,), and the absolute
    error of the expansion truncated at K_max = k in column k of errors
    (6, k_max + 1), running sums over k.
    """
    a = np.asarray(SOURCE_CENTER[:n])
    two_s2 = 2.0 * SOURCE_WIDTH**2
    grid = build_grid(n, 6.0, N_RADIAL)
    rho = grid.nodes
    dirs = np.asarray(EVAL_DIRECTIONS)[:, :n]
    points = EVAL_RADIUS * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    d = points / EVAL_RADIUS
    e, w = sphere_product_rule(n, 2 * k_max + 6)
    # Z[i, p, k] = sum_j w_j f(rho_i e_j) C_k(e_j . d_p)
    Z = np.zeros((grid.size, len(d) * (k_max + 1)))
    for lo in range(0, len(e), DIRECTION_BLOCK):
        eb, wb = e[lo:lo + DIRECTION_BLOCK], w[lo:lo + DIRECTION_BLOCK]
        fw = np.exp((2.0 * np.multiply.outer(rho, eb @ a) - (rho**2 + a @ a)[:, None])
                    / two_s2) * wb
        Z += fw @ _gegenbauer_columns(eb @ d.T, k_max, 0.5 * (n - 2)).reshape(len(eb), -1)
    Z = Z.reshape(grid.size, len(d), k_max + 1)
    E = get_discretization(grid).basis_eval(np.linalg.norm(points, axis=1))
    value, partial = np.zeros(len(d)), []  # partial[k]: truncated at K_max = k
    for k in range(k_max + 1):
        z = (2 * k + n - 2) / ((n - 2) * sphere_area(n)) * Z[:, :, k]
        value = value + np.sum(E * (kernel_matrix(grid, k) @ z).T, axis=1)
        partial.append(value)
    oracle = np.array([gaussian_potential(n, float(np.linalg.norm(x - a)), SOURCE_WIDTH)
                       for x in points])
    return points, oracle, np.abs(np.array(partial).T - oracle[:, None])
