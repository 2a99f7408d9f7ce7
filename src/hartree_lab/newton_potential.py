"""Newton potential: exact radial reduction and multipole sector kernels.

The radial reduction of I2 * f for radial f is

    (I2*f)(r) = (1/(n-2)) [ r^{2-n} int_0^r rho^{n-1} f + int_r^inf rho f ],

equivalently the k = 0 instance of the degree-k sector kernel

    G_k(r, rho) = (1/(2k+n-2)) r_<^k / r_>^{k+n-2},

which maps the radial coefficient of a degree-k spherical harmonic sector
to the coefficient of its potential.  G_k is the Green's function of the
sector operator -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2, so every kernel
matrix comes from one Robin solve of that operator, kernel_matrix.
I2 * f on the nodes is kernel_matrix(grid, 0) @ f.  The independent
cross-check of every G_k, k <= K_max, in n = 3, 4, 5:
multipole_completeness_experiment expands an off-centre Gaussian on
N_RADIAL radial nodes by the n-dimensional addition theorem (Gegenbauer
zonal harmonics; Stein and Weiss, Introduction to Fourier Analysis on
Euclidean Spaces, 1971, ch. IV), each zonal projection one 1-D
Gauss-Gegenbauer sum by the Funk-Hecke formula, and compares the sum
with the Gaussian's closed-form potential, gaussian_potential,
returning the arrays (points, oracle, errors).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .radial_core import (
    RadialGrid,
    _gauss_gegenbauer,
    build_grid,
    centrifugal_diagonal,
    get_discretization,
    legendre_rule,
    sphere_area,
)


def kernel_matrix(grid: RadialGrid, k: int) -> np.ndarray:
    """Dense matrix of f -> int_0^rmax G_k(r_i, rho) f(rho) rho^{n-1} d rho.

    G_k is the Green's function of -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2
    whose solution continues as the decaying harmonic r^(-(k+n-2)) beyond
    R = r_max, i.e. g'(R) + ((k+n-2)/R) g(R) = 0.  The operator is a copy
    of Discretization.neg_laplacian, collocated on the dirichlet node set
    (grid nodes plus r_max), with centrifugal_diagonal(grid, k) added to
    its first N diagonal entries; its last row, the derivative at r_max,
    becomes the Robin row by (k+n-2)/R added at [N, N].  The system is
    solved against [I; 0] and the first N rows are kept.  [I; 0]
    is a read-only view of 2N floats, so no (N+1) x N identity is built;
    the solve is the same LAPACK gesv call on the same values as against
    an identity array, so G_k has the bits of the identity-array solve at
    the same BLAS thread count (another count rounds differently).
    Regularity at the origin is built into the polynomial basis.  Read-only.
    G_0 is cached per grid; every G_k, k >= 1, is built on each call.
    """
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    return _potential_kernel(grid) if k == 0 else _collocated_kernel(grid, k)


@functools.lru_cache(maxsize=None)
def _potential_kernel(grid: RadialGrid) -> np.ndarray:
    return _collocated_kernel(grid, 0)


def _collocated_kernel(grid: RadialGrid, k: int) -> np.ndarray:
    """kernel_matrix's one construction, uncached."""
    n, N = grid.dim, grid.size
    A = get_discretization(grid).neg_laplacian().copy()
    A[np.diag_indices(N)] += centrifugal_diagonal(grid, k)
    A[N, N] += (k + n - 2) / grid.r_max
    # [I; 0]: row i is e[i:i+N] reversed, e's one 1 at N - 1
    e = np.zeros(2 * N)
    e[N - 1] = 1.0
    G = np.linalg.solve(A, sliding_window_view(e, N)[:, ::-1])[:N]
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


def gaussian_potential(n: int, r: float, width: float) -> float:
    """(I2*f)(x) in closed form for the Gaussian f(y) = exp(-|y|^2 / 2 s^2)
    of width s, at |x| = r > 0: the radial reduction with

        int_0^r rho^(n-1) f = (1/2) (2 s^2)^(n/2) gamma(n/2, r^2 / 2 s^2),
        int_r^inf rho f     = s^2 exp(-r^2 / 2 s^2),

    the lower incomplete gamma(a, x), a = n/2, by the power series
    x^a e^-x sum_j x^j / (a (a+1) ... (a+j)) of positive terms for
    x < a + 1, and above that climbing from gamma(1/2, x) =
    sqrt(pi) erf(sqrt(x)) or gamma(1, x) = 1 - e^-x by gamma(a+1, x) =
    a gamma(a, x) - x^a e^-x, which cancels at small x.
    """
    s2 = width * width
    x = r * r / (2.0 * s2)
    if x < 0.5 * n + 1.0:
        a, term, total = 0.5 * n, 2.0 / n, 0.0
        while total + term != total:
            total += term
            a += 1.0
            term *= x / a
        g = x ** (0.5 * n) * math.exp(-x) * total
    else:
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


def _zonal_projection(a: np.ndarray, rho: np.ndarray, d: np.ndarray, k_max: int) -> np.ndarray:
    """Z[i, p, k] = int_(S^(n-1)) f(rho_i e) C_k^lam(e.d_p) de, lam = (n-2)/2,
    for the Gaussian f of width SOURCE_WIDTH about a in R^n, as an array
    (len(rho), len(d), k_max + 1).

    f(rho e) = g(e.a^) with g(t) = exp((2 rho |a| t - rho^2 - |a|^2) / 2 s^2)
    and a^ = a/|a|, so by the Funk-Hecke formula (C. Mueller, Spherical
    Harmonics, LNM 17, 1966; K. Atkinson and W. Han, LNM 2044, 2012, 2.5)
    Z[i, p, k] = mu_k(rho_i) C_k^lam(a^.d_p) with

        mu_k(rho) = |S^(n-2)| int_-1^1 g(t) C_k^lam(t) / C_k^lam(1) (1 - t^2)^(lam - 1/2) dt,

    taken on the m-point Gauss-Gegenbauer rule of that weight (legendre_rule
    at n = 3), m = k_max + 24: one (radii x m) matrix of g times the
    (m x k_max + 1) matrix of weighted C_k^lam(t_j) / C_k^lam(1), then one
    broadcast against C_k^lam(a^.d_p).  g C_k is entire in t with
    rho |a| / s^2 <= 14 on (0, 6), so the rule converges far faster than m
    grows: at k_max = 8, m = 32 and m = 128 give multipole errors within
    5e-17 of each other at n = 3, 4, 5.
    """
    lam, m, norm_a = 0.5 * (len(a) - 2), k_max + 24, math.sqrt(a @ a)
    t, w = legendre_rule(m) if len(a) == 3 else _gauss_gegenbauer(m, lam)
    C = _gegenbauer_columns(np.append(t, 1.0), k_max, lam)  # last row C_k^lam(1)
    g = np.exp((2.0 * norm_a * np.multiply.outer(rho, t) - (rho**2 + a @ a)[:, None])
               / (2.0 * SOURCE_WIDTH**2))
    mu = sphere_area(len(a) - 1) * (g @ (w[:, None] * C[:-1] / C[-1]))
    return mu[:, None, :] * _gegenbauer_columns(d @ a / norm_a, k_max, lam)


def multipole_completeness_experiment(k_max: int = 8, n: int = 3):
    """Truncated multipole expansion of a smooth non-radial density in R^n
    vs its closed-form potential.

    The density is the Gaussian of width s = SOURCE_WIDTH about the centre
    a = SOURCE_CENTER[:n], so its potential is gaussian_potential at
    |x - a|.  By the addition theorem sum_m Y_km(e) Y_km(d) =
    (2k+n-2)/((n-2) |S^(n-1)|) C_k^((n-2)/2)(e.d), the degree-k part of
    I2*f at x = R d is (G_k z_k)(R) with the zonal projection

        z_k(rho) = (2k+n-2)/((n-2) |S^(n-1)|) int f(rho e) C_k^((n-2)/2)(e.d) de,

    taken at each grid radius by _zonal_projection, one 1-D
    Gauss-Gegenbauer rule by the Funk-Hecke formula.  Returns the arrays
    (points, oracle, errors): the six evaluation points (6, n), the oracle
    there (6,), and the absolute error of the expansion truncated at
    K_max = k in column k of errors (6, k_max + 1), running sums over k.
    """
    a = np.asarray(SOURCE_CENTER[:n])
    grid = build_grid(n, 6.0, N_RADIAL)
    dirs = np.asarray(EVAL_DIRECTIONS)[:, :n]
    points = EVAL_RADIUS * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    d = points / EVAL_RADIUS
    Z = _zonal_projection(a, grid.nodes, d, k_max)
    E = get_discretization(grid).basis_eval(np.linalg.norm(points, axis=1))
    value, partial = np.zeros(len(d)), []  # partial[k]: truncated at K_max = k
    for k in range(k_max + 1):
        z = (2 * k + n - 2) / ((n - 2) * sphere_area(n)) * Z[:, :, k]
        value = value + np.sum(E * (kernel_matrix(grid, k) @ z).T, axis=1)
        partial.append(value)
    oracle = np.array([gaussian_potential(n, float(np.linalg.norm(x - a)), SOURCE_WIDTH)
                       for x in points])
    return points, oracle, np.abs(np.array(partial).T - oracle[:, None])
