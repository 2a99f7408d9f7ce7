"""Newton potential: exact radial reduction and multipole sector kernels.

The radial reduction of I2 * f for radial f is

    (I2*f)(r) = (1/(n-2)) [ r^{2-n} int_0^r rho^{n-1} f + int_r^inf rho f ],

equivalently the k = 0 instance of the degree-k sector kernel

    G_k(r, rho) = (1/(2k+n-2)) r_<^k / r_>^{k+n-2},

which maps the radial coefficient of a degree-k spherical harmonic sector
to the coefficient of its potential.  G_k is the Green's function of the
sector operator -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2, so every kernel
matrix comes from one collocated solve of that operator with the
decaying-harmonic Robin condition at r_max; kernel_matrix caches each per
(grid, k), and I2 * f on the nodes is kernel_matrix(grid, 0) @ f.  A
tensor-quadrature 3D oracle provides the independent cross-check:
multipole_completeness_experiment compares the truncated expansion on
N_RADIAL radial nodes with the oracle on ORACLE_SHAPE^3 nodes and returns
the arrays (points, oracle, errors).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .radial_core import (
    RadialGrid,
    build_grid,
    get_discretization,
    sphere_area,
    sphere_product_rule,
)


@functools.lru_cache(maxsize=None)
def kernel_matrix(grid: RadialGrid, k: int) -> np.ndarray:
    """Dense matrix of f -> int_0^rmax G_k(r_i, rho) f(rho) rho^{n-1} d rho.

    G_k is the Green's function of -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2
    whose solution continues as the decaying harmonic r^(-(k+n-2)) beyond
    R = r_max, i.e. g'(R) + ((k+n-2)/R) g(R) = 0.  The operator is
    collocated on the dirichlet node set (grid nodes plus r_max), the Robin
    row takes the place of the pin at r_max, the system is solved against
    [I; 0] and the first N rows are kept.  Regularity at the origin is
    built into the polynomial basis.  Read-only, cached per (grid, k):
    grids hash and compare by cache_key, so grids built apart with equal
    keys share each matrix.
    """
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    n = grid.dim
    x, D1, D2 = get_discretization(grid).collocation("dirichlet")
    N = grid.size
    A = -D2 - ((n - 1) / x)[:, None] * D1
    A[np.diag_indices(N + 1)] += k * (k + n - 2) / x**2
    A[N] = D1[N]
    A[N, N] += (k + n - 2) / x[N]
    G = np.linalg.solve(A, np.eye(N + 1, N))[:N]
    G.flags.writeable = False
    return G


# The off-center Gaussian density of the multipole check (every sector
# populated) and the radius of its evaluation points, twice the density's
# effective support radius, so the sector series converges geometrically.
SOURCE_CENTER = (0.4, 0.15, -0.1)
SOURCE_WIDTH = 0.45
EVAL_RADIUS = 4.5
N_RADIAL = 160  # radial nodes of the expansion, on (0, 6)
ORACLE_SHAPE = 56  # oracle Gauss nodes per axis of the box [-5, 5]^3


def multipole_completeness_experiment(k_max: int = 8):
    """Truncated multipole expansion of a smooth non-radial density vs the
    direct 3D oracle.

    By the addition theorem sum_m Y_km(e) Y_km(d) = (2k+1)/(4 pi) P_k(e.d),
    the degree-k part of I2*f at x = R d is (G_k z_k)(R) with the zonal
    projection

        z_k(rho) = (2k+1)/(4 pi) int_{S^2} f(rho e) P_k(e.d) de,

    taken at each grid radius by the product rule of degree 2 k_max + 6 on
    one cloud of density values.  Returns the arrays (points, oracle,
    errors): the six evaluation points (6, 3), the oracle there (6,), and
    the absolute error of the expansion truncated at K_max = k in column k
    of errors (6, k_max + 1), running sums over k.
    """
    a = np.asarray(SOURCE_CENTER, dtype=float)

    def density(pts):
        pts = np.atleast_2d(pts)
        return np.exp(-np.sum((pts - a) ** 2, axis=1) / (2.0 * SOURCE_WIDTH**2))

    grid = build_grid(3, 6.0, N_RADIAL)
    box = [(-5.0, 5.0)] * 3  # covers source and evaluation circle
    oracle_grid = sample_density(density, box, (ORACLE_SHAPE,) * 3)
    dirs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-0.577350269189626, 0.577350269189626, 0.577350269189626],
            [0.707106781186548, -0.707106781186548, 0.0],
            [-0.6, -0.64, 0.48],
        ]
    )
    points = EVAL_RADIUS * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    d = points / EVAL_RADIUS
    e, w = sphere_product_rule(3, 2 * k_max + 6)
    cloud = (grid.nodes[:, None, None] * e[None, :, :]).reshape(-1, 3)
    fw = density(cloud).reshape(grid.size, -1) * w
    # P[j, p, k] = P_k(e_j . d_p); Z[i, p, k] = sum_j w_j f(rho_i e_j) P[j, p, k]
    P = np.polynomial.legendre.legvander(e @ d.T, k_max)
    Z = (fw @ P.reshape(len(e), -1)).reshape(grid.size, len(d), k_max + 1)
    E = get_discretization(grid).basis_eval(np.linalg.norm(points, axis=1))
    value, partial = np.zeros(len(d)), []  # partial[k]: truncated at K_max = k
    for k in range(k_max + 1):
        z = (2 * k + 1) / (4.0 * math.pi) * Z[:, :, k]
        value = value + np.sum(E * (kernel_matrix(grid, k) @ z).T, axis=1)
        partial.append(value)
    oracle = np.array([direct_newton_potential_nd(oracle_grid, x) for x in points])
    return points, oracle, np.abs(np.array(partial).T - oracle[:, None])


# ---------------------------------------------------------------------------
# Direct 3D oracle
# ---------------------------------------------------------------------------

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
