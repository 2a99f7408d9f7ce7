"""Newton potential: exact radial reduction and multipole sector kernels.

The radial reduction of I2 * f for radial f is

    (I2*f)(r) = (1/(n-2)) [ r^{2-n} int_0^r rho^{n-1} f + int_r^inf rho f ],

equivalently the k = 0 instance of the degree-k sector kernel

    G_k(r, rho) = (1/(2k+n-2)) r_<^k / r_>^{k+n-2},

which maps the radial coefficient of a degree-k spherical harmonic sector
to the coefficient of its potential.  G_k is the Green's function of the
sector operator -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2, so every kernel
matrix comes from one collocated solve of that operator with the
decaying-harmonic Robin condition at r_max.  A tensor-quadrature nD oracle
(n = 3) provides the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .radial_core import (
    RadialFunction,
    RadialGrid,
    get_discretization,
    sphere_area,
    sphere_product_rule,
)


def kernel_matrix(grid: RadialGrid, k: int) -> np.ndarray:
    """Dense matrix of f -> int_0^rmax G_k(r_i, rho) f(rho) rho^{n-1} d rho.

    G_k is the Green's function of -(d2/dr2 + ((n-1)/r) d/dr) + k(k+n-2)/r^2
    whose solution continues as the decaying harmonic r^(-(k+n-2)) beyond
    R = r_max, i.e. g'(R) + ((k+n-2)/R) g(R) = 0.  The operator is
    collocated on the dirichlet node set (grid nodes plus r_max), the Robin
    row takes the place of the pin at r_max, the system is solved against
    [I; 0] and the first N rows are kept.  Regularity at the origin is
    built into the polynomial basis.  Read-only, cached per grid and k on
    the grid's Discretization.
    """
    if k < 0:
        raise ValueError("sector degree k must be >= 0")
    disc = get_discretization(grid)
    if k not in disc.kernels:
        n = grid.dim
        x, D1, D2 = disc.collocation("dirichlet")
        N = grid.size
        A = -D2 - ((n - 1) / x)[:, None] * D1
        A[np.diag_indices(N + 1)] += k * (k + n - 2) / x**2
        A[N] = D1[N]
        A[N, N] += (k + n - 2) / x[N]
        G = np.linalg.solve(A, np.eye(N + 1, N))[:N]
        G.flags.writeable = False
        disc.kernels[k] = G
    return disc.kernels[k]


def radial_newton_potential(grid: RadialGrid, f: RadialFunction) -> RadialFunction:
    """I2 * f for radial f, sampled on the grid: the k = 0 kernel matrix
    applied to the samples.  f is zero beyond r_max, so nothing is added."""
    if f.grid is not grid and f.grid != grid:
        raise ValueError("radial function does not live on the given grid")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("radial_newton_potential requires finite inputs")
    return RadialFunction(grid=grid, values=kernel_matrix(grid, 0) @ f.values)


def multipole_potential(
    grid: RadialGrid,
    sector_coeffs: Sequence[Tuple[int, int, RadialFunction]],
) -> List[Tuple[int, int, RadialFunction]]:
    """Apply the degree-k sector kernel to each (k, m, f_km) coefficient.

    The full potential of sum f_km Y_km is sum g_km Y_km with the returned
    g_km; the kernel depends on k only, so m is carried through untouched.
    """
    out = []
    for k, m, f in sector_coeffs:
        if f.grid is not grid and f.grid != grid:
            raise ValueError("sector coefficient does not live on the given grid")
        g = kernel_matrix(grid, k) @ f.values
        out.append((k, m, RadialFunction(grid=grid, values=g)))
    return out


# ---------------------------------------------------------------------------
# Real spherical harmonics (n = 3) and sector projection
# ---------------------------------------------------------------------------

def real_sph_harm(k: int, m: int, theta, phi):
    """Real orthonormal spherical harmonic Y_km on S^2, int_{S^2} Y_km^2 = 1.

    theta is the polar angle, phi the azimuth.  Y_km is p(cos theta) times 1,
    sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi) for m = 0, > 0, < 0, with p the
    fully normalised Legendre function p_k^|m| from the three-term recurrence
    in k, without the Condon-Shortley phase: (-1)^m times scipy's sph_harm_y.
    """
    a = abs(m)
    if a > k:
        raise ValueError(f"need |m| <= k, got k={k}, m={m}")
    x, s = np.cos(theta), np.sin(theta)
    p, prev = np.full(np.shape(x), 1.0 / math.sqrt(4.0 * math.pi)), 0.0
    for j in range(1, a + 1):
        p = p * math.sqrt((2 * j + 1) / (2 * j)) * s
    for l in range(a + 1, k + 1):
        d = (l - a) * (l + a)
        b = math.sqrt((2 * l + 1) * (l - 1 - a) * (l - 1 + a) / ((2 * l - 3) * d))
        p, prev = math.sqrt((4 * l * l - 1) / d) * x * p - b * prev, p
    if m == 0:
        return p
    phi = np.asarray(phi, dtype=float)
    return math.sqrt(2.0) * p * (np.cos(m * phi) if m > 0 else np.sin(a * phi))


def project_sectors(
    func: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    k_max: int,
    degree: Optional[int] = None,
) -> dict:
    """Spherical-harmonic coefficients f_km(r_i) of a 3D density.

    func takes an (M, 3) array of points and returns values (M,); it is
    called once, on the shells of all radii together.
    """
    if grid.dim != 3:
        raise ValueError("sector projection is implemented for n = 3")
    deg = degree if degree is not None else 2 * k_max + 6
    dirs, w = sphere_product_rule(3, deg)
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    keys = [(k, m) for k in range(k_max + 1) for m in range(-k, k + 1)]
    ybasis = np.stack([real_sph_harm(k, m, theta, phi) for k, m in keys])
    cloud = (grid.nodes[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    vals = np.asarray(func(cloud), dtype=float).reshape(grid.size, -1)
    coeffs = (vals * w) @ ybasis.T
    return {key: coeffs[:, j] for j, key in enumerate(keys)}


def expansion_terms(
    sectors: Sequence[Tuple[int, int, RadialFunction]],
    point: np.ndarray,
) -> List[float]:
    """The terms g_km(|x|) Y_km(x/|x|) of the expansion at a 3D point, one per
    sector in the given order; one interpolation row at |x| serves every g_km."""
    x = np.asarray(point, dtype=float)
    r = float(np.linalg.norm(x))
    theta = math.acos(max(-1.0, min(1.0, x[2] / r)))
    phi = math.atan2(x[1], x[0])
    grid = sectors[0][2].grid
    if any(g.grid != grid for _, _, g in sectors):
        raise ValueError("sector coefficients must share one grid")
    disc = get_discretization(grid)
    row = disc.basis_eval([r])[0] if r <= grid.r_max else np.zeros(grid.size)
    radial = np.stack([g.values for _, _, g in sectors]) @ row
    return [
        float(g_r) * float(real_sph_harm(k, m, theta, phi))
        for g_r, (k, m, _) in zip(radial, sectors)
    ]


def multipole_completeness_experiment(
    k_max: int = 8,
    n_radial: int = 160,
    source_center=(0.4, 0.15, -0.1),
    source_width: float = 0.45,
    eval_radius: float = 4.5,
    oracle_shape: int = 56,
):
    """Truncated multipole expansion of a smooth non-radial density vs the
    direct 3D oracle.

    The density is an off-center Gaussian (all sectors populated); the
    evaluation circle sits at twice its effective support radius so the
    sector series converges geometrically.  Returns a list of dicts with
    per-point absolute/relative errors for each truncation degree.
    """
    from .radial_core import build_grid

    a = np.asarray(source_center, dtype=float)
    sig = float(source_width)

    def density(pts):
        pts = np.atleast_2d(pts)
        return np.exp(-np.sum((pts - a) ** 2, axis=1) / (2.0 * sig**2))

    grid = build_grid(3, 6.0, n_radial)
    coeffs = project_sectors(density, grid, k_max)
    transformed = multipole_potential(
        grid,
        [
            (k, m, RadialFunction(grid=grid, values=vals))
            for (k, m), vals in coeffs.items()
        ],
    )
    box = [(-5.0, 5.0)] * 3  # covers source and evaluation circle
    oracle_grid = sample_density(density, box, (oracle_shape,) * 3)
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
    points = eval_radius * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    rows = []
    for point in points:
        oracle = direct_newton_potential_nd(3, oracle_grid, point)
        row = {"point": point, "oracle": oracle, "errors": {}}
        # the sectors come ordered by k, so the running sum after the last
        # sector of degree k is the expansion truncated at K_max = k
        value = 0.0
        for (k, _, _), term in zip(transformed, expansion_terms(transformed, point)):
            value += term
            row["errors"][k] = abs(value - oracle)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Direct nD oracle (n = 3)
# ---------------------------------------------------------------------------

@dataclass
class GriddedDensity:
    """Tensor-product samples of a density on a 3D box."""

    axes: Tuple[np.ndarray, np.ndarray, np.ndarray]
    axis_weights: Tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray
    box: Tuple[Tuple[float, float], ...]

    @property
    def shape(self):
        return self.values.shape


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


def direct_newton_potential_nd(n: int, density: GriddedDensity, point) -> float:
    """Brute-force (I2 * f)(x) by tensor quadrature; x must not be a node."""
    if n != 3:
        raise ValueError("direct oracle supports n = 3 only")
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
    return total / ((n - 2) * sphere_area(n))
