"""Radial grids, weighted quadrature and spectral differentiation.

Everything downstream works on the half line with the measure r^(n-1) dr,
n in {3, 4, 5}.  A grid packages mapped Gauss-Legendre nodes/weights for
that measure; a Discretization adds barycentric interpolation on the
nodes, one differentiation pair on the nodes plus r_max, the collocated
-Laplacian on that set and the cumulative-moment matrix H_(n-1) behind
U'.  get_discretization keeps one per grid.

Every Gauss-Legendre rule comes from legendre_rule: Newton's method in the
angle theta of x = -cos(theta) on the cosine series of P_m, O(m^2) once per
size per process, with each node measured from its nearer end of the
interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

SCHEME_GAUSS = "gauss_legendre_mapped"  # the only grid scheme; grid headers name it

SUPPORTED_DIMS = (3, 4, 5)
_PANEL_POINTS, _PANEL_BLOCK = 8, 16  # head_moment Gauss points per panel, panels per block
DEFAULT_R_MAX = {3: 30.0, 4: 25.0, 5: 20.0}


_NEWTON_SWEEPS = 8  # Newton sweeps a Gauss-Legendre table may take
_THETA_TOL = 1e-13  # its last sweep moves no angle by more than this, relative
_WEIGHT_SUM_TOL = 1e-13  # relative miss of sum w = 2 that a table may have


@functools.lru_cache(maxsize=32)
def _legendre_table(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Angles theta_k in (0, pi/2], ascending, of the left-half nodes
    x_k = -cos(theta_k) of the m-point Gauss-Legendre rule on (-1, 1), and
    their weights.  Cached, read-only.

    Newton's method in theta on the cosine series

        P_m(cos theta) = sum_(j <= m/2) c_j cos((m - 2j) theta),
        c_j = 2 g_j g_(m-j), halved at 2j = m,  g_j = (2j-1)!! / (2j)!!,

    whose zeros in (0, pi/2] are those of
    P_m(-cos theta) = (-1)^m P_m(cos theta), started from Tricomi's
    approximations (P. N. Swarztrauber, SIAM J. Sci. Comput. 24 (2002)
    945-954; N. Hale and A. Townsend, SIAM J. Sci. Comput. 35 (2013)
    A652-A674), taken to first order in the angle.  One sweep evaluates the
    series and its theta-derivative at every angle at once, O(m^2), cos and
    sin in turn in one reused (ceil(m/2), floor(m/2) + 1) buffer.  It
    evaluates at the angle rounded to a multiple of 2^-41, where every
    (m - 2j) theta is a double for m < 2048, so cos and sin see exact
    arguments, and takes the Newton step from there.  Sweeps stop once no
    angle moves by more than _THETA_TOL of itself.  The weight is
    2 / (dP_m/dtheta)^2, with the derivative moved from the rounded angle to
    the new one to first order by Legendre's equation, P'' = -cot(theta) P'
    at a zero.  A table that misses the stop test within _NEWTON_SWEEPS
    sweeps, or whose weights miss sum w = 2 by _WEIGHT_SUM_TOL, raises
    RuntimeError.  It calls no numpy arccos or tan: the first call of each
    in a process raises the peak resident set by 128 kB."""
    half, terms = (m + 1) // 2, m // 2 + 1
    i = np.arange(1.0, m + 1.0)
    g = np.cumprod(np.concatenate(([1.0], (2.0 * i - 1.0) / (2.0 * i))))
    c = 2.0 * g[:terms] * g[m - np.arange(terms)]
    if m % 2 == 0:
        c[-1] *= 0.5
    k = m - 2.0 * np.arange(terms)
    kc = k * c
    # Tricomi's cos(theta) = (1 - delta) cos(phi), to first order in delta
    phi = (4.0 * np.arange(1.0, half + 1.0) - 1.0) * math.pi / (4.0 * m + 2.0)
    sin_phi = np.sin(phi)
    delta = (m - 1.0) / (8.0 * m**3) + (39.0 - 28.0 / sin_phi**2) / (384.0 * m**4)
    theta = phi + delta * np.cos(phi) / sin_phi
    buf = np.empty((half, terms))
    for _ in range(_NEWTON_SWEEPS):
        at = np.ldexp(np.rint(np.ldexp(theta, 41)), -41)
        np.multiply.outer(at, k, out=buf)
        np.cos(buf, out=buf)
        step = buf @ c
        np.multiply.outer(at, k, out=buf)
        np.sin(buf, out=buf)
        dp = buf @ kc  # -dP/dtheta, so at + P / dp is the Newton step
        step /= dp
        new = at + step
        converged = np.max(np.abs(new - theta) / new) <= _THETA_TOL
        theta = new
        if converged:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre rule for m = {m}: Newton did not converge "
                           f"in {_NEWTON_SWEEPS} sweeps")
    dp *= 1.0 - step * np.cos(theta) / np.sin(theta)
    w = 2.0 / dp**2
    total = 2.0 * float(np.sum(w)) - (w[-1] if m % 2 else 0.0)
    if not abs(total - 2.0) <= 2.0 * _WEIGHT_SUM_TOL:
        raise RuntimeError(f"Gauss-Legendre rule for m = {m}: weights sum to "
                           f"{total!r}, not 2")
    theta.flags.writeable = False
    w.flags.writeable = False
    return theta, w


def legendre_rule(m: int, a=-1.0, b=1.0) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes, ascending, and weights on (a, b).  a and
    b may be arrays of one broadcast shape; the rule takes that shape with m
    appended.  Each node is measured from its nearer end,
    a + (b - a) sin^2(theta/2) or b - (b - a) sin^2(theta/2), so a node near
    an end keeps its relative distance from it to rounding; on (-1, 1) the
    rule is exactly symmetric, and for odd m the middle node is (a + b) / 2.
    From the cached table of _legendre_table."""
    theta, w = _legendre_table(m)
    half = m // 2
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    gap = (b - a) * np.sin(0.5 * theta[:half]) ** 2
    parts = [a + gap, (b - gap)[..., ::-1]]
    if m % 2:
        parts.insert(1, 0.5 * (a + b))
    weights = 0.5 * (b - a) * np.concatenate((w, w[:half][::-1]))
    return np.concatenate(parts, axis=-1), weights


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError(f"sphere_area requires n >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _gauss_gegenbauer(m: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for the weight (1 - t^2)^(alpha - 1/2) on [-1, 1]
    by Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the orthonormal Gegenbauer polynomials, and the weights are the weight's
    total mass times the squared first eigenvector components.  Symmetrized,
    since the weight is even, as legendre_rule is by construction."""
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0 * alpha - 1.0) / (4.0 * (k + alpha) * (k + alpha - 1.0)))
    t, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0)
    wt = mass * vec[0] ** 2
    return 0.5 * (t - t[::-1]), 0.5 * (wt + wt[::-1])


@functools.lru_cache(maxsize=16)
def sphere_product_rule(n: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product Gauss rule on S^(n-1), exact for spherical polynomials up to
    the given degree: uniform azimuth, then Gauss-Gegenbauer in each polar
    cosine, appended as the last coordinate.  Returns (M, n) unit vectors
    and weights summing to |S^(n-1)|; on S^2 the points are
    (sin theta cos phi, sin theta sin phi, cos theta), polar index outer.
    Cached, read-only; weights off |S^(n-1)| by 1e-12 raise RuntimeError."""
    m_polar = degree // 2 + 1
    m_phi = degree + 1
    phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    wts = np.full(m_phi, 2.0 * math.pi / m_phi)
    for dim in range(2, n):
        # S^(dim-1) -> S^dim picks up the weight (1 - t^2)^((dim-2)/2) in the
        # new polar cosine t, i.e. Gegenbauer alpha = (dim-1)/2; alpha = 1/2
        # is Gauss-Legendre
        if dim == 2:
            t, wt = legendre_rule(m_polar)
        else:
            t, wt = _gauss_gegenbauer(m_polar, (dim - 1) / 2.0)
        st = np.sqrt(1.0 - t**2)
        dirs = np.concatenate(
            [
                (st[:, None, None] * dirs[None, :, :]).reshape(-1, dim),
                np.repeat(t, dirs.shape[0])[:, None],
            ],
            axis=1,
        )
        wts = (wt[:, None] * wts[None, :]).ravel()
    area = sphere_area(n)
    if abs(float(np.sum(wts)) - area) > 1e-12 * area:
        raise RuntimeError("angular rule failed its surface-measure check")
    dirs.flags.writeable = False
    wts.flags.writeable = False
    return dirs, wts


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature rule for integral of f(r) r^(n-1) dr over (0, r_max).

    nodes are strictly increasing in (0, r_max); weights already include
    the r^(n-1) factor, so sum(weights * f(nodes)) approximates the
    weighted integral directly.
    """

    dim: int
    r_max: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    def header(self) -> str:
        return (
            f"n={self.dim} r_max={self.r_max:.17g} N={self.size} "
            f"scheme={SCHEME_GAUSS}"
        )

    def cache_key(self) -> tuple:
        return (self.dim, float(self.r_max), self.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())


def build_grid(n: int, r_max: float, N: int) -> RadialGrid:
    """Gauss-Legendre grid mapped to (0, r_max) for the measure r^(n-1) dr."""
    if n not in SUPPORTED_DIMS:
        raise ValueError(f"dimension n must be one of {SUPPORTED_DIMS}, got {n}")
    if not (r_max > 0.0 and np.isfinite(r_max)):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if N < 16:
        raise ValueError(f"grid size N must be >= 16, got {N}")
    r, w = legendre_rule(N, 0.0, r_max)
    weights = w * r ** (n - 1)
    r.flags.writeable = False
    weights.flags.writeable = False
    return RadialGrid(dim=n, r_max=float(r_max), nodes=r, weights=weights)


@dataclass
class RadialFunction:
    """Sampled radial profile on a grid.  It belongs to the truncated
    problem, so it is zero beyond r_max."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"values length {self.values.size} does not match grid size "
                f"{self.grid.size}"
            )

    def evaluate(self, r) -> np.ndarray:
        """Evaluate at arbitrary radii: barycentric interpolation inside
        [0, r_max], zero beyond r_max."""
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        inside = r <= self.grid.r_max
        if np.any(inside):
            out[inside] = get_discretization(self.grid).basis_eval(r[inside]) @ self.values
        return out[0] if scalar else out


def centrifugal_diagonal(grid: RadialGrid, k: int) -> np.ndarray:
    """k(k+n-2)/r^2 on the grid nodes, the centrifugal term of sector k."""
    return k * (k + grid.dim - 2) / grid.nodes**2


def integrate_radial(grid: RadialGrid, f: RadialFunction) -> float:
    """Weighted quadrature of f against r^(n-1) dr over (0, r_max)."""
    if f.grid is not grid and f.grid != grid:
        raise ValueError("radial function does not live on the given grid")
    return float(np.dot(grid.weights, f.values))


# ---------------------------------------------------------------------------
# Spectral discretization
# ---------------------------------------------------------------------------

def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_(i != j) (x_j - x_i) c, with
    c = 4 / (max x - min x), the interval's capacity, so the products
    neither overflow nor underflow (Berrut & Trefethen, SIAM Rev. 46
    (2004)); normalized to max |w| = 1."""
    d = np.subtract.outer(x, x)
    d *= 4.0 / (np.max(x) - np.min(x))
    np.fill_diagonal(d, 1.0)
    w = 1.0 / np.prod(d, axis=1)
    return w / np.max(np.abs(w))


def _interpolation_rows(x: np.ndarray, wb: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Matrix E, (targets, nodes), with E @ values = the barycentric
    interpolant on nodes x with weights wb at the targets t.  A target on
    a node takes its value.  Built in place, so a call holds one
    (targets, nodes) float temporary, not three."""
    d = t[:, None] - x[None, :]
    exact = d == 0.0
    hit_rows = np.any(exact, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.divide(wb, d, out=d)
        np.divide(E, np.sum(E, axis=1, keepdims=True), out=E)
    E[hit_rows] = exact[hit_rows]
    return E


def _composite_rule(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Targets t and weights q, both (N, _PANEL_POINTS), of the Gauss rule on
    each interval [x_(j-1), x_j], x_(-1) = 0: row j integrates a smooth f
    over interval j as sum_l q_jl f(t_jl)."""
    return legendre_rule(_PANEL_POINTS, np.concatenate(([0.0], x[:-1])), x)


def _diff_matrices(x: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First/second barycentric differentiation matrices on nodes x,

        D1_ij = (w_j / w_i) / (x_i - x_j),  D2_ij = 2 D1_ij (D1_ii - 1 / (x_i - x_j)),

    off the diagonal, each diagonal minus its row's off-diagonal sum.  Built
    in place in three N x N arrays: dx turns into D1_ii - 1/dx, operation
    for operation the out-of-place formula, so the result is the same bits."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D1 = w[None, :] / w[:, None]
    D1 /= dx
    np.fill_diagonal(D1, 0.0)
    np.fill_diagonal(D1, -np.sum(D1, axis=1))
    np.divide(1.0, dx, out=dx)
    np.subtract(np.diag(D1)[:, None], dx, out=dx)
    D2 = 2.0 * D1
    D2 *= dx
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -np.sum(D2, axis=1))
    return D1, D2


class Discretization:
    """Polynomial collocation machinery attached to a grid, on one node
    set: the N grid nodes plus r_max.

    * ``free``      -- degree N-1 interpolants of the N grid node values;
      basis_eval and head_moment evaluate and integrate sampled profiles.
    * ``dirichlet`` -- interpolants on all N + 1 nodes, pinned to zero at
      r_max; the differential operators use them, so the decay condition
      at the truncation radius is built in.

    One _barycentric_weights call serves both: the free weights are the
    dirichlet ones times (x_j - r_max), up to a common factor (Berrut &
    Trefethen, SIAM Rev. 46 (2004)).  It holds, read-only, the node set,
    and neg_laplacian and head_moment once built; collocation and stiffness
    build anew on each call, and no differentiation matrix is kept.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self._x = np.append(grid.nodes, grid.r_max)
        self._x.flags.writeable = False
        self._wb = _barycentric_weights(self._x)
        self._wb_free = self._wb[:-1] * (grid.nodes - grid.r_max)
        self._head = None
        self._neg_lap = None

    def collocation(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node set (r_max last) with its full first and second
        differentiation matrices, read-only, built anew on each call, with
        the same bits; the grid keeps neither.  A free interpolant p of
        node values f is the node set's interpolant of [f; p(r_max)], so
        the pair differentiates both spaces."""
        D1, D2 = _diff_matrices(self._x, self._wb)
        D1.flags.writeable = False
        D2.flags.writeable = False
        return self._x, D1, D2

    def d1(self) -> np.ndarray:
        """The dirichlet D1 (d2: D2) without the pinned r_max row and column,
        from a pair built anew.  Only the benchmark's layer probe reads d1
        and d2."""
        return self.collocation()[1][:-1, :-1]

    def d2(self) -> np.ndarray:
        return self.collocation()[2][:-1, :-1]

    def basis_eval(self, targets: np.ndarray) -> np.ndarray:
        """Matrix E with E @ values = free interpolant(targets)."""
        t = np.asarray(targets, dtype=float)
        return _interpolation_rows(self.grid.nodes, self._wb_free, t)

    def head_moment(self) -> np.ndarray:
        """Matrix H_(n-1) with (H f)_i = int_0^{r_i} rho^(n-1) f(rho) d rho,
        f the free interpolant of the node values.

        A composite rule (_composite_rule): panel j, the node interval
        [r_(j-1), r_j] with r_(-1) = 0, gets an 8-point Gauss rule, times
        t^(n-1), and row i sums the panels j <= i.  The targets t_jl and
        weights q_jl enter through the Cauchy form of the barycentric
        interpolant (Berrut & Trefethen, SIAM Rev. 46 (2004)), which needs
        no normalised basis rows:

            P[j, k] = wb_k sum_l (q_jl / den_jl) C_jlk,
            C_jlk = 1 / (t_jl - x_k),   den_jl = sum_k C_jlk wb_k,

        built _PANEL_BLOCK panels at a time in one reused buffer; then
        H = cumsum_j P.  Every target lies strictly inside its panel, so
        none is a node.
        """
        if self._head is None:
            x = self.grid.nodes
            wb = self._wb_free
            N = x.size
            t, q = _composite_rule(x)
            q *= t ** (self.grid.dim - 1)
            H = np.empty((N, N))
            buf = np.empty((_PANEL_BLOCK * _PANEL_POINTS, N))
            for lo in range(0, N, _PANEL_BLOCK):
                tb, qb = t[lo:lo + _PANEL_BLOCK], q[lo:lo + _PANEL_BLOCK]
                C = buf[:tb.size]
                np.subtract.outer(tb.ravel(), x, out=C)
                np.reciprocal(C, out=C)
                coef = qb / (C @ wb).reshape(qb.shape)
                block = H[lo:lo + _PANEL_BLOCK]
                np.matmul(coef[:, None, :], C.reshape(*qb.shape, N), out=block[:, None, :])
                block *= wb
            np.cumsum(H, axis=0, out=H)
            H.flags.writeable = False
            self._head = H
        return self._head

    def stiffness(self) -> np.ndarray:
        """Galerkin stiffness S_ij = int l_i' l_j' r^(n-1) dr on the dirichlet
        basis: the exact weak form of the radial -Laplacian (the boundary
        terms vanish, r^(n-1) u' v -> 0 at 0 and v(r_max) = 0).  Each l_j'
        has degree N - 1, so the (N+8)-point rule integrates S exactly.  At
        each rule point t, l_j'(t) is the derivative of the barycentric
        formula over the N + 1 dirichlet nodes (Berrut & Trefethen, SIAM
        Rev. 46 (2004)),

            l_j'(t) = E_tj (c_t - 1 / (t - x_j)),  c_t = sum_k E_tk / (t - x_k),

        E(t) the interpolation rows; a rule point on a node x_m (odd N, at
        r_max / 2) takes row m of the barycentric D1 instead, built in O(N).
        Eq = sqrt(q) l'(t) on the N kept columns, contiguous, and
        S = Eq^T Eq, symmetric positive semidefinite by construction, since
        the weights q are nonnegative.  Built on each call from no
        differentiation pair: its peak is two (N+8) x N arrays, 1 / (t - x_j)
        and E, with the r_max column carried as vectors.  The sector
        operators keep only its weighted block."""
        x, wb = self.grid.nodes, self._wb
        t, q = legendre_rule(x.size + 8, 0.0, self.grid.r_max)
        q *= t ** (self.grid.dim - 1)
        m = np.searchsorted(x, t).clip(max=x.size - 1)
        hits = np.flatnonzero(x[m] == t)
        with np.errstate(divide="ignore", invalid="ignore"):  # the hit rows alone
            Eq = np.subtract.outer(t, x)
            np.reciprocal(Eq, out=Eq)  # 1 / (t - x_j), until it turns into l'
            inv_r = 1.0 / (t - self.grid.r_max)
            E = Eq * wb[:-1]
            e_r = inv_r * wb[-1]
            total = np.sum(E, axis=1) + e_r
            E /= total[:, None]
            c = np.einsum("ij,ij->i", E, Eq) + e_r / total * inv_r
            np.subtract(c[:, None], Eq, out=Eq)
            Eq *= E
        del E
        for i in hits:  # t_i = x_j: D1's row j, (wb_k / wb_j) / (x_j - x_k), minus their sum
            j = m[i]
            dx = x[j] - self._x
            dx[j] = 1.0
            row = wb / wb[j] / dx
            row[j] = 0.0
            row[j] = -np.sum(row)
            Eq[i] = row[:-1]
        Eq *= np.sqrt(q)[:, None]
        return Eq.T @ Eq

    def neg_laplacian(self) -> np.ndarray:
        """(N+1) x (N+1), kept: in its first N rows -D2 - ((n-1)/x) D1, the
        collocated radial -Laplacian on the node set (r_max last), and in
        row N D1's last row, the derivative at r_max.  Formed in D2's own
        buffer; the grid keeps neither D1 nor D2.  Its leading N x N block
        has decay at r_max built in.  Not W-self-adjoint like the weak form
        W^{-1} S, which the eigenproblems use, but exact pointwise."""
        if self._neg_lap is None:
            D1, A = _diff_matrices(self._x, self._wb)
            np.subtract(((1 - self.grid.dim) / self._x)[:, None] * D1, A, out=A)
            A[-1] = D1[-1]
            A.flags.writeable = False
            self._neg_lap = A
        return self._neg_lap


@functools.lru_cache(maxsize=None)
def get_discretization(grid: RadialGrid) -> Discretization:
    """The grid's Discretization, one per (n, r_max, N): grids hash and
    compare by cache_key, so grids built apart with equal keys share it."""
    return Discretization(grid)
