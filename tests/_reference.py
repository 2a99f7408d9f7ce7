"""Independent references the tests compare the pipelines against.

Adaptive-quadrature Newton potentials, the zonal-harmonic series of the
kernel, a symmetric double quadrature of the interaction integral, an
exponential-rate fit, the fit of the profile against its decay
asymptotics, the batched Newton search on grad V with a fixed
step limit, the separatrix bisection with shots classified by
solve_ivp events, the barycentric weights one node at a time, the
masked barycentric basis evaluation, the cumulative-moment matrix summed
over basis_eval rows, the real spherical harmonics from scipy's
sph_harm_y and the Gauss-Gegenbauer rule from scipy's roots_gegenbauer.
The closed-form kernels K and G_k, the radial derivative of the Newton
potential by its cumulative moment, the equation residual of a solved
state and the bare interaction constant C0 are oracles too.
No pipeline of the package runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import eval_gegenbauer, roots_gegenbauer, sph_harm_y

from hartree_lab import ground_state as gstate
from hartree_lab.ground_state import GroundState
from hartree_lab.newton_potential import kernel_matrix
from hartree_lab.radial_core import (
    Discretization,
    RadialFunction,
    RadialGrid,
    get_discretization,
    sphere_area,
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
    cum = disc.head_moment(n - 1) @ u2.values
    vals = -cum / grid.nodes ** (n - 1)
    return RadialFunction(grid=grid, values=vals)


def equation_residual(gs: GroundState) -> float:
    return gstate.profile_equation_residual(gs.grid, gs.profile.values, gs.mass_shift)


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
    """radial_core._barycentric_weights one node at a time: log-accumulated
    products over the differences x_j - x_i, i != j."""
    m = x.size
    logw = np.zeros(m)
    sign = np.ones(m)
    for j in range(m):
        d = np.delete(x[j] - x, j)
        logw[j] = -np.sum(np.log(np.abs(d)))
        sign[j] = np.prod(np.sign(d))
    logw -= np.max(logw)
    return sign * np.exp(logw)


def basis_eval_masked(disc: Discretization, targets: np.ndarray, bc: str = "free") -> np.ndarray:
    """Discretization.basis_eval with separate temporaries, the rows that
    hit no node gathered, divided and scattered back."""
    t = np.asarray(targets, dtype=float)
    x = disc._nodes[bc]
    wb = disc._wb[bc]
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
    if bc == "dirichlet":
        E = E[:, :-1]
    return E


def head_moment_subrule(disc: Discretization, p: int, chunk_doubles: int = 4_000_000) -> np.ndarray:
    """Discretization.head_moment through basis_eval: row i sums the
    interpolation rows at the m-point Gauss nodes of (0, r_i), weighted by
    the rule, m = floor((N+p)/2) + 1; rows are filled in chunks whose
    temporaries hold about chunk_doubles values."""
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


def classify_events(n: int, w0: float) -> str:
    """ground_state._side through solve_ivp's DOP853 with terminal events:
    'low' when u crosses zero, 'high' when u' crosses zero upward or u
    crosses 10, 'none' when the shot reaches ground_state._R_END."""
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
        gstate._rhs(n),
        (r0, gstate._R_END),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=(ev_cross, ev_turn, ev_blow),
    )
    if sol.t_events[0].size:
        return "low"
    if sol.t_events[1].size or sol.t_events[2].size:
        return "high"
    return "none"


def bisect_separatrix_events(n: int) -> float:
    """ground_state._bisect_separatrix with classify_events for the side."""
    scale = abs(gstate._W0_GUESS)
    c_lo = c_hi = None
    c = gstate._W0_GUESS
    for _ in range(80):
        side = classify_events(n, c)
        if side == "none":
            return c
        if side == "low":
            c_lo = c
            if c_hi is not None:
                break
            c = c + max(scale, abs(c))
        else:
            c_hi = c
            if c_lo is not None:
                break
            c = c - max(scale, abs(c))
    if c_lo is None or c_hi is None:
        raise RuntimeError("failed to bracket the shooting separatrix")
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


def real_sph_harm_scipy(k: int, m: int, theta, phi) -> np.ndarray:
    """Real orthonormal Y_km from scipy's complex sph_harm_y, with its
    Condon-Shortley phase (-1)^m taken back out."""
    y = sph_harm_y(k, abs(m), np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    if m == 0:
        return np.real(y)
    return math.sqrt(2.0) * (-1.0) ** m * (np.real(y) if m > 0 else np.imag(y))


def gauss_gegenbauer_scipy(m: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for the weight (1 - t^2)^(alpha - 1/2) on [-1, 1]
    from scipy's roots_gegenbauer."""
    return roots_gegenbauer(m, alpha)
