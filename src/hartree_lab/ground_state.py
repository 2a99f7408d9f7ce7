"""Ground states of  -Delta u + (1+mu) u = (I2 * u^2) u  for n = 3, 4, 5.

Two independent solvers:

* shooting -- integrates the equivalent local system in (u, W) with
  W = (1+mu) - I2*u^2.  The decaying separatrix at u(0) = 1 starts at a
  tabulated W(0), _SEPARATRIX_W0: it depends on n alone, so it is a
  constant of the equation.  One shot from it gives the profile, and the
  exact scaling (u, W)(r) -> s^2 (u, W)(s r) takes it to W -> 1+mu at
  infinity.  A process shoots once per dimension and rescales the cached
  shot for every mass shift.  The far field is completed by a stabilized
  backward integration from r_max seeded with the known decay asymptotics,
  so node values stay accurate out to r_max.  Both integrations take
  Taylor-series steps of order 30: times r the system is polynomial, so
  each step's coefficients follow from Cauchy products, and each step's
  polynomial is also its dense output, read at all radii at once by
  Horner's rule (Jorba and Zou, Experimental Math. 14 (2005); Hairer,
  Norsett and Wanner, Solving ODEs I, 2nd ed., Sec. I.8).
* fixed_point -- Newton's method on the collocated equation
  -Delta u + (1+mu - I2*u^2) u = 0.  The radial linearized operator is
  invertible at the ground state, so Newton needs no globalization from a
  start in its basin: a Gaussian of the width the exact scaling
  u -> (1+mu) u(sqrt(1+mu) r) gives, with the amplitude that puts it on
  the Nehari manifold.  A grid of more than _COARSE_N nodes starts instead
  from the same equation solved on a coarse grid from that Gaussian and
  interpolated (nested iteration), and takes one or two steps of its own.

The unperturbed equation is mass_shift mu = 0; mu = V(eps xi) gives the
rescaled-soliton equation used by the semiclassical module.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .newton_potential import kernel_matrix
from .radial_core import (
    SUPPORTED_DIMS,
    RadialFunction,
    RadialGrid,
    build_grid,
    get_discretization,
    integrate_radial,
    sphere_area,
)

METHOD_SHOOTING = "shooting"
METHOD_FIXED_POINT = "fixed_point"
DEFAULT_TOL = {METHOD_SHOOTING: 1e-7, METHOD_FIXED_POINT: 1e-10}
MONOTONE_TOL = 1e-10  # largest rise between neighbouring nodes, relative to max U
_FLOOR = 1e-300  # positivity floor of the fixed-point iterate
_NEWTON_STEPS = 20  # Newton iterations per grid; see _solve_fixed_point
_COARSE_N = 80  # fixed-point grids above this size start from a coarse solve
_COARSE_TOL = 1e-6  # residual the coarse solve stops at


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual; carries the best one."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class PositivityError(RuntimeError):
    """A ground-state profile that is not strictly positive."""


@dataclass
class SolverConfig:
    method: str = METHOD_FIXED_POINT
    tol: Optional[float] = None

    def __post_init__(self):
        if self.method not in (METHOD_SHOOTING, METHOD_FIXED_POINT):
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.tol is None:
            self.tol = DEFAULT_TOL[self.method]
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


def nu_from_mass(n: int, l2_mass: float) -> float:
    """Decay constant: nu^(n-2) = Gamma((n-2)/2) / (4 pi^(n/2)) * ||u||_L2^2."""
    val = math.gamma((n - 2) / 2.0) / (4.0 * math.pi ** (n / 2.0)) * l2_mass
    return val ** (1.0 / (n - 2))


@dataclass
class GroundState:
    """Converged positive radial profile with its derived diagnostics."""

    dim: int
    profile: RadialFunction
    potential: np.ndarray  # v = I2*U^2 on the grid nodes
    l2_mass: float
    energy: float
    residual: float
    method: str
    mass_shift: float = 0.0
    tol: float = math.inf

    def __post_init__(self):
        u = self.profile.values
        if np.min(u) <= 0.0:
            raise PositivityError("ground-state profile must be strictly positive")
        if np.any(np.diff(u) > MONOTONE_TOL * float(np.max(u))):
            raise ValueError("ground-state profile must be non-increasing")

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid

    @property
    def nu(self) -> float:
        return nu_from_mass(self.dim, self.l2_mass)


# ---------------------------------------------------------------------------
# residual and derived quantities
# ---------------------------------------------------------------------------

def _defect(K, pot0, freq, u):
    """(v, K u + (freq - v) u) with v = I2*u^2 on the nodes: the collocated
    equation's potential and defect at u."""
    v = pot0 @ u**2
    return v, K @ u + (freq - v) * u


def _residual(grid: RadialGrid, values, mass_shift: float) -> Tuple[np.ndarray, float]:
    """(v, relative weighted-L2 defect of -Delta u + (1+mu) u - v u), v the
    potential I2*u^2 on the nodes."""
    K = get_discretization(grid).neg_laplacian_colloc()
    v, defect = _defect(K, kernel_matrix(grid, 0), 1.0 + mass_shift, values)
    w = grid.weights
    norm = math.sqrt(float(np.dot(w, values**2)))
    if norm == 0.0:
        return v, 0.0
    return v, math.sqrt(float(np.dot(w, defect**2))) / norm


def interaction_integral(gs: GroundState) -> float:
    """int (I2*U^2) U^2 dx by pairing the profile against its potential."""
    area = sphere_area(gs.dim)
    return area * float(
        np.dot(gs.grid.weights, gs.potential * gs.profile.values**2)
    )


def _derivative(grid: RadialGrid, values, potential, mass_shift: float) -> np.ndarray:
    """H_(n-1)((1 + mu - v) U) / r^(n-1); see profile_derivative."""
    n = grid.dim
    rhs = (1.0 + mass_shift - potential) * values
    return (get_discretization(grid).head_moment() @ rhs) / grid.nodes ** (n - 1)


def profile_derivative(gs: GroundState) -> np.ndarray:
    """U' through the integrated equation,

        r^(n-1) U'(r) = int_0^r rho^(n-1) (1 + mu - v) U d rho,

    a plain cumulative quadrature: unlike repeated spectral differentiation
    it does not amplify rounding noise, so operator identities evaluated on
    it stay at the discretization level.
    """
    return _derivative(gs.grid, gs.profile.values, gs.potential, gs.mass_shift)


def pohozaev_defect(gs: GroundState) -> float:
    """|(n-2) K + n (1+mu) M - (n+2) Q/2| / Q, with K = int |grad U|^2 from
    profile_derivative, M = int U^2 and Q = interaction_integral.  The
    Pohozaev identity rests on the -(n-2) homogeneity of the Newton kernel,
    so it sees a wrong kernel that the equation residual, met on whatever
    kernel the solver is given, does not (Pohozaev, Soviet Math. Dokl. 6
    (1965); Moroz and Van Schaftingen, J. Funct. Anal. 265 (2013))."""
    n = gs.dim
    kinetic = sphere_area(n) * float(np.dot(gs.grid.weights, profile_derivative(gs) ** 2))
    quartic = interaction_integral(gs)
    mass = n * (1.0 + gs.mass_shift) * gs.l2_mass
    return abs((n - 2) * kinetic + mass - 0.5 * (n + 2) * quartic) / quartic


def _finalize(
    grid: RadialGrid,
    values: np.ndarray,
    mass_shift: float,
    method: str,
    tol: float,
) -> GroundState:
    n = grid.dim
    area = sphere_area(n)
    v, residual = _residual(grid, values, mass_shift)
    mass = area * integrate_radial(grid, RadialFunction(grid=grid, values=values**2))
    du = _derivative(grid, values, v, mass_shift)
    kinetic = area * float(np.dot(grid.weights, du**2))
    quartic = area * float(np.dot(grid.weights, v * values**2))
    energy = 0.5 * (kinetic + mass) - 0.25 * quartic
    if not residual <= tol:  # a NaN residual or tol fails too
        raise ConvergenceError(
            f"{method} solver reached residual {residual:.3e} > tol {tol:.3e}",
            best_residual=residual,
        )
    return GroundState(
        dim=n,
        profile=RadialFunction(grid=grid, values=values),
        potential=v,
        l2_mass=mass,
        energy=energy,
        residual=residual,
        method=method,
        mass_shift=mass_shift,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# shooting solver
# ---------------------------------------------------------------------------

_R0 = 1e-6  # series start radius for the regular initial data
_R_END = 200.0  # shot length; the veer radii at u(0) = 1 are 25.1, 38.7, 68.6 (n = 3, 4, 5)
_ORDER = 30  # Taylor order of each step
_STEP_TOL = 1e-16  # size of a step's last two Taylor terms, relative to |y| + |y'|
_STEP_BUDGET = 1_000  # steps per path: a separatrix takes 78-83, a far field 4-9
# W(0) of the decaying separatrix at u(0) = 1: where a bisection of W(0) to
# 1e-15 closes, each Taylor shot from _series_start classified by whether u
# reaches zero or turns around first.  tests/_reference.bisect_separatrix_events
# re-derives each value on solve_ivp's terminal events.
_SEPARATRIX_W0 = {3: -0.9185797718046382, 4: -0.9682712750094684, 5: -0.9919645324967367}


def _series_start(n: int, w0: float):
    r0 = _R0
    u = 1.0 + w0 * r0**2 / (2.0 * n)
    up = w0 * r0 / n
    w = w0 + r0**2 / (2.0 * n)
    wp = r0 / n
    return r0, [u, up, w, wp]


def _taylor_coefficients(n: int, r0: float, y):
    """Taylor coefficients of u and W to order _ORDER about r0, lowest
    first, from y = (u, u', W, W') at r0.  Times r the system is polynomial,
    r u'' + (n-1) u' = r W u and r W'' + (n-1) W' = r u^2, so each next
    coefficient follows from Cauchy products of the lower ones (Jorba and
    Zou, Experimental Math. 14 (2005))."""
    u, up, w, wp = y
    a = [u, up] + [0.0] * (_ORDER - 1)
    b = [w, wp] + [0.0] * (_ORDER - 1)
    wu = uu = 0.0  # coefficient k - 1 of W u and of u^2
    for k in range(_ORDER - 1):
        wu_prev, uu_prev = wu, uu
        wu = sum(map(operator.mul, b[: k + 1], a[k::-1]))
        uu = sum(map(operator.mul, a[: k + 1], a[k::-1]))
        q = (k + 1) * (k + n - 1)
        den = r0 * (k + 1) * (k + 2)
        a[k + 2] = (r0 * wu + wu_prev - q * a[k + 1]) / den
        b[k + 2] = (r0 * uu + uu_prev - q * b[k + 1]) / den
    return a, b


def _horner(c, x: float):
    """(p(x), p'(x)) for the polynomial with coefficients c, lowest first."""
    p = dp = 0.0
    for ck in reversed(c):
        dp = dp * x + p
        p = p * x + ck
    return p, dp


def _step_size(a, b, r: float) -> float:
    """The step at which the last two Taylor terms of u and of W fall to
    _STEP_TOL of each one's |y| + |y'|, capped at r/4: the singular point
    r = 0 bounds the radius of convergence, and a cap of r/2 leaves a
    1.4e-12 error in u at n = 3."""
    h = 0.25 * r
    order = len(a) - 1
    for c in (a, b):
        scale = _STEP_TOL * (abs(c[0]) + abs(c[1]))
        for j in (order - 1, order):
            if c[j] != 0.0:
                h = min(h, (scale / abs(c[j])) ** (1.0 / j))
    return h


def _first_root(c, h: float, deriv: int) -> float:
    """Bisection on [0, h] for the sign change of p (deriv 0) or p'
    (deriv 1); the point returned has the sign p or p' takes at h."""
    lo, hi = 0.0, h
    positive = _horner(c, h)[deriv] > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if (_horner(c, mid)[deriv] > 0.0) == positive:
            hi = mid
        else:
            lo = mid


class _TaylorPath:
    """A trajectory of the (u, W) system as Taylor steps, read at any radii
    it covers by Horner's rule over the stored coefficients.  Step i is a
    polynomial in r - origin[i] on [lo[i], lo[i + 1]], the steps ordered by
    lo whichever way they were taken; the arrays are read-only."""

    def __init__(self, origin, lo, coef):
        by_lo = np.argsort(lo)
        self.origin = np.asarray(origin)[by_lo]
        self.lo = np.asarray(lo)[by_lo]
        c = np.asarray(coef)[by_lo].transpose(2, 0, 1)  # (order + 1, steps, 2): u, W
        # coefficient k of (u, u', W, W') on each step
        self.coef = np.zeros(c.shape[:2] + (4,))
        self.coef[..., ::2] = c
        self.coef[:-1, :, 1::2] = np.arange(1, len(c))[:, None, None] * c[1:]
        for arr in (self.origin, self.lo, self.coef):
            arr.flags.writeable = False

    def __call__(self, r):
        """(u, u', W, W') at r: shape (4,) for a scalar, (4, m) for m radii."""
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.lo, r, side="right") - 1, 0, self.lo.size - 1)
        c = self.coef[:, i]
        x = (r - self.origin[i])[..., None]
        y = c[-1].copy()
        for ck in c[-2::-1]:
            y *= x
            y += ck
        return np.moveaxis(y, -1, 0)


def _integrate(n: int, r: float, y, r_stop: float, stage: str, events: bool = False):
    """(path, r_end, event): Taylor steps of the (u, W) system from
    y = (u, u', W, W') at r toward r_stop, forward or backward.  With events
    the path ends at the first point where u crosses zero (event "cross")
    or u' turns up (event "turn"); event is None where it reached r_stop.
    A non-finite coefficient or a spent step budget raises
    ConvergenceError naming the stage and the radius reached."""
    sign = 1.0 if r_stop > r else -1.0
    origin, lo, coef = [], [], []
    event = None
    for _ in range(_STEP_BUDGET):
        a, b = _taylor_coefficients(n, r, y)
        if not all(map(math.isfinite, a + b)):
            raise ConvergenceError(
                f"{stage}: Taylor coefficient not finite at r = {r:.6g}", math.inf
            )
        h = _step_size(a, b, r)
        last = h >= abs(r_stop - r)
        h = sign * min(h, abs(r_stop - r))
        u, up = _horner(a, h)
        if events and (u < 0.0 or up > 0.0):
            hits = [(_first_root(a, h, 0), "cross")] if u < 0.0 else []
            hits += [(_first_root(a, h, 1), "turn")] if up > 0.0 else []
            h, event = min(hits)
            u, up = _horner(a, h)
        w, wp = _horner(b, h)
        r_next = r_stop if last and event is None else r + h
        origin.append(r)
        lo.append(min(r, r_next))
        coef.append((a, b))
        r, y = r_next, (u, up, w, wp)
        if last or event is not None:
            return _TaylorPath(origin, lo, coef), r, event
    raise ConvergenceError(
        f"{stage}: step budget of {_STEP_BUDGET} spent at r = {r:.6g}", math.inf
    )


def _separatrix_shot(n: int, w0: float):
    """(path, end radius, event) of the shot u(0) = 1, W(0) = w0 from the
    series start, stopped where u crosses zero or turns around."""
    r0, y0 = _series_start(n, w0)
    return _integrate(n, r0, y0, _R_END, "separatrix", events=True)


def _w_limit(sol, n: int, r: float) -> float:
    """W(inf) read at r: W = W(inf) - m / ((n-2) r^(n-2)) once u is
    negligible beyond r, so W(r) + r W'(r) / (n-2) is the limit."""
    w, wp = sol(r)[2:]
    return float(w + wp * r / (n - 2))


@functools.lru_cache(maxsize=len(SUPPORTED_DIMS))
def _separatrix(n: int):
    """(path, veer radius, W(inf)) of the decaying separatrix at u(0) = 1,
    shot once per process from _SEPARATRIX_W0[n]: it depends on n alone,
    so every mass shift rescales the same one.  The path is a read-only
    _TaylorPath.  A shot that ends without a terminal event raises
    ConvergenceError and is not cached."""
    w0 = _SEPARATRIX_W0[n]
    sol, r_veer, event = _separatrix_shot(n, w0)
    if event is None:
        raise ConvergenceError(
            f"separatrix shot at W(0) = {w0!r} ended without a terminal event "
            f"at r = {r_veer:.6g}",
            math.inf,
        )
    # the veer radius, where the shot leaves the separatrix, is where its
    # event (u = 0 or u' = 0) stopped it.  Read W(inf) five decay lengths,
    # 1/sqrt(W(inf)), before it; a first read at the veer radius sets the length
    w_inf = _w_limit(sol, n, r_veer)
    w_inf = _w_limit(sol, n, r_veer - 5.0 / math.sqrt(w_inf))
    return sol, r_veer, w_inf


def _solve_shooting(grid: RadialGrid, mass_shift: float):
    n = grid.dim
    freq = 1.0 + mass_shift
    # one separatrix at u(0) = 1.  (u, W)(r) -> s^2 (u, W)(s r) maps
    # solutions to solutions and W(inf) to s^2 W(inf), so the profile is
    # s^2 u(s r) with s^2 = (1+mu) / W(inf)
    sol, r_veer, w_inf = _separatrix(n)
    s = math.sqrt(freq / w_inf)
    r_veer /= s
    r_j = min(r_veer - 5.0, grid.r_max - 6.0)
    if r_j < 5.0:
        raise ConvergenceError(
            f"shooting trajectory unusable (veer radius {r_veer:.2f})", math.inf
        )
    r = grid.nodes
    rw = np.linspace(r_j - 2.5, r_j - 0.5, 40)
    cut = r <= r_j - 1.5
    # the forward path read once, Horner's rule being elementwise: at r_j,
    # on the matching window and at the nodes before the cut
    y_f = sol(s * np.concatenate(([r_j], rw, r[cut])))
    u_f = s * s * y_f[0]
    # the shot carries r^(n-1) W'(r) = int_0^r t^(n-1) u^2 dt, which the
    # scaling takes to s^(4-n) times its value at s r
    m_rad = s ** (4 - n) * (s * r_j) ** (n - 1) * float(y_f[3, 0])

    # backward completion from r_max with u(r_max) = 0: both solvers then
    # solve the same truncated boundary-value problem, and the spliced
    # profile stays consistent with the operator's decay condition
    def v_model(r):
        return m_rad / ((n - 2) * r ** (n - 2))

    r_b = grid.r_max
    u_fj = float(u_f[0])
    slope = -u_fj * math.exp(-(r_b - r_j) * math.sqrt(freq)) * math.sqrt(freq)
    y_b = [0.0, slope, freq - v_model(r_b), m_rad / r_b ** (n - 1)]

    # one backward Taylor path from r_b through the matching window, read
    # once, there and at the nodes past the cut
    back = _integrate(n, r_b, y_b, rw[0], "far field")[0]
    u_b = back(np.concatenate((rw, r[~cut])))[0]
    ub_w = u_b[:rw.size]

    # linear amplitude match on a window before the junction
    gamma = float(np.dot(u_f[1:rw.size + 1], ub_w) / np.dot(ub_w, ub_w))

    values = np.empty_like(r)
    values[cut] = u_f[rw.size + 1:]
    values[~cut] = gamma * u_b[rw.size:]
    return values


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def _newton_step(K, pot0, freq, u, v, defect) -> np.ndarray:
    """Newton step for the collocated equation at u: the Jacobian is the
    radial-sector linearized operator, nondegenerate at the ground state."""
    J = K + np.diag(freq - v) - 2.0 * (u[:, None] * pot0) * u[None, :]
    return np.linalg.solve(J, defect)


def _newton(grid: RadialGrid, freq: float, tol: float, u: Optional[np.ndarray] = None):
    """(iterate, residual, steps) of Newton's method on the collocated
    equation on grid: the first iterate after at least one step whose
    relative residual meets tol, else the one of least residual once a step
    moves the iterate by at most tol in the weighted norm, relative, or
    after _NEWTON_STEPS steps.  u is the start; None starts on the Nehari
    manifold.  A non-finite residual, or an iterate at zero, raises
    ConvergenceError naming the grid size."""
    w = grid.weights
    K = get_discretization(grid).neg_laplacian_colloc()
    pot0 = kernel_matrix(grid, 0)
    if u is None:
        # a Gaussian of the width the scaling u -> freq u(sqrt(freq) r)
        # gives, times c with c^2 = <u,(K+freq)u> / <u,(I2*u^2)u>, where
        # (K+freq)u = defect + v u
        u = np.exp(-0.5 * freq * grid.nodes**2)
        v, defect = _defect(K, pot0, freq, u)
        u *= math.sqrt(float(np.dot(w * u, defect + v * u)) / float(np.dot(w * u, v * u)))
    best_u, best, moved = u, math.inf, math.inf
    for it in range(1, _NEWTON_STEPS + 1):
        v, defect = _defect(K, pot0, freq, u)
        norm2 = float(np.dot(w, u**2))
        # an iterate at the zero solution has no relative residual: inf;
        # a NaN norm leaves the residual NaN
        res = math.sqrt(float(np.dot(w, defect**2)) / norm2) if norm2 != 0.0 else math.inf
        if not math.isfinite(res):
            raise ConvergenceError(
                f"fixed-point residual became {res} at iteration {it} on the "
                f"N = {grid.size} grid: the iterate or its Newton potential is "
                "not finite",
                best_residual=best,
            )
        if res <= tol and it > 1:
            return u, res, it - 1
        if res < best:
            best_u, best = u, res
        if moved <= tol:
            return best_u, best, it - 1
        # noise-level far-field nodes may dip below zero; floor them
        u_next = np.maximum(u - _newton_step(K, pot0, freq, u, v, defect), _FLOOR)
        moved = math.sqrt(float(np.dot(w, (u_next - u) ** 2)) / norm2)
        u = u_next
    return best_u, best, _NEWTON_STEPS


def _solve_fixed_point(grid: RadialGrid, mass_shift: float, tol: float):
    """Nested iteration: on a grid of more than _COARSE_N nodes, Newton
    starts from the same equation solved on max(_COARSE_N, N // 5) nodes
    to _COARSE_TOL and interpolated, inside the quadratic basin, so the
    target grid takes one or two steps instead of 5-8 from the Gaussian
    (Hackbusch, Multi-Grid Methods and Applications, Springer 1985, ch. 5).
    The coarse stage runs first, before the target grid's operators are
    built."""
    freq = 1.0 + mass_shift
    u = None
    if grid.size > _COARSE_N:
        coarse = build_grid(grid.dim, grid.r_max, max(_COARSE_N, grid.size // 5))
        # on a long r_max the coarse floor can lie above _COARSE_TOL; its
        # best iterate still starts the target grid in Newton's basin
        u_coarse = _newton(coarse, freq, _COARSE_TOL)[0]
        u = get_discretization(coarse).basis_eval(grid.nodes) @ u_coarse
        u = np.maximum(u, _FLOOR)
    u, best, steps = _newton(grid, freq, tol, u)
    if not best <= tol:
        raise ConvergenceError(
            f"fixed-point solver did not reach tol {tol:.3e} after "
            f"{steps} iterations on the N = {grid.size} grid "
            f"(best residual {best:.3e})",
            best_residual=best,
        )
    return u


def solve_ground_state(
    grid: RadialGrid, cfg: Optional[SolverConfig] = None, mass_shift: float = 0.0
) -> GroundState:
    """Solve for the positive radial ground state on the grid."""
    if cfg is None:
        cfg = SolverConfig()
    if 1.0 + mass_shift <= 0.0:
        raise ValueError("mass shift must satisfy 1 + mu > 0")
    if cfg.method == METHOD_SHOOTING:
        values = _solve_shooting(grid, mass_shift)
    else:
        values = _solve_fixed_point(grid, mass_shift, cfg.tol)
    return _finalize(grid, values, mass_shift, cfg.method, cfg.tol)


# ---------------------------------------------------------------------------
# cache file format
# ---------------------------------------------------------------------------

def format_cache(gs: GroundState) -> str:
    """Ground-state cache: grid header plus solver fields, then r/value rows
    at 17 significant digits (lossless for binary64)."""
    head = (
        f"{gs.grid.header()} method={gs.method} tol={gs.tol:.17g} "
        f"residual={gs.residual:.17g} mass={gs.l2_mass:.17g} "
        f"nu={gs.nu:.17g} energy={gs.energy:.17g}"
    )
    rows = [
        f"{r:.17g} {v:.17g}" for r, v in zip(gs.grid.nodes, gs.profile.values)
    ]
    return "\n".join([head] + rows) + "\n"


def groundstate_from_cache(grid: RadialGrid, text: str) -> GroundState:
    """Rebuild a GroundState from format_cache text on the same grid: the
    header must start with grid.header() and record tol, the rows must hold
    the grid's nodes (to 1e-15 r_max), and a profile that misses tol raises
    ConvergenceError.  Malformed or mismatched text raises ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = grid.header() + " "
    if not lines or not lines[0].startswith(head):
        raise ValueError("cache header does not match the grid")
    tokens = lines[0][len(head):].split()
    if not all("=" in tok for tok in tokens):
        raise ValueError(f"malformed cache header: {lines[0]!r}")
    fields = dict(tok.split("=", 1) for tok in tokens)
    if "tol" not in fields:
        raise ValueError("cache header records no tolerance")
    rows = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if rows.shape != (grid.size, 2):
        raise ValueError("ground-state cache row count does not match header")
    if not np.allclose(rows[:, 0], grid.nodes, rtol=0.0, atol=1e-15 * grid.r_max):
        raise ValueError("cache nodes do not match the grid")
    method = fields.get("method", METHOD_FIXED_POINT)
    return _finalize(grid, rows[:, 1], 0.0, method, float(fields["tol"]))
