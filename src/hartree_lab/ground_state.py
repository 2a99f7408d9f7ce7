"""Ground states of  -Delta u + (1+mu) u = (I2 * u^2) u  for n = 3, 4, 5.

Two independent solvers:

* shooting -- integrates the equivalent local system in (u, W) with
  W = (1+mu) - I2*u^2.  The decaying separatrix at u(0) = 1 starts at a
  tabulated W(0), _SEPARATRIX_W0: it depends on n alone, so it is a
  constant of the equation.  One dense shot from it, on solve_ivp's
  DOP853, gives the profile, and the exact scaling
  (u, W)(r) -> s^2 (u, W)(s r) takes it to W -> 1+mu at infinity.  A
  process shoots once per dimension and rescales the cached shot for every
  mass shift.
  The cache holds the shot's DOP853 interpolants stacked into arrays, read
  at all radii at once.  The far field is completed by a stabilized
  backward integration seeded with the known decay asymptotics, so node
  values stay accurate out to r_max: one LSODA call (odeint) from r_max
  through the radii it needs, each read off LSODA's own interpolant.  A
  loop of compiled DOP853 calls, one per radius, is not used: it restarts
  the step-size estimate at every radius, took 8-43 times the rhs calls
  of one solve_ivp shot, and two of four warm cases ended on "step size
  becomes too small".
* fixed_point -- Newton's method on the collocated equation
  -Delta u + (1+mu - I2*u^2) u = 0.  The radial linearized operator is
  invertible at the ground state, so Newton needs no globalization from a
  start in its basin: a Gaussian of the width the exact scaling
  u -> (1+mu) u(sqrt(1+mu) r) gives, with the amplitude that puts it on
  the Nehari manifold.

The unperturbed equation is mass_shift mu = 0; mu = V(eps xi) gives the
rescaled-soliton equation used by the semiclassical module.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .newton_potential import kernel_matrix
from .radial_core import (
    SUPPORTED_DIMS,
    RadialFunction,
    RadialGrid,
    get_discretization,
    integrate_radial,
    sphere_area,
)

METHOD_SHOOTING = "shooting"
METHOD_FIXED_POINT = "fixed_point"
DEFAULT_TOL = {METHOD_SHOOTING: 1e-7, METHOD_FIXED_POINT: 1e-10}
MONOTONE_TOL = 1e-10  # largest rise between neighbouring nodes, relative to max U
_FLOOR = 1e-300  # positivity floor of the fixed-point iterate
_NEWTON_STEPS = 20  # converged fixed-point solves take at most 8


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
    potential: RadialFunction
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
        np.dot(gs.grid.weights, gs.potential.values * gs.profile.values**2)
    )


def _derivative(grid: RadialGrid, values, potential, mass_shift: float) -> np.ndarray:
    """H_(n-1)((1 + mu - v) U) / r^(n-1); see profile_derivative."""
    n = grid.dim
    rhs = (1.0 + mass_shift - potential) * values
    return (get_discretization(grid).head_moment(n - 1) @ rhs) / grid.nodes ** (n - 1)


def profile_derivative(gs: GroundState) -> np.ndarray:
    """U' through the integrated equation,

        r^(n-1) U'(r) = int_0^r rho^(n-1) (1 + mu - v) U d rho,

    a plain cumulative quadrature: unlike repeated spectral differentiation
    it does not amplify rounding noise, so operator identities evaluated on
    it stay at the discretization level.
    """
    return _derivative(gs.grid, gs.profile.values, gs.potential.values, gs.mass_shift)


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
        potential=RadialFunction(grid=grid, values=v),
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
_R_END = 200.0  # shot length; the veer radii at u(0) = 1 are 23.3, 38.4, 66.4 (n = 3, 4, 5)
_MAX_STEPS = 100_000  # LSODA's step limit for each far-field output
# W(0) of the decaying separatrix at u(0) = 1: where a bisection of W(0) to
# 1e-15 closes, each DOP853 shot from _series_start classified by whether u
# reaches zero or turns around first.  tests/_reference.bisect_separatrix_events
# re-derives each value on solve_ivp's terminal events.
_SEPARATRIX_W0 = {3: -0.9185797718046296, 4: -0.9682712750094729, 5: -0.9919645324967412}


def _rhs(n: int):
    def rhs(r, y):
        u, up, w, wp = y
        return [up, w * u - (n - 1) / r * up, wp, u * u - (n - 1) / r * wp]

    return rhs


def _series_start(n: int, w0: float):
    r0 = _R0
    u = 1.0 + w0 * r0**2 / (2.0 * n)
    up = w0 * r0 / n
    w = w0 + r0**2 / (2.0 * n)
    wp = r0 / n
    return r0, [u, up, w, wp]


def _separatrix_shot(n: int, w0: float):
    """Dense shot u(0) = 1, W(0) = w0 from the series start, stopped where
    u crosses zero or turns around."""
    from scipy.integrate import solve_ivp

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1.0

    r0, y0 = _series_start(n, w0)
    return solve_ivp(
        _rhs(n),
        (r0, _R_END),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=(ev_cross, ev_turn),
        dense_output=True,
    )


class _DenseShot:
    """Read-only DOP853 dense output of one shot, its steps stacked.

    Evaluates solve_ivp's OdeSolution bit for bit, on all points at once:
    the same step choice, then scipy's alternating x / (1 - x) Horner loop
    over each step's 7 coefficient rows, with no Python call per step."""

    def __init__(self, sol):
        parts = sol.interpolants
        self.ts = sol.ts
        self.t_old = np.array([p.t_old for p in parts])
        self.h = np.array([p.h for p in parts])
        self.y_old = np.array([p.y_old for p in parts])
        self.F = np.array([p.F for p in parts])
        for a in (self.ts, self.t_old, self.h, self.y_old, self.F):
            a.flags.writeable = False

    def __call__(self, r):
        """(u, u', W, W') at r: shape (4,) for a scalar, (4, m) for m radii."""
        r = np.asarray(r, dtype=float)
        step = np.clip(np.searchsorted(self.ts, r, side="left") - 1, 0, len(self.h) - 1)
        x = ((r - self.t_old[step]) / self.h[step])[..., None]
        F = self.F[step]
        y = np.zeros(F.shape[:-2] + F.shape[-1:])
        for i in range(F.shape[-2]):
            y += F[..., -1 - i, :]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[step]
        return np.moveaxis(y, -1, 0)


def _w_limit(sol, n: int, r: float) -> float:
    """W(inf) read at r: W = W(inf) - m / ((n-2) r^(n-2)) once u is
    negligible beyond r, so W(r) + r W'(r) / (n-2) is the limit."""
    w, wp = sol(r)[2:]
    return float(w + wp * r / (n - 2))


@functools.lru_cache(maxsize=len(SUPPORTED_DIMS))
def _separatrix(n: int):
    """(dense output, veer radius, W(inf)) of the decaying separatrix at
    u(0) = 1, shot once per process from _SEPARATRIX_W0[n]: it depends on
    n alone, so every mass shift rescales the same one.  The dense output
    is a read-only _DenseShot.  A shot that ends without a terminal event
    raises ConvergenceError and is not cached."""
    w0 = _SEPARATRIX_W0[n]
    shot = _separatrix_shot(n, w0)
    if shot.status != 1:
        raise ConvergenceError(
            f"separatrix shot at W(0) = {w0!r} ended without a terminal event: "
            f"solve_ivp: {shot.message}",
            math.inf,
        )
    sol = _DenseShot(shot.sol)
    # veer radius: where the shot leaves the separatrix, at which its
    # terminal events (u = 0 or u' = 0) stopped it
    r_veer = shot.t[-1]
    # read W(inf) five decay lengths, 1/sqrt(W(inf)), before the veer
    # radius; a first read at the veer radius sets the length
    w_inf = _w_limit(sol, n, r_veer)
    w_inf = _w_limit(sol, n, r_veer - 5.0 / math.sqrt(w_inf))
    return sol, r_veer, w_inf


def _solve_shooting(grid: RadialGrid, mass_shift: float):
    from scipy.integrate import odeint

    n = grid.dim
    freq = 1.0 + mass_shift
    # one separatrix at u(0) = 1.  (u, W)(r) -> s^2 (u, W)(s r) maps
    # solutions to solutions and W(inf) to s^2 W(inf), so the profile is
    # s^2 u(s r) with s^2 = (1+mu) / W(inf)
    sol, r_veer, w_inf = _separatrix(n)
    s = math.sqrt(freq / w_inf)

    def fwd(r):
        return s * s * sol(s * r)[0]

    r_veer /= s
    r_j = min(r_veer - 5.0, grid.r_max - 6.0)
    if r_j < 5.0:
        raise ConvergenceError(
            f"shooting trajectory unusable (veer radius {r_veer:.2f})", math.inf
        )
    # the shot carries r^(n-1) W'(r) = int_0^r t^(n-1) u^2 dt, which the
    # scaling takes to s^(4-n) times its value at s r
    m_rad = s ** (4 - n) * (s * r_j) ** (n - 1) * float(sol(s * r_j)[3])

    # backward completion from r_max with u(r_max) = 0: both solvers then
    # solve the same truncated boundary-value problem, and the spliced
    # profile stays consistent with the operator's decay condition
    def v_model(r):
        return m_rad / ((n - 2) * r ** (n - 2))

    r_b = grid.r_max
    u_fj = float(fwd(r_j))
    slope = -u_fj * math.exp(-(r_b - r_j) * math.sqrt(freq)) * math.sqrt(freq)
    y_b = [0.0, slope, freq - v_model(r_b), m_rad / r_b ** (n - 1)]

    # one LSODA call from r_b down through every radius the tail needs, the
    # matching window and the nodes past the cut, each read off LSODA's own
    # interpolant with no return to Python between them
    r = grid.nodes
    rw = np.linspace(r_j - 2.5, r_j - 0.5, 40)
    cut = r <= r_j - 1.5
    radii, where = np.unique(np.concatenate([rw, r[~cut]]), return_inverse=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a failure is raised below instead
        back, info = odeint(
            _rhs(n), y_b, np.concatenate([[r_b], radii[::-1]]), rtol=1e-12,
            atol=1e-60, mxstep=_MAX_STEPS, tfirst=True, full_output=True,
        )
    if info["message"] != "Integration successful.":
        raise ConvergenceError(
            f"far-field completion from r_max = {r_b} failed: LSODA: {info['message']}",
            math.inf,
        )
    ub = back[:0:-1, 0][where]  # u at rw, then at r[~cut]
    ub_w, ub_tail = ub[: rw.size], ub[rw.size :]

    # linear amplitude match on a window before the junction
    gamma = float(np.dot(fwd(rw), ub_w) / np.dot(ub_w, ub_w))

    values = np.empty_like(r)
    values[cut] = fwd(r[cut])
    values[~cut] = gamma * ub_tail
    return values


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def _newton_step(K, pot0, freq, u, v, defect) -> np.ndarray:
    """Newton step for the collocated equation at u: the Jacobian is the
    radial-sector linearized operator, nondegenerate at the ground state."""
    J = K + np.diag(freq - v) - 2.0 * (u[:, None] * pot0) * u[None, :]
    return np.linalg.solve(J, defect)


def _solve_fixed_point(grid: RadialGrid, mass_shift: float, tol: float):
    freq = 1.0 + mass_shift
    w = grid.weights
    K = get_discretization(grid).neg_laplacian_colloc()
    pot0 = kernel_matrix(grid, 0)

    # start on the Nehari manifold: a Gaussian of the width the scaling
    # u -> freq u(sqrt(freq) r) gives, times c with
    # c^2 = <u,(K+freq)u> / <u,(I2*u^2)u>, where (K+freq)u = defect + v u
    u = np.exp(-0.5 * freq * grid.nodes**2)
    v, defect = _defect(K, pot0, freq, u)
    u *= math.sqrt(float(np.dot(w * u, defect + v * u)) / float(np.dot(w * u, v * u)))
    best = math.inf
    for it in range(1, _NEWTON_STEPS + 1):
        v, defect = _defect(K, pot0, freq, u)
        norm2 = float(np.dot(w, u**2))
        # an iterate at the zero solution has no relative residual: inf;
        # a NaN norm leaves the residual NaN
        res = math.sqrt(float(np.dot(w, defect**2)) / norm2) if norm2 != 0.0 else math.inf
        if not math.isfinite(res):
            raise ConvergenceError(
                f"fixed-point residual became {res} at iteration {it}: the "
                "iterate or its Newton potential is not finite",
                best_residual=best,
            )
        best = min(best, res)
        if res <= tol:
            return u
        # noise-level far-field nodes may dip below zero; floor them
        u = np.maximum(u - _newton_step(K, pot0, freq, u, v, defect), _FLOOR)
    raise ConvergenceError(
        f"fixed-point solver did not reach tol {tol:.3e} after "
        f"{_NEWTON_STEPS} iterations (best residual {best:.3e})",
        best_residual=best,
    )


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
