"""Ground states of  -Delta u + (1+mu) u = (I2 * u^2) u  for n = 3, 4, 5.

Two independent solvers:

* shooting -- integrates the equivalent local system in (u, W) with
  W = (1+mu) - I2*u^2.  One bisection on W(0) at u(0) = 1 finds the
  decaying separatrix, each shot classified on scipy's compiled DOP853
  stepper; one dense shot on it, through solve_ivp, then gives the profile,
  and the exact scaling (u, W)(r) -> s^2 (u, W)(s r) takes it to W -> 1+mu
  at infinity.  The separatrix depends on n alone, so a process bisects
  once per dimension and rescales the cached shot for every mass shift.
  The far field is completed by a stabilized backward integration seeded
  with the known decay asymptotics, so node values stay accurate out to
  r_max.
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
from typing import Optional

import numpy as np

from .newton_potential import kernel_matrix, radial_newton_potential
from .radial_core import (
    SUPPORTED_DIMS,
    RadialFunction,
    RadialGrid,
    get_discretization,
    integrate_radial,
    parse_grid_header,
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
    nu: float
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
        nu_def = nu_from_mass(self.dim, self.l2_mass)
        if abs(nu_def - self.nu) > 1e-8 * abs(nu_def):
            raise ValueError("nu field inconsistent with its defining formula")

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid


# ---------------------------------------------------------------------------
# residual and derived quantities
# ---------------------------------------------------------------------------

def _defect(K, pot0, freq, u):
    """(v, K u + (freq - v) u) with v = I2*u^2 on the nodes: the collocated
    equation's potential and defect at u."""
    v = pot0 @ u**2
    return v, K @ u + (freq - v) * u


def _residual(grid: RadialGrid, values, potential, mass_shift: float) -> float:
    """Relative weighted-L2 defect of -Delta u + (1+mu) u - v u, v the
    potential I2*u^2 on the nodes."""
    w = grid.weights
    norm = math.sqrt(float(np.dot(w, values**2)))
    if norm == 0.0:
        return 0.0
    K = get_discretization(grid).neg_laplacian_colloc()
    defect = K @ values + (1.0 + mass_shift - potential) * values
    return math.sqrt(float(np.dot(w, defect**2))) / norm


def profile_equation_residual(
    grid: RadialGrid, values: np.ndarray, mass_shift: float = 0.0
) -> float:
    """Relative weighted-L2 defect of -Delta u + (1+mu) u - (I2*u^2) u."""
    return _residual(grid, values, kernel_matrix(grid, 0) @ values**2, mass_shift)


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


def _finalize(
    grid: RadialGrid,
    values: np.ndarray,
    mass_shift: float,
    method: str,
    tol: float,
) -> GroundState:
    n = grid.dim
    area = sphere_area(n)
    u2 = RadialFunction(grid=grid, values=values**2)
    pot = radial_newton_potential(grid, u2)
    mass = area * integrate_radial(grid, u2)
    du = _derivative(grid, values, pot.values, mass_shift)
    kinetic = area * float(np.dot(grid.weights, du**2))
    quartic = area * float(np.dot(grid.weights, pot.values * values**2))
    energy = 0.5 * (kinetic + mass) - 0.25 * quartic
    residual = _residual(grid, values, pot.values, mass_shift)
    if not residual <= tol:  # a NaN residual or tol fails too
        raise ConvergenceError(
            f"{method} solver reached residual {residual:.3e} > tol {tol:.3e}",
            best_residual=residual,
        )
    return GroundState(
        dim=n,
        profile=RadialFunction(grid=grid, values=values),
        potential=pot,
        l2_mass=mass,
        energy=energy,
        nu=nu_from_mass(n, mass),
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
_W0_GUESS = -0.85  # first W(0) of the separatrix bisection at u(0) = 1
_MAX_STEPS = 100_000  # DOP853 step limit of one bisection shot
_DOP853_FAILURES = {
    -1: "input is not consistent",
    -2: "step limit reached",
    -3: "step size became too small",
    -4: "problem is probably stiff",
}


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


def _side(n: int, w0: float) -> str:
    """Which side of the separatrix the shot u(0) = 1, W(0) = w0 is on.

    'low'  -- u reached zero (w0 below the separatrix),
    'high' -- u turned around (u' >= 0) or reached 10 (w0 above),
    'none' -- neither before _R_END.

    The shot runs on scipy's compiled DOP853 and stops at the first step
    end that shows an event.  Past a minimum with u > 0, u only rises, so
    when u and u' change sign in one step u <= 0 is the event that came
    first.  A shot the stepper abandons raises ConvergenceError.
    """
    from scipy.integrate import ode

    side = "none"
    r0, y0 = _series_start(n, w0)

    def stop(r, y):
        nonlocal side
        if r == r0:  # DOP853 turns a stop at the start point into code -3
            return 0
        if y[0] <= 0.0:
            side = "low"
        elif y[1] >= 0.0 or y[0] >= 10.0:
            side = "high"
        else:
            return 0
        return -1

    shot = ode(_rhs(n)).set_integrator(
        "dop853", rtol=1e-12, atol=1e-14, nsteps=_MAX_STEPS
    )
    shot.set_solout(stop)
    shot.set_initial_value(y0, r0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a failure is raised below instead
        shot.integrate(_R_END)
    code = shot.get_return_code()
    if code < 0:
        raise ConvergenceError(
            f"separatrix shot at W(0) = {w0!r} failed: DOP853 return code "
            f"{code} ({_DOP853_FAILURES.get(code, 'unknown failure')})",
            math.inf,
        )
    return side


def _bisect_separatrix(n: int) -> float:
    """Bisection on W(0) for the node-free decaying separatrix at u(0) = 1."""
    scale = abs(_W0_GUESS)
    c_lo = c_hi = None
    c = _W0_GUESS
    for _ in range(80):
        side = _side(n, c)
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
        raise ConvergenceError("failed to bracket the shooting separatrix", math.inf)
    while c_hi - c_lo > 1e-15 * max(1.0, abs(c_lo)):
        c = 0.5 * (c_lo + c_hi)
        side = _side(n, c)
        if side == "none":
            return c
        if side == "low":
            c_lo = c
        else:
            c_hi = c
    return 0.5 * (c_lo + c_hi)


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


def _w_limit(shot, n: int, r: float) -> float:
    """W(inf) read at r: W = W(inf) - m / ((n-2) r^(n-2)) once u is
    negligible beyond r, so W(r) + r W'(r) / (n-2) is the limit."""
    w, wp = shot.sol(r)[2:]
    return float(w + wp * r / (n - 2))


@functools.lru_cache(maxsize=len(SUPPORTED_DIMS))
def _separatrix(n: int):
    """(dense output, veer radius, W(inf)) of the decaying separatrix at
    u(0) = 1, found once per process: it depends on n alone, so every mass
    shift rescales the same one.  The dense output's arrays are read-only.
    A failed bisection raises and is not cached."""
    shot = _separatrix_shot(n, _bisect_separatrix(n))
    # veer radius: where the shot leaves the separatrix, at which its
    # terminal events (u = 0 or u' = 0) stopped it
    r_veer = shot.t[-1]
    # read W(inf) five decay lengths, 1/sqrt(W(inf)), before the veer
    # radius; a first read at the veer radius sets the length
    w_inf = _w_limit(shot, n, r_veer)
    w_inf = _w_limit(shot, n, r_veer - 5.0 / math.sqrt(w_inf))
    for part in (shot.sol, *shot.sol.interpolants):
        for value in vars(part).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return shot.sol, r_veer, w_inf


def _solve_shooting(grid: RadialGrid, mass_shift: float):
    from scipy.integrate import solve_ivp

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
    back = solve_ivp(
        _rhs(n),
        (r_b, max(r_j - 3.0, 1.0)),
        y_b,
        method="DOP853",
        rtol=1e-12,
        atol=1e-60,
        first_step=1e-3,
        dense_output=True,
    ).sol

    # linear amplitude match on a window before the junction
    rw = np.linspace(r_j - 2.5, r_j - 0.5, 40)
    uf = fwd(rw)
    ub = back(rw)[0]
    gamma = float(np.dot(uf, ub) / np.dot(ub, ub))

    r = grid.nodes
    values = np.empty_like(r)
    cut = r <= r_j - 1.5
    values[cut] = fwd(r[cut])
    values[~cut] = gamma * back(r[~cut])[0]
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
# rescaling
# ---------------------------------------------------------------------------

def rescale_state(gs: GroundState, mu: float) -> RadialFunction:
    """(1+mu) U(sqrt(1+mu) r) resampled on the grid; zero where
    sqrt(1+mu) r passes r_max, like U itself."""
    if 1.0 + mu <= 0.0:
        raise ValueError("rescale requires 1 + mu > 0")
    alpha = 1.0 + mu
    vals = alpha * gs.profile.evaluate(math.sqrt(alpha) * gs.grid.nodes)
    return RadialFunction(grid=gs.grid, values=vals)


def interaction_integral(gs: GroundState) -> float:
    """int (I2*U^2) U^2 dx by pairing the profile against its potential."""
    area = sphere_area(gs.dim)
    return area * float(
        np.dot(gs.grid.weights, gs.potential.values * gs.profile.values**2)
    )


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


def parse_cache(text: str) -> dict:
    """Parse a ground-state cache file; returns header fields and arrays."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty ground-state cache")
    header = parse_grid_header(lines[0])
    rows = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if rows.shape[0] != header["N"] or rows.shape[1] != 2:
        raise ValueError("ground-state cache row count does not match header")
    header["r"] = rows[:, 0]
    header["values"] = rows[:, 1]
    for key in ("residual", "mass", "nu", "energy", "tol"):
        if key in header:
            header[key] = float(header[key])
    return header


def groundstate_from_cache(grid: RadialGrid, text: str) -> GroundState:
    """Rebuild a GroundState from cache text on a matching grid.

    The profile is verified against the tolerance recorded in its header;
    a profile that misses it raises ConvergenceError."""
    data = parse_cache(text)
    if (data["n"], data["r_max"], data["N"]) != grid.cache_key():
        raise ValueError("cache header does not match the grid")
    if not np.allclose(data["r"], grid.nodes, rtol=0.0, atol=1e-15 * grid.r_max):
        raise ValueError("cache nodes do not match the grid")
    if "tol" not in data:
        raise ValueError("cache header records no tolerance")
    return _finalize(
        grid, data["values"], 0.0, data.get("method", METHOD_FIXED_POINT), data["tol"]
    )
