"""Semiclassical diagnostics for the equation with an external potential.

After the change of variables x -> eps x the energy is

    f_eps(v) = 1/2 ||v||_H1^2 - 1/4 int (I2*v^2) v^2 + 1/2 int V(eps x) v^2,

and the rescaled soliton z_xi(x) = (1+mu) U(sqrt(1+mu)(x - xi)) with
mu = V(eps xi) solves the constant-potential equation exactly.  Everything
evaluated here is computable without the corrector fixed point: the soliton
energy, the gradient-bound proxy

    (int |V(eps x) - V(eps xi)|^2 z_xi^2 dx)^(1/2),

the corrector-free half of the reduced-energy correction, and the reduced
landscape h(xi) = C1 (1 + V(xi))^(3 - n/2) whose critical points predict
concentration locations.

soliton_row gives the first three at one (eps, xi), with the leading term
C1 (1 + mu)^(3 - n/2), from one set of shell moments of V(eps x) against
z_xi^2: one pass of V over a shell cloud, the ground state's radial grid
times a product rule on S^(n-1), in blocks of radii.  The rule's degree is
the one V needs.  A polynomial V of degree d <= 10 (as the expression tree
reports it) takes degree 2d, where the moments are exact.  Any other V
steps the degree through 8, 12, 16, 20 until two successive moment sets
agree to 1e-8 relative, reports that change as the error estimate, and
raises ShellDegreeError if degree 20 does not agree.
Critical points of V come from one batched, step-limited Newton iteration
on grad V with the exact Hessian, run on all starts together; the proxy is
then taken once per critical set, not once per sampled point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .ground_state import GroundState, interaction_integral, rescale_state
from .radial_core import sphere_area, sphere_product_rule


# ---------------------------------------------------------------------------
# potential wrapper
# ---------------------------------------------------------------------------

@dataclass
class PotentialField:
    """External potential with evaluation, exact derivatives and condition
    checks.

    evaluate maps an (M, n) array of points to (M,) values.  Derivatives
    are exact and batched: gradients uses ``gradient`` when given, else
    ``evaluate.gradient``, and hessians uses ``evaluate.hessian``, the
    attributes that ``potentials.compile_expression`` sets; gradient_at and
    hessian_at are their one-point case.  A callable without them cannot
    answer for its derivatives (ValueError).  degree is
    ``evaluate.degree``, the bound on V's polynomial degree that
    ``compile_expression`` sets, and None for any other callable.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def degree(self) -> Optional[int]:
        return getattr(self.evaluate, "degree", None)

    def value(self, x) -> float:
        return float(self.evaluate(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def _exact(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        fn = getattr(self.evaluate, name, None)
        if fn is None:
            raise ValueError(
                f"the potential has no exact {name}; build it with "
                "potentials.compile_expression or make_potential_functions"
            )
        return fn

    def gradients(self, pts) -> np.ndarray:
        """Exact gradients at (M, n) points, as an (M, n) array."""
        grad = self.gradient if self.gradient is not None else self._exact("gradient")
        return np.asarray(grad(np.asarray(pts, dtype=float)), dtype=float)

    def hessians(self, pts) -> np.ndarray:
        """Exact Hessians at (M, n) points, as an (M, n, n) array."""
        return np.asarray(self._exact("hessian")(np.asarray(pts, dtype=float)), dtype=float)

    def gradient_at(self, x) -> np.ndarray:
        return self.gradients(np.asarray(x, dtype=float)[None, :])[0]

    def hessian_at(self, x) -> np.ndarray:
        return self.hessians(np.asarray(x, dtype=float)[None, :])[0]

    def lower_bound_check(self, box: Sequence[Tuple[float, float]], samples: int = 4096,
                          seed: int = 0) -> float:
        """inf-proxy of 1 + V over the box; raises if the condition fails."""
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        pts = lo + (hi - lo) * rng.random((samples, self.dim))
        vals = 1.0 + np.asarray(self.evaluate(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential is not finite on the sampled box")
        bound = float(np.min(vals))
        if bound <= 0.0:
            raise ValueError(f"1 + V reaches {bound:.3e} <= 0 on the sampled box")
        return bound


# ---------------------------------------------------------------------------
# shell quadrature on S^{n-1} about a center
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellQuadrature:
    """Angular product rule on S^(n-1); the soliton moments pair it with
    the ground state's radial grid about any center."""

    directions: np.ndarray  # (M, n) unit vectors
    weights: np.ndarray  # (M,), summing to |S^{n-1}|
    degree: int


@functools.lru_cache(maxsize=16)
def shell_quadrature(n: int, degree: int) -> ShellQuadrature:
    """The product rule of the given degree on S^(n-1).  Rules are cached,
    since every moment evaluation needs one, so their arrays are read-only."""
    dirs, wts = sphere_product_rule(n, degree)
    total = float(np.sum(wts))
    area = sphere_area(n)
    if abs(total - area) > 1e-12 * area:
        raise RuntimeError("angular rule failed its surface-measure check")
    dirs.flags.writeable = False
    wts.flags.writeable = False
    return ShellQuadrature(directions=dirs, weights=wts, degree=degree)


# ---------------------------------------------------------------------------
# soliton quantities
# ---------------------------------------------------------------------------

def leading_coefficient(gs: GroundState) -> float:
    """C1 with f_eps(z_xi) = C1 (1+V(eps xi))^(3-n/2) for constant V;
    equals 1/4 of the I2-normalized interaction integral (and, by the
    virial identities, the ground-state energy F(U))."""
    return 0.25 * interaction_integral(gs)


def _leading(gs: GroundState, alpha: float) -> float:
    """C1 alpha^(3-n/2): f_eps(z_xi) for constant V with 1 + V = alpha."""
    return leading_coefficient(gs) * alpha ** (3.0 - gs.dim / 2.0)


def reduced_energy(gs: GroundState, V: PotentialField, xi) -> float:
    """Reduced landscape h(xi) = C1 (1 + V(xi))^(3 - n/2)."""
    val = 1.0 + V.value(xi)
    if val <= 0.0:
        raise ValueError("1 + V must be positive at the evaluation point")
    return _leading(gs, val)


def _translation_invariant_energy(gs: GroundState, alpha: float) -> float:
    """Kinetic, mass and quartic terms of f_eps(z_xi) for 1 + mu = alpha.
    They rescale the base terms by alpha^(3-n/2), alpha^(2-n/2) and
    alpha^(3-n/2), and with F(U) = (kinetic + mass)/2 - quartic/4 they sum
    to alpha^(2-n/2) (alpha F(U) - (alpha - 1) ||U||^2 / 2)."""
    return alpha ** (2.0 - gs.dim / 2.0) * (
        alpha * gs.energy - 0.5 * (alpha - 1.0) * gs.l2_mass
    )


STEPPED_DEGREES = (8, 12, 16, 20)  # shell rules tried in turn for a general V
DEGREE_TOL = 1e-8  # relative agreement of two successive stepped rules
CLOUD_POINTS = 8192  # shell-cloud points per block, bounding its memory


class ShellDegreeError(ValueError):
    """The stepped shell rule has not converged at its highest degree."""


def _cloud_moments(V: PotentialField, eps: float, xi: np.ndarray, r: np.ndarray,
                   wz2: np.ndarray, mu: float, shells: ShellQuadrature) -> np.ndarray:
    """Shell moments of V = V(eps x) against z^2, mu = V(eps xi):
    (int V z^2, int (V - mu) z^2, int (V - mu)^2 z^2), with wz2 the radial
    weights times z^2 on the radii r.  V is evaluated on the cloud
    eps xi + (eps r) d of the shell rule, max(1, CLOUD_POINTS // M) radii
    at a time for M directions: the angular sums are taken per radius, so
    the blocks change only the memory, not the sums."""
    sums = np.empty((3, r.size))
    radii = max(1, CLOUD_POINTS // shells.directions.shape[0])
    for lo in range(0, r.size, radii):
        block = slice(lo, lo + radii)
        cloud = np.multiply.outer(eps * r[block], shells.directions)
        cloud += eps * xi
        vals = np.asarray(V.evaluate(cloud.reshape(-1, V.dim)), dtype=float).reshape(
            -1, shells.directions.shape[0]
        )
        sums[0, block] = vals @ shells.weights
        centered = vals - mu
        sums[1, block] = centered @ shells.weights
        centered *= centered
        sums[2, block] = centered @ shells.weights
    return np.array([float(np.dot(wz2, row)) for row in sums])


def _relative_change(a: np.ndarray, b: np.ndarray, mu: float, mass: float) -> float:
    """Largest change between two (value, diff, diff2) sets, each moment
    relative to a bound on its size: |mu| m + s, s and diff2, where
    m = int z^2 and s = (m diff2)^(1/2) >= int |V - mu| z^2 (Cauchy-Schwarz).
    A moment that vanishes by symmetry is thereby measured at the scale of
    V - mu, not of its own rounding; equal moments (both 0 for a constant
    V) count as agreeing."""
    diff2 = np.maximum(a[2], b[2])
    spread = np.sqrt(mass * diff2)
    scale = np.array([abs(mu) * mass + spread, spread, diff2])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(a == b, 0.0, np.abs(a - b) / scale)))


@dataclass
class SweepRow:
    eps: float
    energy: float
    leading: float
    gradient_proxy: float
    gamma_half: float
    shell_degree: int  # of the shell rule the row's moments come from
    shell_error: float  # its relative error estimate, 0.0 when exact


def soliton_row(gs: GroundState, V: PotentialField, eps: float, xi) -> SweepRow:
    """Every soliton quantity at one (eps, xi), from one set of shell
    moments of V(eps x) against z_xi^2 = rescale_state(gs, V(eps xi))^2:
    f_eps(z_xi) (radial quadrature for the translation-invariant terms,
    exact scaling of the base integrals, and int V z^2 / 2), its leading
    term C1 (1 + V(eps xi))^(3-n/2), the gradient-bound proxy
    (int |V(eps x) - V(eps xi)|^2 z_xi^2)^(1/2), which bounds the Frechet
    derivative of f_eps at z_xi, and the corrector-free half of Gamma,
    (1/2) int [V(eps x) - V(eps xi)] z_xi^2.

    The moments are taken on the rule V needs.  A polynomial V with
    2 deg V <= 20 takes the rule of degree 2 deg V, which is exact since
    (V - mu)^2 has degree 2 deg V on every shell.  Any other V steps
    through STEPPED_DEGREES until two successive moment sets agree to
    DEGREE_TOL (see _relative_change), and raises ShellDegreeError if the
    last two do not."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (gs.dim,):
        raise ValueError(f"xi must have {gs.dim} entries, got shape {xi.shape}")
    mu = V.value(eps * xi)
    if 1.0 + mu <= 0.0:
        raise ValueError("1 + V(eps xi) must be positive")
    r = gs.grid.nodes
    wz2 = gs.grid.weights * rescale_state(gs, mu).values ** 2

    def on(degree: int) -> np.ndarray:
        return _cloud_moments(V, eps, xi, r, wz2, mu, shell_quadrature(gs.dim, degree))

    if V.degree is not None and 2 * V.degree <= STEPPED_DEGREES[-1]:
        degree, change = 2 * V.degree, 0.0
        moments = on(degree)
    else:
        mass = float(np.sum(wz2)) * sphere_area(gs.dim)
        previous = on(STEPPED_DEGREES[0])
        for degree in STEPPED_DEGREES[1:]:
            moments = on(degree)
            change = _relative_change(previous, moments, mu, mass)
            if change <= DEGREE_TOL:
                break
            previous = moments
        else:
            raise ShellDegreeError(
                f"shell rule degree {degree} too low for the potential: the shell "
                f"moments changed by {change:.3e} relative from degree "
                f"{STEPPED_DEGREES[-2]}"
            )
    value, diff, diff2 = moments
    energy = _translation_invariant_energy(gs, 1.0 + mu) + 0.5 * value
    lead = _leading(gs, 1.0 + mu)
    return SweepRow(
        eps=eps,
        energy=energy,
        leading=lead,
        gradient_proxy=math.sqrt(max(diff2, 0.0)),
        gamma_half=0.5 * diff,
        shell_degree=degree,
        shell_error=change,
    )


def soliton_energy(gs: GroundState, V: PotentialField, eps: float, xi) -> float:
    """f_eps(z_xi); see soliton_row."""
    return soliton_row(gs, V, eps, xi).energy


def fit_scaling_exponent(eps_list: Sequence[float], values: Sequence[float]):
    """Least-squares slope of log|value| against log eps; returns
    (exponent, rms residual of the fit)."""
    eps_arr = np.asarray(eps_list, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    if np.any(vals == 0.0):
        raise ValueError("scaling fit needs nonzero values")
    x = np.log(eps_arr)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# concentration prediction
# ---------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    """A critical point of V.  gradient_proxy is set on the first point of
    each critical set (see predict_concentration) and None on the others."""

    location: np.ndarray
    v_value: float
    h_value: float
    grad_norm: float
    kind: str  # minimum / maximum / saddle / degenerate
    hessian_eigenvalues: np.ndarray
    gradient_proxy: Optional[float] = None


NEWTON_ITERATIONS = 100
NEWTON_STEP = 0.25  # longest Newton step, as a fraction of the box scale


def _newton_on_gradient(V: PotentialField, x: np.ndarray, scale: float) -> np.ndarray:
    """Step-limited Newton on grad V from every row of x at once.  The step
    solves H s = g through eigh, dropping components with
    |lambda| < 1e-12 max|lambda|; a row freezes once |grad V| < 1e-14 scale,
    and becomes NaN once its gradient, Hessian or step is not finite.  A row
    back within 1e-12 scale of its iterate two steps earlier is caught in a
    2-cycle of clipped steps, and its step limit is halved."""
    x = x.copy()
    live = np.ones(x.shape[0], dtype=bool)
    stop = 1e-14 * max(1.0, scale)
    longest = np.full(x.shape[0], NEWTON_STEP * scale)
    back1 = np.full_like(x, np.nan)  # the iterates one and two steps earlier
    back2 = np.full_like(x, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_ITERATIONS):
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
            step = np.einsum("mij,mj->mi", vec, np.where(small, 0.0, coef / lam))
            cycled = np.linalg.norm(x[rows] - back2[rows], axis=1) <= 1e-12 * scale
            longest[rows[cycled]] *= 0.5
            back2[rows] = back1[rows]
            back1[rows] = x[rows]
            # a non-finite step turns its row NaN
            length = np.linalg.norm(step, axis=1)
            limit = longest[rows]
            x[rows] -= step * (limit / np.maximum(length, limit))[:, None]
    return x


def predict_concentration(
    V: PotentialField,
    box: Sequence[Tuple[float, float]],
    eps: float,
    gs: GroundState,
    n_starts: int = 80,
    seed: int = 0,
    grad_tol: float = 1e-9,
    dedupe_dist: float = 1e-5,
) -> List[CriticalPoint]:
    """Locate critical points of V in the box and report the reduced-energy
    value of each, with the gradient-bound proxy at scale eps once per
    critical set.

    n_starts uniform starts in the box run one batched Newton iteration on
    grad V with the exact Hessian, each step limited to NEWTON_STEP times
    the box scale, for at most NEWTON_ITERATIONS steps.  Points inside the
    box with |grad V| <= grad_tol are kept, one per dedupe_dist * scale.

    A nondegenerate point is its own critical set.  Degenerate points
    (critical manifolds) are returned as sampled; those with the same
    Hessian nullity and V equal to 1e-10 relative form one set, since V is
    constant on a connected critical manifold.  The proxy is computed at
    the first point of each set in the returned (h-sorted) order.
    """
    if len(box) != V.dim:
        raise ValueError("box dimension does not match the potential")
    V.lower_bound_check(box, seed=seed)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    scale = float(np.max(hi - lo))
    rng = np.random.default_rng(seed)
    starts = lo + (hi - lo) * rng.random((n_starts, V.dim))

    x = _newton_on_gradient(V, starts, scale)
    # NaN rows fail the box test
    x = x[np.all((x >= lo - 1e-9 * scale) & (x <= hi + 1e-9 * scale), axis=1)]
    gnorm = np.linalg.norm(V.gradients(x), axis=1)
    found: List[int] = []
    for i in np.flatnonzero(gnorm <= grad_tol):
        if all(np.linalg.norm(x[i] - x[j]) >= dedupe_dist * scale for j in found):
            found.append(i)

    points = []  # (critical point, Hessian nullity)
    for x_i, g_i, eigs in zip(x[found], gnorm[found],
                              np.linalg.eigvalsh(V.hessians(x[found]))):
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
        cp = CriticalPoint(
            location=x_i,
            v_value=V.value(x_i),
            h_value=reduced_energy(gs, V, x_i),
            grad_norm=float(g_i),
            kind=kind,
            hessian_eigenvalues=eigs,
        )
        points.append((cp, null))
    points.sort(key=lambda p: p[0].h_value)

    sets = []  # (first point, nullity) of each degenerate set
    for cp, null in points:
        if null:
            if any(n == null and abs(rep.v_value - cp.v_value)
                   <= 1e-10 * max(1.0, abs(rep.v_value)) for rep, n in sets):
                continue
            sets.append((cp, null))
        cp.gradient_proxy = soliton_row(gs, V, eps, cp.location / eps).gradient_proxy
    return [cp for cp, _ in points]


# ---------------------------------------------------------------------------
# sweep report
# ---------------------------------------------------------------------------

@dataclass
class SemiclassicalReport:
    dim: int
    xi: np.ndarray
    eps_list: List[float]
    rows: List[SweepRow]
    proxy_exponent: Optional[float]
    proxy_fit_residual: Optional[float]
    gamma_exponent: Optional[float]
    gamma_fit_residual: Optional[float]
    critical_points: List[CriticalPoint] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"semiclassical sweep  n={self.dim}  xi={np.array2string(self.xi)}",
            "eps  f_eps(z)  C1(1+V)^(3-n/2)  proxy  gamma_half"
            "  shell_degree  shell_error",
        ]
        for row in self.rows:
            lines.append(
                f"{row.eps:.6g} {row.energy:.12e} {row.leading:.12e} "
                f"{row.gradient_proxy:.6e} {row.gamma_half:.6e} "
                f"{row.shell_degree} {row.shell_error:.1e}"
            )
        for name, exponent, rms in (
            ("proxy", self.proxy_exponent, self.proxy_fit_residual),
            ("gamma", self.gamma_exponent, self.gamma_fit_residual),
        ):
            if exponent is not None:
                lines.append(f"{name} exponent = {exponent:.4f} (fit rms {rms:.2e})")
        for cp in self.critical_points:
            lines.append(
                f"critical point {np.array2string(cp.location, precision=8)}"
                f"  V={cp.v_value:.8e}  h={cp.h_value:.8e}  kind={cp.kind}"
            )
        return "\n".join(lines) + "\n"


def _fit_or_none(eps_list: Sequence[float], values: Sequence[float]):
    """fit_scaling_exponent, or (None, None) when a value is zero."""
    try:
        return fit_scaling_exponent(eps_list, values)
    except ValueError:
        return None, None


def semiclassical_sweep(
    gs: GroundState,
    V: PotentialField,
    xi,
    eps_list: Sequence[float],
) -> SemiclassicalReport:
    """One soliton_row per eps of a decreasing list, and the scaling
    exponents of the proxy and of gamma_half; an exponent whose values
    include a zero (for a constant V all of them are) is None.  A slope
    needs two eps, so a shorter list raises ValueError."""
    xi = np.asarray(xi, dtype=float)
    eps_arr = list(eps_list)
    if len(eps_arr) < 2:
        raise ValueError("eps list needs at least two values for the scaling fits")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps list must be strictly decreasing")
    rows = [soliton_row(gs, V, eps, xi) for eps in eps_arr]
    proxy_exp, proxy_res = _fit_or_none(eps_arr, [row.gradient_proxy for row in rows])
    gamma_exp, gamma_res = _fit_or_none(eps_arr, [row.gamma_half for row in rows])
    return SemiclassicalReport(
        dim=gs.dim,
        xi=xi,
        eps_list=eps_arr,
        rows=rows,
        proxy_exponent=proxy_exp,
        proxy_fit_residual=proxy_res,
        gamma_exponent=gamma_exp,
        gamma_fit_residual=gamma_res,
    )
