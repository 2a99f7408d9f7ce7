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

The first three are shell moments of V(eps x) against z_xi^2, taken together
from one evaluation of V on the shell cloud, once per eps in the sweep.
Critical points of V come from one batched, step-limited Newton iteration
on grad V with the exact Hessian, run on all starts together; the proxy is
then taken once per critical set, not once per sampled point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .ground_state import GroundState, interaction_integral
from .radial_core import sphere_area


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
    answer for its derivatives (ValueError).
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

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

@dataclass
class ShellQuadrature:
    """Angular product rule on S^(n-1); the soliton moments pair it with
    the ground state's radial grid about any center."""

    directions: np.ndarray  # (M, n) unit vectors
    weights: np.ndarray  # (M,), summing to |S^{n-1}|
    degree: int


def _sphere_product_rule(n: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product Gauss rule on S^{n-1}, exact for spherical harmonics up to
    the given degree: Gauss-Gegenbauer in each polar cosine, uniform
    azimuth."""
    from scipy.special import roots_gegenbauer

    m_polar = degree // 2 + 1
    m_phi = degree + 1
    phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    wts = np.full(m_phi, 2.0 * math.pi / m_phi)
    dim = 2
    while dim < n:
        # prepend a polar angle: S^(dim-1) -> S^dim picks up the weight
        # (1 - t^2)^((dim-2)/2), i.e. Gegenbauer alpha = (dim-1)/2
        alpha = (dim - 1) / 2.0
        t, wt = roots_gegenbauer(m_polar, alpha)
        st = np.sqrt(1.0 - t**2)
        new_dirs = np.concatenate(
            [
                np.repeat(t, dirs.shape[0])[:, None],
                (st[:, None, None] * dirs[None, :, :]).reshape(-1, dim),
            ],
            axis=1,
        )
        wts = (wt[:, None] * wts[None, :]).ravel()
        dirs = new_dirs
        dim += 1
    return dirs, wts


def shell_quadrature(n: int, degree: int = 20) -> ShellQuadrature:
    dirs, wts = _sphere_product_rule(n, degree)
    total = float(np.sum(wts))
    area = sphere_area(n)
    if abs(total - area) > 1e-12 * area:
        raise RuntimeError("angular rule failed its surface-measure check")
    return ShellQuadrature(directions=dirs, weights=wts, degree=degree)


# ---------------------------------------------------------------------------
# soliton quantities
# ---------------------------------------------------------------------------

def constant_C0(gs: GroundState) -> float:
    """C0 = iint U^2(x) U^2(y) / |x-y|^(n-2) dx dy, the bare double
    integral: (n-2) |S^{n-1}| times the I2-normalized interaction."""
    return (gs.dim - 2) * sphere_area(gs.dim) * interaction_integral(gs)


def leading_coefficient(gs: GroundState) -> float:
    """C1 with f_eps(z_xi) = C1 (1+V(eps xi))^(3-n/2) for constant V;
    equals 1/4 of the I2-normalized interaction integral (and, by the
    virial identities, the ground-state energy F(U))."""
    return 0.25 * interaction_integral(gs)


def reduced_energy(gs: GroundState, V: PotentialField, xi) -> float:
    """Reduced landscape h(xi) = C1 (1 + V(xi))^(3 - n/2)."""
    val = 1.0 + V.value(xi)
    if val <= 0.0:
        raise ValueError("1 + V must be positive at the evaluation point")
    return leading_coefficient(gs) * val ** (3.0 - gs.dim / 2.0)


def _translation_invariant_energy(gs: GroundState, alpha: float) -> float:
    """Kinetic, mass and quartic terms of f_eps(z_xi) for 1 + mu = alpha.
    They rescale the base terms by alpha^(3-n/2), alpha^(2-n/2) and
    alpha^(3-n/2), and with F(U) = (kinetic + mass)/2 - quartic/4 they sum
    to alpha^(2-n/2) (alpha F(U) - (alpha - 1) ||U||^2 / 2)."""
    return alpha ** (2.0 - gs.dim / 2.0) * (
        alpha * gs.energy - 0.5 * (alpha - 1.0) * gs.l2_mass
    )


def _soliton_moments(
    gs: GroundState,
    V: PotentialField,
    eps: float,
    xi,
    shells: Optional[ShellQuadrature],
) -> Tuple[float, float, float, float]:
    """(mu, int V z^2, int (V - mu) z^2, int (V - mu)^2 z^2) for V = V(eps x),
    z = z_xi and mu = V(eps xi), all from one evaluation of V on the cloud
    eps xi + (eps r) d of the shell rule (degree 20 by default)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (gs.dim,):
        raise ValueError(f"xi must have {gs.dim} entries, got shape {xi.shape}")
    if shells is None:
        shells = shell_quadrature(gs.dim)
    mu = V.value(eps * xi)
    if 1.0 + mu <= 0.0:
        raise ValueError("1 + V(eps xi) must be positive")
    r = gs.grid.nodes
    cloud = np.multiply.outer(eps * r, shells.directions)
    cloud += eps * xi
    vals = np.asarray(V.evaluate(cloud.reshape(-1, gs.dim)), dtype=float).reshape(
        r.size, shells.directions.shape[0]
    )
    del cloud
    z = (1.0 + mu) * gs.profile.evaluate(math.sqrt(1.0 + mu) * r)
    wz2 = gs.grid.weights * z**2
    value = float(np.dot(wz2, vals @ shells.weights))
    centered = vals - mu
    diff = float(np.dot(wz2, centered @ shells.weights))
    centered *= centered
    diff2 = float(np.dot(wz2, centered @ shells.weights))
    return mu, value, diff, diff2


def soliton_energy(
    gs: GroundState,
    V: PotentialField,
    eps: float,
    xi,
    shells: Optional[ShellQuadrature] = None,
    check_degree: bool = False,
    degree_tol: float = 1e-8,
) -> float:
    """f_eps(z_xi): radial quadrature for the translation-invariant terms
    (exact scaling of the base integrals), shell quadrature for the V term;
    check_degree raises if a rule 8 degrees finer moves the V term."""
    mu, value, _, _ = _soliton_moments(gs, V, eps, xi, shells)
    quad_part = _translation_invariant_energy(gs, 1.0 + mu)
    v_term = 0.5 * value
    if check_degree:
        degree = (shells or shell_quadrature(gs.dim)).degree
        finer = shell_quadrature(gs.dim, degree=degree + 8)
        v2 = 0.5 * _soliton_moments(gs, V, eps, xi, finer)[1]
        scale = max(abs(v_term), abs(quad_part), 1.0)
        if abs(v2 - v_term) > degree_tol * scale:
            raise ValueError(
                f"shell rule degree {degree} too low for the potential: "
                f"refinement moves the V-term by {abs(v2 - v_term):.3e}"
            )
    return quad_part + v_term


def gradient_bound_proxy(
    gs: GroundState,
    V: PotentialField,
    eps: float,
    xi,
    shells: Optional[ShellQuadrature] = None,
) -> float:
    """(int |V(eps x) - V(eps xi)|^2 z_xi^2 dx)^(1/2), the computable upper
    bound for the Frechet derivative of f_eps at the soliton."""
    return math.sqrt(max(_soliton_moments(gs, V, eps, xi, shells)[3], 0.0))


def gamma_leading(
    gs: GroundState,
    V: PotentialField,
    eps: float,
    xi,
    shells: Optional[ShellQuadrature] = None,
) -> float:
    """Corrector-free half of the reduced-energy correction:
    (1/2) int [V(eps x) - V(eps xi)] z_xi^2 dx."""
    return 0.5 * _soliton_moments(gs, V, eps, xi, shells)[2]


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
    and becomes NaN once its gradient, Hessian or step is not finite."""
    x = x.copy()
    live = np.ones(x.shape[0], dtype=bool)
    stop = 1e-14 * max(1.0, scale)
    longest = NEWTON_STEP * scale
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
            # a non-finite step turns its row NaN
            length = np.linalg.norm(step, axis=1)
            x[rows] -= step * (longest / np.maximum(length, longest))[:, None]
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
    shells: Optional[ShellQuadrature] = None,
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

    if shells is None:
        shells = shell_quadrature(gs.dim)
    sets = []  # (first point, nullity) of each degenerate set
    for cp, null in points:
        if null:
            if any(n == null and abs(rep.v_value - cp.v_value)
                   <= 1e-10 * max(1.0, abs(rep.v_value)) for rep, n in sets):
                continue
            sets.append((cp, null))
        cp.gradient_proxy = gradient_bound_proxy(gs, V, eps, cp.location / eps, shells)
    return [cp for cp, _ in points]


# ---------------------------------------------------------------------------
# sweep report
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    eps: float
    energy: float
    leading: float
    energy_gap: float
    gradient_proxy: float
    gamma_half: float


@dataclass
class SemiclassicalReport:
    dim: int
    xi: np.ndarray
    eps_list: List[float]
    rows: List[SweepRow]
    proxy_exponent: float
    proxy_fit_residual: float
    gamma_exponent: Optional[float]
    gamma_fit_residual: Optional[float]
    critical_points: List[CriticalPoint] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"semiclassical sweep  n={self.dim}  xi={np.array2string(self.xi)}",
            "eps  f_eps(z)  C1(1+V)^(3-n/2)  |gap|  proxy  gamma_half",
        ]
        for row in self.rows:
            lines.append(
                f"{row.eps:.6g} {row.energy:.12e} {row.leading:.12e} "
                f"{row.energy_gap:.6e} {row.gradient_proxy:.6e} {row.gamma_half:.6e}"
            )
        lines.append(
            f"proxy exponent = {self.proxy_exponent:.4f}"
            f" (fit rms {self.proxy_fit_residual:.2e})"
        )
        if self.gamma_exponent is not None:
            lines.append(
                f"gamma exponent = {self.gamma_exponent:.4f}"
                f" (fit rms {self.gamma_fit_residual:.2e})"
            )
        for cp in self.critical_points:
            lines.append(
                f"critical point {np.array2string(cp.location, precision=8)}"
                f"  V={cp.v_value:.8e}  h={cp.h_value:.8e}  kind={cp.kind}"
            )
        return "\n".join(lines) + "\n"


def semiclassical_sweep(
    gs: GroundState,
    V: PotentialField,
    xi,
    eps_list: Sequence[float],
    degree: int = 20,
) -> SemiclassicalReport:
    """Evaluate energies, the gradient proxy, and the corrector-free
    correction over a decreasing eps list; fit the scaling exponents."""
    xi = np.asarray(xi, dtype=float)
    eps_arr = list(eps_list)
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps list must be strictly decreasing")
    shells = shell_quadrature(gs.dim, degree=degree)
    C1 = leading_coefficient(gs)
    rows = []
    for eps in eps_arr:
        mu, value, diff, diff2 = _soliton_moments(gs, V, eps, xi, shells)
        energy = _translation_invariant_energy(gs, 1.0 + mu) + 0.5 * value
        lead = C1 * (1.0 + mu) ** (3.0 - gs.dim / 2.0)
        rows.append(
            SweepRow(
                eps=eps,
                energy=energy,
                leading=lead,
                energy_gap=abs(energy - lead),
                gradient_proxy=math.sqrt(max(diff2, 0.0)),
                gamma_half=0.5 * diff,
            )
        )
    proxy_exp, proxy_res = fit_scaling_exponent(
        eps_arr, [row.gradient_proxy for row in rows]
    )
    try:
        gamma_exp, gamma_res = fit_scaling_exponent(
            eps_arr, [row.gamma_half for row in rows]
        )
    except ValueError:
        gamma_exp, gamma_res = None, None
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
