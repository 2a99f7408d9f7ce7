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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .ground_state import GroundState, interaction_integral
from .radial_core import RadialGrid, sphere_area


# ---------------------------------------------------------------------------
# potential wrapper
# ---------------------------------------------------------------------------

@dataclass
class PotentialField:
    """External potential with evaluation, exact derivatives and condition
    checks.

    evaluate maps an (M, n) array of points to (M,) values.  Derivatives
    are exact: gradient_at uses ``gradient`` when given, else
    ``evaluate.gradient``, and hessian_at uses ``evaluate.hessian``, the
    attributes that ``potentials.compile_expression`` sets.  A callable
    without them cannot answer for its derivatives (ValueError).
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

    def gradient_at(self, x) -> np.ndarray:
        grad = self.gradient if self.gradient is not None else self._exact("gradient")
        return np.asarray(grad(np.asarray(x, dtype=float)[None, :]), dtype=float)[0]

    def hessian_at(self, x) -> np.ndarray:
        hess = self._exact("hessian")
        return np.asarray(hess(np.asarray(x, dtype=float)[None, :]), dtype=float)[0]

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

def interaction_of_values(grid: RadialGrid, values: np.ndarray) -> float:
    """int (I2*u^2) u^2 dx for an arbitrary sampled radial profile."""
    from .newton_potential import kernel_matrix

    v = kernel_matrix(grid, 0) @ values**2
    return sphere_area(grid.dim) * float(np.dot(grid.weights, v * values**2))


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
    location: np.ndarray
    v_value: float
    h_value: float
    grad_norm: float
    kind: str  # minimum / maximum / saddle / degenerate
    hessian_eigenvalues: np.ndarray
    gradient_proxy: Optional[float] = None


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
    """Locate critical points of V in the box by multistart minimization of
    |grad V|^2 with Newton polish; report the reduced-energy value and the
    gradient-bound proxy at scale eps for each.

    Degenerate Hessians (critical manifolds) are flagged, with the sampled
    points returned as found.
    """
    if len(box) != V.dim:
        raise ValueError("box dimension does not match the potential")
    V.lower_bound_check(box, seed=seed)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    scale = float(np.max(hi - lo))
    rng = np.random.default_rng(seed)
    starts = lo + (hi - lo) * rng.random((n_starts, V.dim))

    def gsq(x):
        g = V.gradient_at(x)
        return float(np.dot(g, g))

    found: List[np.ndarray] = []
    for x0 in starts:
        res = minimize(gsq, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-20, "maxiter": 4000})
        x = res.x
        # Newton polish on the gradient
        for _ in range(60):
            g = V.gradient_at(x)
            if np.linalg.norm(g) < 1e-14 * max(1.0, scale):
                break
            H = V.hessian_at(x)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 0.5 * scale:
                break
            x = x - step
        if np.any(x < lo - 1e-9 * scale) or np.any(x > hi + 1e-9 * scale):
            continue
        if np.linalg.norm(V.gradient_at(x)) > grad_tol:
            continue
        if any(np.linalg.norm(x - y) < dedupe_dist * scale for y in found):
            continue
        found.append(x)

    if shells is None:
        shells = shell_quadrature(gs.dim)
    out: List[CriticalPoint] = []
    for x in found:
        H = V.hessian_at(x)
        eigs = np.linalg.eigvalsh(H)
        h_scale = max(float(np.max(np.abs(eigs))), 1e-30)
        if float(np.min(np.abs(eigs))) < 1e-6 * h_scale:
            kind = "degenerate"
        elif np.all(eigs > 0.0):
            kind = "minimum"
        elif np.all(eigs < 0.0):
            kind = "maximum"
        else:
            kind = "saddle"
        proxy = gradient_bound_proxy(gs, V, eps, x / eps, shells)
        out.append(
            CriticalPoint(
                location=x,
                v_value=V.value(x),
                h_value=reduced_energy(gs, V, x),
                grad_norm=float(np.linalg.norm(V.gradient_at(x))),
                kind=kind,
                hessian_eigenvalues=eigs,
                gradient_proxy=proxy,
            )
        )
    out.sort(key=lambda cp: cp.h_value)
    return out


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
