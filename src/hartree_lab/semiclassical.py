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
z_xi^2: one pass of V over a shell cloud, radii times a product rule on
S^(n-1), in blocks of radii.  The radial measure of z_xi^2 is U's own: with
alpha = 1 + mu and s = sqrt(alpha) r, the nodes r_i and weights w_i of the
ground state's grid give z_xi^2 the radii r_i / sqrt(alpha) and the weights
alpha^(2 - n/2) w_i U_i^2, exactly, for every mu > -1; nothing is resampled.
Every angular degree D on the sphere is paired with the (D/2 + 1)-point
Gauss rule of that measure along the radius, and the pair is exact when V
is a polynomial of degree D/2: along every ray V(eps xi + eps rho d) - mu
is then a polynomial of degree <= D/2 in rho, so each shell sum of
(V - mu)^j, j <= 2, has degree <= D <= 2(D/2 + 1) - 1 in rho, which the
Gauss rule integrates exactly against the measure (G. H. Golub and J. H.
Welsch, Math. Comp. 23 (1969)).  A polynomial V of degree d <= 12 (as the
expression tree reports it) takes D = 2d, fixed and exact.  Any other V
steps D through 8, 12, 16, 20, 24, on 5, 7, 9, 11 and 13 radii, until two
successive moment sets agree to 1e-8 relative, reports that change as the
error estimate, and raises ShellDegreeError if degree 24 does not agree.
The rules come from one discrete Stieltjes/Lanczos run to the largest point
count (W. Gautschi, Orthogonal Polynomials: Computation and Approximation,
OUP 2004, section 2.2): the leading m x m block of its Jacobi matrix is the
m-point Jacobi matrix.  The rescaling maps Gauss rules to Gauss rules, so
the rules of w U^2 on U's nodes serve every mu: a sweep and a
concentration search build them once and scale them per row.
Critical points of V come from one batched, step-limited Newton iteration
on grad V with the exact Hessian, run on all starts together.  The end
points are deduplicated in one pass per kept point, every kept point is
classified in one pass of array operations with C1 taken once, and the
proxy is then taken once per critical set, not once per sampled point.
The scaling exponents are closed-form least-squares slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ground_state import GroundState, interaction_integral
from .radial_core import sphere_product_rule


# ---------------------------------------------------------------------------
# potential wrapper
# ---------------------------------------------------------------------------

BOUND_SAMPLES = 4096  # box samples of the 1 + V > 0 check


@dataclass
class PotentialField:
    """External potential with evaluation, exact derivatives and condition
    checks.

    evaluate maps an (M, n) array of points to (M,) values.  Derivatives
    are exact and batched: gradients uses ``gradient`` when given, else
    ``evaluate.gradient``, and hessians uses ``evaluate.hessian``, the
    attributes that ``potentials.compile_expression`` sets; gradient_at is
    the one-point case of gradients.  A callable without them cannot
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

    def lower_bound_check(self, box: Sequence[Tuple[float, float]], seed: int = 0) -> float:
        """inf-proxy of 1 + V over BOUND_SAMPLES uniform points of the box;
        raises if the condition fails."""
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        pts = lo + (hi - lo) * rng.random((BOUND_SAMPLES, self.dim))
        vals = 1.0 + np.asarray(self.evaluate(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential is not finite on the sampled box")
        bound = float(np.min(vals))
        if bound <= 0.0:
            raise ValueError(f"1 + V reaches {bound:.3e} <= 0 on the sampled box")
        return bound


# ---------------------------------------------------------------------------
# soliton quantities
# ---------------------------------------------------------------------------

def leading_coefficient(gs: GroundState) -> float:
    """C1 with f_eps(z_xi) = C1 (1+V(eps xi))^(3-n/2) for constant V;
    equals 1/4 of the I2-normalized interaction integral (and, by the
    virial identities, the ground-state energy F(U))."""
    return 0.25 * interaction_integral(gs)


def reduced_energy(gs: GroundState, V: PotentialField, xi) -> float:
    """Reduced landscape h(xi) = C1 (1 + V(xi))^(3 - n/2), which is also
    f_eps(z_xi) for constant V; 1 + V(xi) must be positive."""
    alpha = 1.0 + V.value(xi)
    if alpha <= 0.0:
        raise ValueError("1 + V must be positive at the evaluation point")
    return leading_coefficient(gs) * alpha ** (3.0 - gs.dim / 2.0)


def _translation_invariant_energy(gs: GroundState, alpha: float) -> float:
    """Kinetic, mass and quartic terms of f_eps(z_xi) for 1 + mu = alpha.
    They rescale the base terms by alpha^(3-n/2), alpha^(2-n/2) and
    alpha^(3-n/2), and with F(U) = (kinetic + mass)/2 - quartic/4 they sum
    to alpha^(2-n/2) (alpha F(U) - (alpha - 1) ||U||^2 / 2)."""
    return alpha ** (2.0 - gs.dim / 2.0) * (
        alpha * gs.energy - 0.5 * (alpha - 1.0) * gs.l2_mass
    )


STEPPED_DEGREES = (8, 12, 16, 20, 24)  # shell rules tried in turn for a general V
DEGREE_TOL = 1e-8  # relative agreement of two successive stepped rules
CLOUD_POINTS = 8192  # shell-cloud points per block, bounding its memory


class ShellDegreeError(ValueError):
    """The stepped shell rule has not converged at its highest degree."""


def _cloud_moments(V: PotentialField, eps: float, xi: np.ndarray, r: np.ndarray,
                   wz2: np.ndarray, mu: float, dirs: np.ndarray,
                   wts: np.ndarray) -> np.ndarray:
    """Shell moments of V = V(eps x) against z^2, mu = V(eps xi):
    (int V z^2, int (V - mu) z^2, int (V - mu)^2 z^2), with wz2 the radial
    weights of z^2 on the radii r (_soliton_rule): the (D/2 + 1)-point
    Gauss rule paired with the degree D of the shell rule (dirs, wts)
    (_radial_rule).  V is evaluated on the cloud eps xi + (eps r) d,
    max(1, CLOUD_POINTS // M) radii at a time for M directions: the angular
    sums are taken per radius, so the blocks change only the memory, not
    the sums."""
    sums = np.empty((3, r.size))
    radii = max(1, CLOUD_POINTS // dirs.shape[0])
    for lo in range(0, r.size, radii):
        block = slice(lo, lo + radii)
        cloud = np.multiply.outer(eps * r[block], dirs)
        cloud += eps * xi
        vals = np.asarray(V.evaluate(cloud.reshape(-1, V.dim)), dtype=float).reshape(
            -1, dirs.shape[0]
        )
        sums[0, block] = vals @ wts
        centered = vals - mu
        sums[1, block] = centered @ wts
        centered *= centered
        sums[2, block] = centered @ wts
    return np.array([float(np.dot(wz2, row)) for row in sums])


def _gauss_radii(r: np.ndarray, weights: np.ndarray,
                 points: Sequence[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """For each m in points, the m-point Gauss rule (radii, weights) of the
    discrete measure sum_i weights_i delta(r - r_i), exact for polynomials
    of degree 2 m - 1 against it; soliton rows take them for w U^2 on U's
    nodes (_radial_rule).  A measure with at most m positive weights is its
    own exact m-point rule.  Otherwise Golub-Welsch: Lanczos (discrete
    Stieltjes) steps on diag(r) from sqrt(weights / sum weights), each
    reorthogonalized twice against every earlier vector, run once, to the
    largest m, and give the Jacobi matrix Q diag(r) Q^T.  Its leading m x m
    block is the m-point Jacobi matrix, whose eigenvalues are the radii and
    whose squared first eigenvector components times sum weights are the
    weights; a rule does not change with the other counts asked for.  The
    rule of the measure scaled by r -> r / s and weights -> c weights is
    this rule scaled the same way, which _soliton_rule relies on."""
    support = weights > 0.0
    size = max((m for m in points if m < np.count_nonzero(support)), default=0)
    mass = float(np.sum(weights))
    q = np.zeros((size, r.size))
    if size:
        q[0] = np.sqrt(weights / mass)
    for k in range(1, size):
        v = r * q[k - 1]
        for _ in range(2):
            v -= (q[:k] @ v) @ q[:k]
        q[k] = v / np.linalg.norm(v)

    def rule(m: int) -> Tuple[np.ndarray, np.ndarray]:
        if m > size:
            return r[support], weights[support]
        radii, vec = np.linalg.eigh((q[:m] * r) @ q[:m].T)
        return radii, mass * vec[0] ** 2

    return [rule(m) for m in points]


def _radial_rule(gs: GroundState,
                 V: PotentialField) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """The radial rules of the measure sum_i w_i U_i^2 delta(r - r_i) on the
    ground state's nodes that the soliton rows of V take, keyed by the
    angular degree D each is paired with: the (D/2 + 1)-point Gauss rule,
    exact to degree D + 1, so the pair is exact when V is a polynomial of
    degree D/2.  A polynomial V with 2 deg V <= 24 has one, D = 2 deg V
    with deg V + 1 radii; any other V has one per D in STEPPED_DEGREES, in
    order, on 5, 7, 9, 11 and 13 radii.  All come from one Lanczos run
    (_gauss_radii).  They do not depend on eps or xi; _soliton_rule scales
    them to each row's z_xi^2."""
    r, wu2 = gs.grid.nodes, gs.grid.weights * gs.profile.values ** 2
    exact = V.degree is not None and 2 * V.degree <= STEPPED_DEGREES[-1]
    degrees = (2 * V.degree,) if exact else STEPPED_DEGREES
    return dict(zip(degrees, _gauss_radii(r, wu2, [d // 2 + 1 for d in degrees])))


def _soliton_rule(rule: Tuple[np.ndarray, np.ndarray], alpha: float,
                  n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The radial rule of z^2 for z = alpha U(sqrt(alpha) r) from a rule
    (radii, weights) of w U^2: with s = sqrt(alpha) r,
    int f(r) z(r)^2 r^(n-1) dr = alpha^(2-n/2) int f(s / sqrt(alpha)) U(s)^2 s^(n-1) ds,
    so the radii divide by sqrt(alpha) and the weights take alpha^(2-n/2).
    The map is exact for every alpha > 0 and keeps a Gauss rule Gauss."""
    radii, weights = rule
    return radii / math.sqrt(alpha), alpha ** (2.0 - n / 2.0) * weights


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
    moments of V(eps x) against z_xi^2, z_xi = (1+mu) U(sqrt(1+mu)(x - xi))
    with mu = V(eps xi): f_eps(z_xi) (radial quadrature for the
    translation-invariant terms, exact scaling of the base integrals, and
    int V z^2 / 2), its leading term C1 (1 + mu)^(3-n/2), the gradient-bound
    proxy (int |V(eps x) - V(eps xi)|^2 z_xi^2)^(1/2), which bounds the
    Frechet derivative of f_eps at z_xi, and the corrector-free half of
    Gamma, (1/2) int [V(eps x) - V(eps xi)] z_xi^2.

    The radial measure of z_xi^2 is w U^2 on U's own nodes, rescaled
    exactly (_soliton_rule), so every mu > -1 is resolved.  The moments are
    taken on the rules V needs, each an angular rule of degree D with the
    (D/2 + 1)-point Gauss radii of that measure (_radial_rule), exact when
    V is a polynomial of degree D/2, since (V - mu)^2 then has degree D on
    every shell and along every ray.  A polynomial V with 2 deg V <= 24
    takes D = 2 deg V.  Any other V steps D through STEPPED_DEGREES until
    two successive moment sets agree to DEGREE_TOL (see _relative_change),
    and raises ShellDegreeError if the last two do not.  This builds the
    radial rules for the one row; semiclassical_sweep and
    predict_concentration build them, and C1, once for all of theirs."""
    return _soliton_row(gs, V, eps, xi, _radial_rule(gs, V), leading_coefficient(gs))


def _soliton_row(gs: GroundState, V: PotentialField, eps: float, xi,
                 rules: Dict[int, Tuple[np.ndarray, np.ndarray]], c1: float) -> SweepRow:
    """soliton_row on the radial rules _radial_rule(gs, V) and C1 =
    leading_coefficient(gs)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (gs.dim,):
        raise ValueError(f"xi must have {gs.dim} entries, got shape {xi.shape}")
    mu = V.value(eps * xi)
    if 1.0 + mu <= 0.0:
        raise ValueError("1 + V(eps xi) must be positive")

    def on(degree: int) -> np.ndarray:
        r, wz2 = _soliton_rule(rules[degree], 1.0 + mu, gs.dim)
        return _cloud_moments(V, eps, xi, r, wz2, mu, *sphere_product_rule(gs.dim, degree))

    mass = (1.0 + mu) ** (2.0 - gs.dim / 2.0) * gs.l2_mass  # int z_xi^2
    degree, *steps = rules
    moments, change = on(degree), 0.0
    for degree in steps:
        previous, moments = moments, on(degree)
        change = _relative_change(previous, moments, mu, mass)
        if change <= DEGREE_TOL:
            break
    if change > DEGREE_TOL:
        raise ShellDegreeError(
            f"shell rule degree {degree} too low for the potential: the shell "
            f"moments changed by {change:.3e} relative from degree "
            f"{STEPPED_DEGREES[-2]}"
        )
    value, diff, diff2 = moments
    energy = _translation_invariant_energy(gs, 1.0 + mu) + 0.5 * value
    return SweepRow(
        eps=eps,
        energy=energy,
        leading=c1 * (1.0 + mu) ** (3.0 - gs.dim / 2.0),
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
    (exponent, rms residual of the fit).  The slope is the closed form on
    the centred logs, sum(x y) / sum(x^2), and the residual is
    y - slope x on them; two distinct eps at least are needed."""
    eps_arr = np.asarray(eps_list, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    if np.any(vals == 0.0):
        raise ValueError("scaling fit needs nonzero values")
    if eps_arr.size < 2 or np.all(eps_arr == eps_arr[0]):
        raise ValueError("scaling fit needs at least two distinct eps")
    x = np.log(eps_arr)
    y = np.log(vals)
    x -= x.mean()
    y -= y.mean()
    slope = float(x @ y) / float(x @ x)
    resid = y - slope * x
    return slope, float(np.sqrt(np.mean(resid**2)))


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
GRAD_TOL = 1e-9  # |grad V| at which a Newton end point counts as critical
DEDUPE_DIST = 1e-5  # closest two kept critical points, as a fraction of the box scale


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, as np.linalg.norm(a, axis=1) takes it
    for real input: the square root of the row's sum of squares."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _newton_on_gradient(V: PotentialField, x: np.ndarray, scale: float) -> np.ndarray:
    """Step-limited Newton on grad V from every row of x at once.  The step
    solves H s = g through eigh, dropping components with
    |lambda| < 1e-12 max|lambda|; a row freezes once |grad V| < 1e-14 scale,
    and becomes NaN once its gradient, Hessian or step is not finite.  A row
    back within 1e-12 scale of its iterate two steps earlier is caught in a
    2-cycle of clipped steps, and its step limit is halved.  The live rows
    carry their iterates, step limits and last two iterates packed, in row
    order; a row's end point is written out when it freezes or the steps
    run out."""
    x = np.asarray(x, dtype=float)  # the iterates of the live rows
    out = np.empty_like(x)
    rows = np.arange(x.shape[0])
    stop = 1e-14 * max(1.0, scale)
    longest = np.full(x.shape[0], NEWTON_STEP * scale)
    back1 = np.full_like(x, np.nan)  # the iterates one and two steps earlier
    back2 = np.full_like(x, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_ITERATIONS):
            if rows.size == 0:
                break
            g = V.gradients(x)
            H = V.hessians(x)
            gnorm = _row_norms(g)
            bad = ~(np.isfinite(gnorm) & np.all(np.isfinite(H), axis=(1, 2)))
            move = ~bad & (gnorm >= stop)
            if not move.all():
                out[rows[~move]] = x[~move]
                if bad.any():
                    out[rows[bad]] = np.nan
                rows, x, g, H = rows[move], x[move], g[move], H[move]
                longest, back1, back2 = longest[move], back1[move], back2[move]
            lam, vec = np.linalg.eigh(H)
            coef = np.einsum("mji,mj->mi", vec, g)
            small = np.abs(lam) < 1e-12 * np.max(np.abs(lam), axis=1, keepdims=True)
            step = np.einsum("mij,mj->mi", vec, np.where(small, 0.0, coef / lam))
            cycled = _row_norms(x - back2) <= 1e-12 * scale
            if cycled.any():
                longest[cycled] *= 0.5
            back2, back1 = back1, x
            # a non-finite step turns its row NaN
            length = _row_norms(step)
            x = x - step * (longest / np.maximum(length, longest))[:, None]
    out[rows] = x
    return out


def predict_concentration(
    V: PotentialField,
    box: Sequence[Tuple[float, float]],
    eps: float,
    gs: GroundState,
    n_starts: int = 80,
    seed: int = 0,
) -> List[CriticalPoint]:
    """Locate critical points of V in the box and report the reduced-energy
    value of each, with the gradient-bound proxy at scale eps once per
    critical set.

    n_starts uniform starts in the box run one batched Newton iteration on
    grad V with the exact Hessian, each step limited to NEWTON_STEP times
    the box scale, for at most NEWTON_ITERATIONS steps.  Points inside the
    box with |grad V| <= GRAD_TOL are kept, one per DEDUPE_DIST * scale:
    the first in start order of each cluster.  V, the Hessian eigenvalues,
    the nullity, the kind and h = C1 (1 + V)^(3 - n/2) of every kept point
    come from one pass over all of them; a point with 1 + V <= 0 raises
    ValueError.

    A nondegenerate point is its own critical set.  Degenerate points
    (critical manifolds) are returned as sampled; those with the same
    Hessian nullity and V equal to 1e-10 relative form one set, since V is
    constant on a connected critical manifold.  The proxy is computed at
    the first point of each set in the returned (h-sorted) order, every
    set on one radial rule (_radial_rule).
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
    gnorm = _row_norms(V.gradients(x))
    x, gnorm = x[gnorm <= GRAD_TOL], gnorm[gnorm <= GRAD_TOL]
    # greedy in start order: a point is kept unless an earlier kept point
    # lies within DEDUPE_DIST * scale of it.  Distance is symmetric, so
    # keeping the first remaining point and dropping every point near it,
    # until none remains, keeps the same points
    found: List[int] = []
    left = np.arange(len(x))
    while left.size:
        i = left[0]
        found.append(i)
        left = left[_row_norms(x[left] - x[i]) >= DEDUPE_DIST * scale]
    x, gnorm = x[found], gnorm[found]

    # classify every kept point at once
    v_values = np.asarray(V.evaluate(x), dtype=float)
    eigs = np.linalg.eigvalsh(V.hessians(x))
    h_scale = np.maximum(np.max(np.abs(eigs), axis=1), 1e-30)
    nullity = np.sum(np.abs(eigs) < 1e-6 * h_scale[:, None], axis=1)
    kinds = np.where(nullity > 0, "degenerate",
                     np.where(np.all(eigs > 0.0, axis=1), "minimum",
                              np.where(np.all(eigs < 0.0, axis=1), "maximum", "saddle")))
    if np.any(1.0 + v_values <= 0.0):
        raise ValueError("1 + V must be positive at the evaluation point")
    c1, power = leading_coefficient(gs), 3.0 - gs.dim / 2.0
    points = [  # (critical point, Hessian nullity)
        (CriticalPoint(location=x_i, v_value=v_i, h_value=c1 * (1.0 + v_i) ** power,
                       grad_norm=g_i, kind=str(kind), hessian_eigenvalues=eigs_i), int(null))
        for x_i, v_i, g_i, kind, eigs_i, null in zip(
            x, v_values.tolist(), gnorm.tolist(), kinds, eigs, nullity)
    ]
    points.sort(key=lambda p: p[0].h_value)

    sets = []  # (first point, nullity) of each degenerate set
    rules = _radial_rule(gs, V)
    for cp, null in points:
        if null:
            if any(n == null and abs(rep.v_value - cp.v_value)
                   <= 1e-10 * max(1.0, abs(rep.v_value)) for rep, n in sets):
                continue
            sets.append((cp, null))
        cp.gradient_proxy = _soliton_row(gs, V, eps, cp.location / eps, rules, c1).gradient_proxy
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
    """One soliton_row per eps of a decreasing list, all on one radial rule
    (_radial_rule), and the scaling exponents of the proxy and of
    gamma_half; an exponent whose values include a zero (for a constant V
    all of them are) is None.  A slope needs two eps, so a shorter list
    raises ValueError."""
    xi = np.asarray(xi, dtype=float)
    eps_arr = list(eps_list)
    if len(eps_arr) < 2:
        raise ValueError("eps list needs at least two values for the scaling fits")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps list must be strictly decreasing")
    rules, c1 = _radial_rule(gs, V), leading_coefficient(gs)
    rows = [_soliton_row(gs, V, eps, xi, rules, c1) for eps in eps_arr]
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
