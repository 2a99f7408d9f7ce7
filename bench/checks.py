"""Output checks of the benchmark, computed apart from the program.

Every quantity a check compares is either recomputed here with numpy's
Legendre module (never the program's barycentric or moment machinery) or
is a property the method must have.  Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np
from numpy.polynomial import legendre as leg

NEHARI_POHOZAEV_TOL = 1e-8
IDENTITY_TOL = 1e-4
GAP_DRIFT_TOL = 0.05
SOLITON_TOL = 1e-6
LOCATION_TOL = 1e-6
CONSTANT_V_TOL = 1e-6
CRITICAL_EXPONENT = (1.9, 2.1)
NONCRITICAL_EXPONENT = (0.9, 1.1)


def sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# Legendre quadrature on (0, R), independent of the program
# ---------------------------------------------------------------------------

class LegendreRule:
    """Gauss-Legendre nodes on (0, R) with interpolation, differentiation and
    antiderivatives of the degree N-1 interpolant through the node values."""

    def __init__(self, r_max: float, size: int):
        x, w = leg.leggauss(size)
        self.r_max = r_max
        self.x = x
        self.r = 0.5 * r_max * (x + 1.0)
        self.w = 0.5 * r_max * w  # weights for int f dr, no r^(n-1)
        # discrete Legendre transform c_k = (2k+1)/2 sum_i w_i P_k(x_i) f_i,
        # exact for the degree N-1 interpolant
        self._transform = ((np.arange(size) + 0.5)[:, None]
                           * leg.legvander(x, size - 1).T * w[None, :])

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self._transform @ values

    def derivative(self, values: np.ndarray) -> np.ndarray:
        c = leg.legder(self.coefficients(values)) * (2.0 / self.r_max)
        return leg.legval(self.x, c)

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """int_0^r_i f(rho) d rho at every node."""
        c = leg.legint(self.coefficients(values), lbnd=-1.0) * (0.5 * self.r_max)
        return leg.legval(self.x, c)

    def interpolate(self, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return leg.legval(2.0 * np.asarray(targets) / self.r_max - 1.0, self.coefficients(values))


def energy_integrals(n: int, r_max: float, r: np.ndarray, u: np.ndarray) -> Dict[str, float]:
    """K = int |grad U|^2, M = int U^2 and Q = int (I2*U^2) U^2 over R^n for a
    radial profile sampled at the Gauss-Legendre nodes of (0, r_max)."""
    rule = LegendreRule(r_max, u.size)
    if not np.allclose(rule.r, r, rtol=0.0, atol=1e-12 * r_max):
        raise ValueError("profile is not sampled at the Gauss-Legendre nodes")
    area = sphere_area(n)
    jac = rule.r ** (n - 1)
    du = rule.derivative(u)
    f = u**2
    # Q = |S| iint f(r) f(rho) r^(n-1) rho^(n-1) / ((n-2) max(r,rho)^(n-2)),
    # folded onto rho < r and doubled
    inner = rule.cumulative(jac * f)
    return {
        "K": area * float(np.dot(rule.w, jac * du**2)),
        "M": area * float(np.dot(rule.w, jac * f)),
        "Q": 2.0 * area / (n - 2) * float(np.dot(rule.w, rule.r * f * inner)),
    }


def virial_defects(n: int, K: float, M: float, Q: float) -> Dict[str, float]:
    """Relative defects of Nehari K + M = Q and Pohozaev
    (n-2) K + n M = (n+2) Q / 2."""
    return {
        "nehari": abs(K + M - Q) / abs(Q),
        "pohozaev": abs((n - 2) * K + n * M - 0.5 * (n + 2) * Q) / abs(0.5 * (n + 2) * Q),
    }


def parse_cache(text: str):
    """(header fields, r, values) of a ground-state cache file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(tok.split("=", 1) for tok in lines[0].split())
    rows = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    return header, rows[:, 0], rows[:, 1]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_virial(n: int, cache_text: str) -> List[str]:
    header, r, u = parse_cache(cache_text)
    ints = energy_integrals(n, float(header["r_max"]), r, u)
    out = []
    for name, value in virial_defects(n, ints["K"], ints["M"], ints["Q"]).items():
        if not value < NEHARI_POHOZAEV_TOL:
            out.append(f"n={n}: {name} defect {value:.3e} >= {NEHARI_POHOZAEV_TOL:.0e}")
    return out


def check_sector_ordering(n: int, lambda0: Sequence[float]) -> List[str]:
    """lambda_{k,0} strictly increasing in k, and positive for k >= 2."""
    out = []
    for k in range(1, len(lambda0)):
        if not lambda0[k] > lambda0[k - 1]:
            out.append(f"n={n}: lambda_{k},0 = {lambda0[k]:.6e} not above lambda_{k - 1},0")
    for k in range(2, len(lambda0)):
        if not lambda0[k] > 0.0:
            out.append(f"n={n}: lambda_{k},0 = {lambda0[k]:.6e} not positive")
    return out


def k0_gap(lambda0: float, lambda1: float) -> float:
    return min(abs(lambda0), abs(lambda1))


def check_gap_drift(n: int, gap_full: float, gap_half: float) -> List[str]:
    drift = abs(gap_full - gap_half) / abs(gap_full)
    if not drift < GAP_DRIFT_TOL:
        return [f"n={n}: k=0 gap drifts {drift:.3e} between grid sizes"]
    return []


def check_identities(n: int, defects: Dict[str, float]) -> List[str]:
    return [
        f"n={n}: identity {name} defect {value:.3e}"
        for name, value in defects.items()
        if not value < IDENTITY_TOL
    ]


def check_multipole(worst_by_kmax: Dict[int, float]) -> List[str]:
    curve = [worst_by_kmax[k] for k in sorted(worst_by_kmax)]
    if len(curve) < 2:
        return ["multipole table has fewer than two truncation degrees"]
    return [
        f"multipole error does not decrease from K_max={k} to {k + 1}"
        for k, (a, b) in enumerate(zip(curve, curve[1:]))
        if not b < a
    ]


# ---------------------------------------------------------------------------
# solitons
# ---------------------------------------------------------------------------

def profile_difference(n: int, r_max: float, u: np.ndarray, reference: np.ndarray,
                       keep=None) -> float:
    """Relative L2(R^n) distance of two profiles sampled at the Gauss-Legendre
    nodes of (0, r_max), optionally over a subset of the nodes."""
    rule = LegendreRule(r_max, u.size)
    w = rule.w * rule.r ** (n - 1)
    if keep is not None:
        w, u, reference = w[keep], u[keep], reference[keep]
    return math.sqrt(float(np.dot(w, (u - reference) ** 2)) / float(np.dot(w, reference**2)))


def check_rescaled(n: int, r_max: float, u0: np.ndarray, u_mu: np.ndarray,
                   mu: float) -> List[str]:
    """u_mu against (1+mu) U0(sqrt(1+mu) r), U0 interpolated here.  Compared
    on the nodes whose rescaled radius stays in the inner three quarters of
    the domain, clear of the truncation boundary layer."""
    rule = LegendreRule(r_max, u0.size)
    scaled_r = math.sqrt(1.0 + mu) * rule.r
    keep = scaled_r <= 0.75 * r_max
    expect = np.zeros_like(u0)
    expect[keep] = (1.0 + mu) * rule.interpolate(u0, scaled_r[keep])
    diff = profile_difference(n, r_max, u_mu, expect, keep)
    if not diff < SOLITON_TOL:
        return [f"n={n} mu={mu}: profile differs from the rescaled U0 by {diff:.3e}"]
    return []


def check_methods_agree(n: int, r_max: float, shooting: np.ndarray,
                        fixed_point: np.ndarray) -> List[str]:
    diff = profile_difference(n, r_max, shooting, fixed_point)
    if not diff < SOLITON_TOL:
        return [f"n={n}: shooting and fixed point differ by {diff:.3e}"]
    return []


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def check_points(label: str, found, expected) -> List[str]:
    """found: [(location, kind)]; expected: [(location, kind)], matched one
    to one by position within LOCATION_TOL."""
    if len(found) != len(expected):
        return [f"{label}: {len(found)} critical points, expected {len(expected)}"]
    out = []
    for loc, kind in expected:
        dists = [float(np.linalg.norm(np.asarray(f) - loc)) for f, _ in found]
        j = int(np.argmin(dists))
        if dists[j] > LOCATION_TOL:
            out.append(f"{label}: no critical point within {LOCATION_TOL:.0e} of {loc}")
        elif found[j][1] != kind:
            out.append(f"{label}: point {loc} is {found[j][1]}, expected {kind}")
    return out


def double_well_points(n: int):
    e1 = np.eye(n)[0]
    return [(-e1, "minimum"), (np.zeros(n), "saddle"), (e1, "minimum")]


def check_ring(label: str, found, radius: float = 1.0) -> List[str]:
    """Points on the critical circle x1^2 + x2^2 = radius^2 (other
    coordinates 0) must be flagged degenerate; the origin is the one other
    critical point, a saddle."""
    if not found:
        return [f"{label}: no critical points"]
    out = []
    for loc, kind in found:
        loc = np.asarray(loc)
        if np.linalg.norm(loc) < LOCATION_TOL:
            if kind != "saddle":
                out.append(f"{label}: origin flagged {kind}")
            continue
        off = abs(math.hypot(loc[0], loc[1]) - radius) + float(np.linalg.norm(loc[2:]))
        if off > LOCATION_TOL:
            out.append(f"{label}: point {loc} is {off:.3e} off the circle")
        elif kind != "degenerate":
            out.append(f"{label}: circle point {loc} flagged {kind}")
    return out


def check_constant_energy(n: int, energy: float, q_integral: float, mu: float) -> List[str]:
    """f_eps(z_xi) for constant V = mu equals C1 (1+mu)^(3-n/2), C1 = Q/4."""
    lead = 0.25 * q_integral * (1.0 + mu) ** (3.0 - n / 2.0)
    rel = abs(energy - lead) / abs(lead)
    if not rel < CONSTANT_V_TOL:
        return [f"n={n}: constant-V soliton energy off by {rel:.3e}"]
    return []


def check_exponent(label: str, eps: Sequence[float], proxies: Sequence[float],
                   window) -> List[str]:
    """Slope of log proxy against log eps, fitted here over eps <= 0.1 (the
    largest eps of the CLI list is not yet in the asymptotic regime)."""
    eps = np.asarray(eps, dtype=float)
    small = eps <= 0.1
    exponent = float(np.polyfit(np.log(eps[small]), np.log(np.asarray(proxies)[small]), 1)[0])
    if not window[0] <= exponent <= window[1]:
        return [f"{label}: proxy exponent {exponent:.4f} outside {window}"]
    return []
