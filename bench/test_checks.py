"""Each output check of the benchmark passes on correct data and fails on a
small, deliberate defect.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402

# lambda_{k,0}, k = 0..8, of `hartree-lab spectrum --n 3`
LAMBDA0_N3 = [-2.7985549242416052, -1.5961615588371316e-09, 0.62157897736067591,
              0.80624484196706925, 0.87791769608876957, 0.92126462925028096,
              0.95717915687712207, 0.99177926295863195, 1.0270551854820953]


@pytest.fixture(scope="module")
def cache_text():
    from hartree_lab.ground_state import format_cache, solve_ground_state
    from hartree_lab.radial_core import build_grid

    return format_cache(solve_ground_state(build_grid(3, 30.0, 160)))


def scaled_cache(text, factor):
    lines = text.splitlines()
    rows = [ln.split() for ln in lines[1:]]
    return "\n".join([lines[0]] + [f"{r} {float(v) * factor!r}" for r, v in rows]) + "\n"


def test_energy_integrals_of_a_gaussian():
    n, R, N = 3, 12.0, 120
    r = checks.LegendreRule(R, N).r
    ints = checks.energy_integrals(n, R, r, np.exp(-r**2))
    area = checks.sphere_area(n)
    # int_0^inf r^m e^(-2 r^2) dr = Gamma((m+1)/2) / (2 * 2^((m+1)/2))
    moment = lambda m: math.gamma((m + 1) / 2) / (2.0 * 2.0 ** ((m + 1) / 2))  # noqa: E731
    assert ints["M"] == pytest.approx(area * moment(n - 1), rel=1e-12)
    assert ints["K"] == pytest.approx(area * 4.0 * moment(n + 1), rel=1e-12)


def test_virial_passes_on_a_ground_state_and_fails_when_scaled(cache_text):
    assert checks.check_virial(3, cache_text) == []
    failures = checks.check_virial(3, scaled_cache(cache_text, 1.01))
    assert any("nehari" in f for f in failures)
    assert any("pohozaev" in f for f in failures)


def test_sector_ordering():
    assert checks.check_sector_ordering(3, LAMBDA0_N3) == []
    swapped = list(LAMBDA0_N3)
    swapped[4], swapped[5] = swapped[5], swapped[4]
    assert checks.check_sector_ordering(3, swapped)
    negative = list(LAMBDA0_N3)
    negative[2] = -1e-3
    assert any("not positive" in f for f in checks.check_sector_ordering(3, negative))


def test_gap_drift():
    gap = checks.k0_gap(-2.7985549242416052, 0.40536253402244693)
    assert gap == pytest.approx(0.40536253402244693)
    assert checks.check_gap_drift(3, gap, gap * 1.01) == []
    assert checks.check_gap_drift(3, gap, gap * 1.06)


def test_identity_defects():
    assert checks.check_identities(3, {"LU": 1.3e-11, "LrU": 2.0e-8}) == []
    assert checks.check_identities(3, {"LU": 1.3e-11, "LrU": 2.0e-4})


def test_multipole_decay():
    curve = {k: 10.0 ** -(k + 2) for k in range(9)}
    assert checks.check_multipole(curve) == []
    curve[7] = curve[6]
    assert checks.check_multipole(curve)


def test_rescaled_profile_and_method_agreement():
    n, R, N, mu = 3, 20.0, 160, 0.5
    r = checks.LegendreRule(R, N).r
    u0 = np.exp(-0.5 * r**2)
    u_mu = (1.0 + mu) * np.exp(-0.5 * (1.0 + mu) * r**2)
    assert checks.check_rescaled(n, R, u0, u_mu, mu) == []
    assert checks.check_rescaled(n, R, u0, 1.0001 * u_mu, mu)
    assert checks.check_methods_agree(n, R, u0, u0) == []
    assert checks.check_methods_agree(n, R, u0 * (1.0 + 1e-5 * r), u0)


def test_critical_point_locations():
    expected = checks.double_well_points(3)
    assert checks.check_points("dw", list(expected), expected) == []
    shifted = [(loc + 1e-4, kind) for loc, kind in expected]
    assert checks.check_points("dw", shifted, expected)
    wrong_kind = [(expected[0][0], "saddle")] + list(expected[1:])
    assert checks.check_points("dw", wrong_kind, expected)
    assert checks.check_points("dw", list(expected[:2]), expected)


def test_ring_points():
    angles = np.linspace(0.0, 2.0 * math.pi, 7)
    circle = [(np.array([math.cos(t), math.sin(t), 0.0]), "degenerate") for t in angles]
    found = circle + [(np.zeros(3), "saddle")]
    assert checks.check_ring("ring", found) == []
    assert checks.check_ring("ring", [(np.array([1.01, 0.0, 0.0]), "degenerate")])
    assert checks.check_ring("ring", [(np.array([1.0, 0.0, 0.0]), "minimum")])
    assert checks.check_ring("ring", [])


def test_constant_potential_energy():
    q, mu = 58.7323628931, 0.3
    exact = 0.25 * q * (1.0 + mu) ** 1.5
    assert checks.check_constant_energy(3, exact, q, mu) == []
    assert checks.check_constant_energy(3, exact * (1.0 + 1e-5), q, mu)


def test_proxy_exponents():
    eps = [0.2, 0.1, 0.05, 0.025]
    quadratic = [3.0 * e**2 for e in eps]
    linear = [3.0 * e for e in eps]
    assert checks.check_exponent("c", eps, quadratic, checks.CRITICAL_EXPONENT) == []
    assert checks.check_exponent("c", eps, linear, checks.CRITICAL_EXPONENT)
    assert checks.check_exponent("nc", eps, linear, checks.NONCRITICAL_EXPONENT) == []
    assert checks.check_exponent("nc", eps, quadratic, checks.NONCRITICAL_EXPONENT)
