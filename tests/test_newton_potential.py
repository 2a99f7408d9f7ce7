"""Radial Newton potential, sector kernels, multipole transform, 3D oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_lab import newton_potential as npot
from hartree_lab import radial_core as rc

from _reference import (
    kernel_K,
    kernel_addition_series,
    newton_potential_midpoint,
    potential_derivative_from_callable,
    potential_radial_derivative,
    radial_potential_from_callable,
    real_sph_harm_scipy,
    sector_kernel_value,
)


def test_kernel_K_values():
    r = 1.7
    assert kernel_K(3, r, r) == 0.0
    assert kernel_K(3, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert kernel_K(5, 2.0, 1.0) == pytest.approx(7.0 / 24.0, rel=1e-15)


def test_midpoint_oracle_corrects_a_shared_corner():
    # the centre of the (-1.7, 1.7)^3 box on 64^3 cells is a corner of
    # eight cells; it takes the singular-cell correction, while the plain
    # sum would miss (I2 * 1_B)(0) = 1/2 for the unit ball B by 1.44e-3
    def ball(p):
        return (np.linalg.norm(p, axis=1) < 1.0).astype(float)

    (centre,) = newton_potential_midpoint(ball, [(-1.7, 1.7)] * 3, 64, [[0.0, 0.0, 0.0]])
    assert abs(centre - 0.5) <= 1.2e-3


def test_kernel_K_errors():
    with pytest.raises(ValueError):
        kernel_K(3, 1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_K(3, -1.0, 0.5)


def test_sector_kernel_values():
    assert sector_kernel_value(3, 0, 2.0, 1.0) == pytest.approx(0.5)
    assert sector_kernel_value(3, 1, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert sector_kernel_value(5, 2, 2.0, 1.0) == pytest.approx(1.0 / 224.0)
    with pytest.raises(ValueError):
        sector_kernel_value(3, 0, -1.0, 1.0)
    with pytest.raises(ValueError):
        sector_kernel_value(3, -1, 1.0, 1.0)


def test_sector_kernel_invariants():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = rng.choice((3, 4, 5))
        k = int(rng.integers(0, 9))
        r, rho, lam = np.exp(rng.uniform(-2, 3, size=3))
        g1 = sector_kernel_value(n, k, r, rho)
        # symmetry
        assert g1 == pytest.approx(sector_kernel_value(n, k, rho, r), rel=1e-14)
        # homogeneity of degree -(n-2)
        scaled = sector_kernel_value(n, k, lam * r, lam * rho)
        assert scaled == pytest.approx(lam ** (-(n - 2)) * g1, rel=1e-12)
        # degree-1 kernel dominates higher degrees
        if k >= 2:
            assert sector_kernel_value(n, 1, r, rho) > g1


def test_radial_potential_zero():
    g = rc.build_grid(3, 30.0, 128)
    out = npot.radial_newton_potential(g, rc.RadialFunction(g, np.zeros(g.size)))
    assert np.all(out.values == 0.0)


def test_radial_potential_unit_ball():
    # classical uniform-ball values: 1/2 at the center, 1/(3r) outside
    vals = radial_potential_from_callable(
        3,
        lambda r: (r < 1.0).astype(float),
        [0.0, 1.5, 2.0, 3.0],
        breakpoints=[1.0],
        r_cut=30.0,
    )
    expect = np.array([0.5, 1.0 / 4.5, 1.0 / 6.0, 1.0 / 9.0])
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_radial_potential_matrix_path_matches_quadrature():
    g = rc.build_grid(3, 30.0, 300)
    f = rc.RadialFunction(g, np.exp(-g.nodes**2))
    got = npot.radial_newton_potential(g, f)
    idx = [3, 60, 150, 280]
    ref = radial_potential_from_callable(
        3, lambda r: np.exp(-(r**2)), g.nodes[idx], r_cut=30.0
    )
    assert np.max(np.abs(got.values[idx] - ref)) < 1e-12


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("k", (4, 8))
def test_kernel_matrix_against_quad(n, k):
    # the collocated Robin solve against adaptive quadrature of
    # int_0^rmax G_k(r, rho) f(rho) rho^(n-1) d rho at every node
    g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], 400)
    got = npot.kernel_matrix(g, k) @ (np.exp(-g.nodes) * (1.0 + g.nodes))

    def f(s):
        return math.exp(-s) * (1.0 + s)

    def ref(r):
        # r^(2-n) int_0^r (s/r)^k s^(n-1) f + int_r^R (r/s)^k s f, with both
        # integrands scaled to the size of the result; the far one, steep
        # for small r, is taken in t = log s
        near = quad(lambda s: (s / r) ** (k + n - 2) * s * f(s), 0.0, r,
                    epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        far = quad(lambda t: (r / math.exp(t)) ** k * math.exp(2.0 * t) * f(math.exp(t)),
                   math.log(r), math.log(g.r_max), epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        return (near + far) / (2 * k + n - 2)

    expect = np.array([ref(r) for r in g.nodes])
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def test_radial_potential_requires_finite():
    g = rc.build_grid(3, 30.0, 64)
    bad = rc.RadialFunction(g, np.ones(g.size))
    bad.values[3] = np.nan
    with pytest.raises(ValueError):
        npot.radial_newton_potential(g, bad)


def test_k0_sector_matches_radial_reduction():
    # the k = 0 multipole kernel is the radial reduction, with the constant
    # harmonic Y_0 = |S^{n-1}|^{-1/2} folded consistently
    g = rc.build_grid(3, 30.0, 200)
    f0 = np.exp(-g.nodes) * (1.0 + g.nodes)
    area = rc.sphere_area(3)
    (_, _, g0), = npot.multipole_potential(
        g, [(0, 1, rc.RadialFunction(g, f0))]
    )
    plain = npot.radial_newton_potential(
        g, rc.RadialFunction(g, f0 / math.sqrt(area))
    )
    assert np.max(
        np.abs(g0.values / math.sqrt(area) - plain.values)
    ) < 1e-10 * np.max(np.abs(plain.values))


def test_potential_derivative_identities():
    g = rc.build_grid(3, 30.0, 300)
    u2 = rc.RadialFunction(g, np.exp(-2.0 * g.nodes))
    dv = potential_radial_derivative(g, u2)
    # finite differences of the potential itself
    v = npot.radial_newton_potential(g, u2)
    h = 1e-4
    mid = g.nodes[50:250:20]
    fd = (v.evaluate(mid + h) - v.evaluate(mid - h)) / (2.0 * h)
    direct = dv.evaluate(mid)
    assert np.max(np.abs(fd - direct)) < 1e-7

    zero = potential_radial_derivative(g, rc.RadialFunction(g, np.zeros(g.size)))
    assert np.all(zero.values == 0.0)

    with pytest.raises(ValueError):
        potential_radial_derivative(g, rc.RadialFunction(g, -np.ones(g.size)))


def test_potential_derivative_unit_ball_value():
    # -(1/r^2) int_0^r rho^2 1_{rho<1} d rho = -1/12 at r = 2
    vals = potential_derivative_from_callable(
        3, lambda r: (r < 1.0).astype(float), [2.0], breakpoints=[1.0]
    )
    assert vals[0] == pytest.approx(-1.0 / 12.0, rel=1e-12)


def test_harmonic_outside_support():
    # potential of a smooth bump supported in B_a solves Laplace for r > a
    g = rc.build_grid(3, 30.0, 300)
    a = 4.0

    def bump(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < a
        out[inside] = np.exp(-1.0 / (1.0 - (r[inside] / a) ** 2))
        return out

    f = rc.RadialFunction(g, bump(g.nodes))
    v = npot.radial_newton_potential(g, f)
    d = rc.get_discretization(g)
    lap = d.d2("free") @ v.values + (2.0 / g.nodes) * (d.d1("free") @ v.values)
    # skip the last node cluster: differentiating the algebraically decaying
    # potential right at the open end is pure interpolation noise
    outside = (g.nodes > a + 0.5) & (g.nodes < g.r_max - 1.0)
    scale = np.max(np.abs(v.values))
    assert np.max(np.abs(lap[outside])) < 1e-6 * scale


def test_multipole_zero_and_mismatch():
    g = rc.build_grid(3, 30.0, 96)
    out = npot.multipole_potential(g, [(2, 1, rc.RadialFunction(g, np.zeros(g.size)))])
    assert np.all(out[0][2].values == 0.0)
    g2 = rc.build_grid(3, 25.0, 96)
    with pytest.raises(ValueError):
        npot.multipole_potential(g, [(0, 1, rc.RadialFunction(g2, np.zeros(g2.size)))])


def test_sector_projection_and_expansion_in_one_pass():
    # one cloud and one product give the per-radius projections, and one
    # interpolation row gives every g_km(|x|): zero beyond r_max, and the
    # g_km must share one grid
    g = rc.build_grid(3, 6.0, 40)
    a = np.array([0.3, -0.2, 0.1])

    def density(pts):
        return np.exp(-np.sum((pts - a) ** 2, axis=1))

    coeffs = npot.project_sectors(density, g, 3)
    dirs, w = rc.sphere_product_rule(3, 12)
    theta, phi = np.arccos(dirs[:, 2]), np.arctan2(dirs[:, 1], dirs[:, 0])
    for (k, m), vals in coeffs.items():
        y = npot.real_sph_harm(k, m, theta, phi)
        ref = [np.dot(w, density(r * dirs) * y) for r in g.nodes]
        assert np.allclose(vals, ref, rtol=1e-13, atol=1e-15), (k, m)
    sectors = [(k, m, rc.RadialFunction(g, vals)) for (k, m), vals in coeffs.items()]
    x = np.array([0.6, -1.1, 2.0])
    r = np.linalg.norm(x)
    ref = [float(f.evaluate(r)) * float(npot.real_sph_harm(k, m, math.acos(x[2] / r),
                                                           math.atan2(x[1], x[0])))
           for k, m, f in sectors]
    assert np.allclose(npot.expansion_terms(sectors, x), ref, rtol=1e-13, atol=1e-16)
    assert npot.expansion_terms(sectors, np.array([0.0, 0.0, 7.0])) == [0.0] * len(sectors)
    g2 = rc.build_grid(3, 5.0, 40)
    with pytest.raises(ValueError, match="share one grid"):
        npot.expansion_terms(sectors + [(0, 0, rc.RadialFunction(g2, g2.nodes))], x)


def test_sector_transform_is_sector_diagonal():
    # the kernel acts degree by degree: each input coefficient maps to the
    # same (k, m) label and zero inputs stay exactly zero
    g = rc.build_grid(3, 30.0, 96)
    f = np.exp(-g.nodes)
    sectors = [(1, 1, rc.RadialFunction(g, f)), (4, -2, rc.RadialFunction(g, 0.0 * f))]
    out = npot.multipole_potential(g, sectors)
    assert [(k, m) for k, m, _ in out] == [(1, 1), (4, -2)]
    assert np.all(out[1][2].values == 0.0)
    assert np.any(out[0][2].values != 0.0)


def test_multipole_experiment_evaluates_each_sector_once_per_point(monkeypatch):
    # every Y_km is evaluated once per point, and all g_km at once through
    # one interpolation row per point; the errors for each K_max are running
    # sums over the sectors, not a new expansion per K_max
    counts = {"g": 0, "Y": 0}
    basis_eval, sph = rc.Discretization.basis_eval, npot.real_sph_harm

    def counted_g(self, targets):
        counts["g"] += np.size(targets)
        return basis_eval(self, targets)

    def counted_Y(k, m, theta, phi):
        counts["Y"] += 1
        return sph(k, m, theta, phi)

    monkeypatch.setattr(rc.Discretization, "basis_eval", counted_g)
    monkeypatch.setattr(npot, "real_sph_harm", counted_Y)
    k_max = 3
    rows = npot.multipole_completeness_experiment(k_max=k_max, n_radial=96, oracle_shape=24)
    sectors = (k_max + 1) ** 2
    assert counts == {"g": len(rows), "Y": (len(rows) + 1) * sectors}
    assert all(sorted(row["errors"]) == list(range(k_max + 1)) for row in rows)


def test_real_spherical_harmonics_orthonormal():
    dirs, w = rc.sphere_product_rule(3, 24)
    theta = np.arccos(np.clip(dirs[:, 2], -1, 1))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    basis = {}
    for k in range(4):
        for m in range(-k, k + 1):
            basis[(k, m)] = npot.real_sph_harm(k, m, theta, phi)
    keys = list(basis)
    rng = np.random.default_rng(3)
    for _ in range(30):
        i, j = rng.integers(0, len(keys), size=2)
        val = float(np.dot(w, basis[keys[i]] * basis[keys[j]]))
        assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_real_sph_harm_matches_scipy():
    # the recurrence against scipy's sph_harm_y, at random angles and both poles
    rng = np.random.default_rng(11)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 500), [0.0, math.pi]])
    phi = np.concatenate([rng.uniform(-math.pi, math.pi, 500), [0.7, -2.1]])
    for k in range(13):
        for m in range(-k, k + 1):
            np.testing.assert_allclose(npot.real_sph_harm(k, m, theta, phi),
                                       real_sph_harm_scipy(k, m, theta, phi),
                                       rtol=0.0, atol=1e-13, err_msg=f"k={k}, m={m}")
    with pytest.raises(ValueError):
        npot.real_sph_harm(2, 3, 0.5, 0.5)


def test_oracle_guards_and_translation():
    dens = npot.sample_density(
        lambda p: np.exp(-np.sum(p**2, axis=1)), [(-3.0, 3.0)] * 3, (32, 32, 32)
    )
    with pytest.raises(ValueError):
        npot.direct_newton_potential_nd(4, dens, [0, 0, 0])
    with pytest.raises(ValueError):
        npot.direct_newton_potential_nd(3, dens, [5.0, 0, 0])
    with pytest.raises(ValueError):
        npot.sample_density(lambda p: p[:, 0], [(-1, 1)] * 3, (80, 16, 16))
    with pytest.raises(ValueError, match="quadrature node"):  # odd rules hold 0
        npot.direct_newton_potential_nd(
            3, npot.sample_density(lambda p: p[:, 0], [(-1, 1)] * 3, (15, 15, 15)),
            [0.0, 0.0, 0.0])
    assert npot.direct_newton_potential_nd(
        3,
        npot.sample_density(lambda p: 0.0 * p[:, 0], [(-1, 1)] * 3, (16, 16, 16)),
        [0.1, 0.0, 0.0],
    ) == 0.0
    # translating density, box and evaluation point together leaves the
    # quadrature sum unchanged
    a = np.array([0.4, -0.2, 0.1])
    base = npot.direct_newton_potential_nd(3, dens, [0.5, 0.0, 0.0])
    shifted = npot.sample_density(
        lambda p: np.exp(-np.sum((p - a) ** 2, axis=1)),
        [(-3.0 + a[0], 3.0 + a[0]), (-3.0 + a[1], 3.0 + a[1]), (-3.0 + a[2], 3.0 + a[2])],
        (32, 32, 32),
    )
    moved = npot.direct_newton_potential_nd(3, shifted, np.array([0.5, 0, 0]) + a)
    assert moved == pytest.approx(base, rel=1e-12)


def test_gauss_oracle_matches_radial_quadrature():
    dens = npot.sample_density(
        lambda p: np.exp(-np.sum(p**2, axis=1)),
        [(-5.0, 5.0)] * 3,
        (56, 56, 56),
    )
    # evaluation point far enough out that the (unhandled) kernel
    # singularity sits where the density is ~1e-8
    got = npot.direct_newton_potential_nd(3, dens, [4.2, 0.0, 0.0])
    ref = radial_potential_from_callable(
        3, lambda r: np.exp(-(r**2)), [4.2], r_cut=40.0
    )[0]
    assert got == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_multipole_expansion_of_kernel(n):
    # partial sums of the zonal expansion reproduce |x-y|^(2-n)
    r, rho, c = 1.0, 0.3, 0.77
    exact = (r**2 + rho**2 - 2 * r * rho * c) ** (-(n - 2) / 2.0)
    series = kernel_addition_series(n, 40, r, rho, c)
    assert series == pytest.approx(exact, rel=1e-12)


def test_multipole_u_uprime_sector_vs_oracle(gs3):
    # the potential of U U' Y_1m matches the 3D oracle of U d_x1 U
    gs = gs3
    g = gs.grid
    from hartree_lab.ground_state import profile_derivative

    up = profile_derivative(gs)
    uup = rc.RadialFunction(g, gs.profile.values * up)
    (_, _, g1), = npot.multipole_potential(g, [(1, 0, uup)])

    def density(pts):
        pts = np.atleast_2d(pts)
        rr = np.linalg.norm(pts, axis=1)
        uu = gs.profile.evaluate(rr)
        du = (gs.profile.evaluate(rr + 1e-5) - gs.profile.evaluate(rr - 1e-5)) / 2e-5
        # U dU/dx3 = U U'(r) * (x3/r); Y_10 is proportional to x3/r
        return uu * du * pts[:, 2] / rr

    oracle_grid = npot.sample_density(density, [(-9.0, 9.0)] * 3, (48, 48, 48))
    point = np.array([1.1, 0.4, 6.5])
    oracle = npot.direct_newton_potential_nd(3, oracle_grid, point)
    theta = math.acos(point[2] / np.linalg.norm(point))
    # density = U U' * sqrt(4 pi / 3) Y_10, so the sector coefficient is
    # that constant times the radial part
    coeff = math.sqrt(4.0 * math.pi / 3.0)
    expansion = (
        coeff
        * float(g1.evaluate(np.linalg.norm(point)))
        * float(npot.real_sph_harm(1, 0, theta, 0.0))
    )
    assert expansion == pytest.approx(oracle, rel=1e-4)
