"""Radial Newton potential, sector kernels, multipole check and its
closed-form oracle, the 3D tensor oracle of tests/_reference.py."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hartree_lab import newton_potential as npot
from hartree_lab import radial_core as rc

from _reference import (
    direct_newton_potential_nd,
    free_pair,
    kernel_K,
    kernel_addition_series,
    kernel_robin_solve,
    multipole_sums_per_km,
    newton_potential_midpoint,
    potential_derivative_from_callable,
    potential_radial_derivative,
    radial_potential_from_callable,
    real_sph_harm_scipy,
    sample_density,
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
    got = npot.kernel_matrix(g, 0) @ np.exp(-g.nodes**2)
    idx = [3, 60, 150, 280]
    ref = radial_potential_from_callable(
        3, lambda r: np.exp(-(r**2)), g.nodes[idx], r_cut=30.0
    )
    assert np.max(np.abs(got[idx] - ref)) < 1e-12


def test_equal_grids_share_discretization_and_kernels():
    # grids hash and compare by (n, r_max, N), so two built apart share one
    # Discretization and one read-only G_0, the kernel that the solver, the
    # potential and sector 0 reuse; a grid with another N does not.  G_k,
    # k >= 1, is built on each call (the report builds G_1 once for the
    # zero-mode residual and sector 1): the same bits in a new read-only
    # matrix
    a, b = rc.build_grid(4, 25.0, 48), rc.build_grid(4, 25.0, 48)
    other = rc.build_grid(4, 25.0, 56)
    assert a is not b
    assert rc.get_discretization(a) is rc.get_discretization(b)
    G = npot.kernel_matrix(a, 0)
    assert npot.kernel_matrix(b, 0) is G and not G.flags.writeable
    for k in (1, 2):
        G = npot.kernel_matrix(a, k)
        again = npot.kernel_matrix(b, k)
        assert again is not G and np.array_equal(again, G)
        assert not G.flags.writeable and not again.flags.writeable
    assert rc.get_discretization(other) is not rc.get_discretization(a)
    assert npot.kernel_matrix(other, 2).shape == (56, 56)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_kernel_matrix_is_the_robin_solve_on_the_sector_laplacian(n):
    # a copy of the grid's one -Laplacian plus the centrifugal diagonal,
    # solved against a view of [I; 0]: the same bits as the Robin solve on
    # -Laplacian_k written out of place against an identity array, for
    # every sector of the certificate on the coarse grid (80), the multipole
    # grid (160), an odd N and the default (400)
    for N in (80, 160, 201, 400):
        g = rc.build_grid(n, rc.DEFAULT_R_MAX[n], N)
        for k in range(9):
            assert np.array_equal(npot.kernel_matrix(g, k), kernel_robin_solve(g, k)), (N, k)


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


def test_potential_derivative_identities():
    g = rc.build_grid(3, 30.0, 300)
    u2 = rc.RadialFunction(g, np.exp(-2.0 * g.nodes))
    dv = potential_radial_derivative(g, u2)
    # finite differences of the potential itself
    v = rc.RadialFunction(g, npot.kernel_matrix(g, 0) @ u2.values)
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

    v = npot.kernel_matrix(g, 0) @ bump(g.nodes)
    D1, D2 = free_pair(g)
    lap = D2 @ v + (2.0 / g.nodes) * (D1 @ v)
    # skip the last node cluster: differentiating the algebraically decaying
    # potential right at the open end is pure interpolation noise
    outside = (g.nodes > a + 0.5) & (g.nodes < g.r_max - 1.0)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(lap[outside])) < 1e-6 * scale


def test_multipole_experiment_evaluates_each_sector_once_per_point(monkeypatch):
    # the six evaluation radii come from one basis_eval call, and the errors
    # for each K_max are running sums over k, not a new expansion per K_max
    calls = []
    basis_eval = rc.Discretization.basis_eval

    def counted(self, targets):
        calls.append(np.size(targets))
        return basis_eval(self, targets)

    monkeypatch.setattr(rc.Discretization, "basis_eval", counted)
    k_max = 3
    for n in (3, 4, 5):
        calls.clear()
        points, oracle, errors = npot.multipole_completeness_experiment(k_max=k_max, n=n)
        assert calls == [6]
        assert (points.shape, oracle.shape, errors.shape) == ((6, n), (6,), (6, k_max + 1))


@pytest.mark.parametrize("k_max", (0, 3, 8))
def test_multipole_experiment_matches_per_km_reference(k_max):
    # the zonal projection (2k+1)/(4 pi) int f P_k(e.d) de gives the same
    # degree-k terms as the sum over m of g_km Y_km, one real harmonic at
    # a time on scipy's sph_harm_y
    points, oracle, errors = npot.multipole_completeness_experiment(k_max=k_max)
    expect = np.abs(multipole_sums_per_km(k_max, points) - oracle[:, None])
    np.testing.assert_allclose(errors, expect, rtol=0.0, atol=1e-15)


def test_multipole_oracle_matches_tensor_quadrature_at_n3():
    # the closed-form potential of the check's Gaussian against the 56^3
    # tensor Gauss-Legendre sum on [-5, 5]^3 at the six evaluation points
    a = np.asarray(npot.SOURCE_CENTER[:3])
    dens = sample_density(
        lambda p: np.exp(-np.sum((p - a) ** 2, axis=1) / (2.0 * npot.SOURCE_WIDTH**2)),
        [(-5.0, 5.0)] * 3, (56, 56, 56))
    points, oracle, _ = npot.multipole_completeness_experiment(k_max=0)
    tensor = np.array([direct_newton_potential_nd(dens, x) for x in points])
    np.testing.assert_allclose(oracle, tensor, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_gaussian_potential_matches_radial_quadrature(n):
    # a centred Gaussian, so the closed form is the radial reduction; each n
    # takes its own branch of the incomplete gamma function gamma(n/2, .)
    s = npot.SOURCE_WIDTH
    radii = [0.3, 1.0, 2.5, 4.5]
    ref = radial_potential_from_callable(
        n, lambda r: np.exp(-(r**2) / (2.0 * s**2)), radii, r_cut=20.0)
    got = [npot.gaussian_potential(n, r, s) for r in radii]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_oracle_guards_and_translation():
    dens = sample_density(
        lambda p: np.exp(-np.sum(p**2, axis=1)), [(-3.0, 3.0)] * 3, (32, 32, 32)
    )
    with pytest.raises(ValueError):
        direct_newton_potential_nd(dens, [5.0, 0, 0])
    with pytest.raises(ValueError):
        sample_density(lambda p: p[:, 0], [(-1, 1)] * 3, (80, 16, 16))
    with pytest.raises(ValueError, match="quadrature node"):  # odd rules hold 0
        direct_newton_potential_nd(
            sample_density(lambda p: p[:, 0], [(-1, 1)] * 3, (15, 15, 15)),
            [0.0, 0.0, 0.0])
    assert direct_newton_potential_nd(
        sample_density(lambda p: 0.0 * p[:, 0], [(-1, 1)] * 3, (16, 16, 16)),
        [0.1, 0.0, 0.0],
    ) == 0.0
    # translating density, box and evaluation point together leaves the
    # quadrature sum unchanged
    a = np.array([0.4, -0.2, 0.1])
    base = direct_newton_potential_nd(dens, [0.5, 0.0, 0.0])
    shifted = sample_density(
        lambda p: np.exp(-np.sum((p - a) ** 2, axis=1)),
        [(-3.0 + a[0], 3.0 + a[0]), (-3.0 + a[1], 3.0 + a[1]), (-3.0 + a[2], 3.0 + a[2])],
        (32, 32, 32),
    )
    moved = direct_newton_potential_nd(shifted, np.array([0.5, 0, 0]) + a)
    assert moved == pytest.approx(base, rel=1e-12)


def test_gauss_oracle_matches_radial_quadrature():
    dens = sample_density(
        lambda p: np.exp(-np.sum(p**2, axis=1)),
        [(-5.0, 5.0)] * 3,
        (56, 56, 56),
    )
    # evaluation point far enough out that the (unhandled) kernel
    # singularity sits where the density is ~1e-8
    got = direct_newton_potential_nd(dens, [4.2, 0.0, 0.0])
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
    g1 = rc.RadialFunction(g, npot.kernel_matrix(g, 1) @ uup.values)

    def density(pts):
        pts = np.atleast_2d(pts)
        rr = np.linalg.norm(pts, axis=1)
        uu = gs.profile.evaluate(rr)
        du = (gs.profile.evaluate(rr + 1e-5) - gs.profile.evaluate(rr - 1e-5)) / 2e-5
        # U dU/dx3 = U U'(r) * (x3/r); Y_10 is proportional to x3/r
        return uu * du * pts[:, 2] / rr

    oracle_grid = sample_density(density, [(-9.0, 9.0)] * 3, (48, 48, 48))
    point = np.array([1.1, 0.4, 6.5])
    oracle = direct_newton_potential_nd(oracle_grid, point)
    theta = math.acos(point[2] / np.linalg.norm(point))
    # density = U U' * sqrt(4 pi / 3) Y_10, so the sector coefficient is
    # that constant times the radial part
    coeff = math.sqrt(4.0 * math.pi / 3.0)
    expansion = (
        coeff
        * float(g1.evaluate(np.linalg.norm(point)))
        * float(real_sph_harm_scipy(1, 0, theta, 0.0))
    )
    assert expansion == pytest.approx(oracle, rel=1e-4)
