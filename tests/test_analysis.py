"""Tests for the verification mathematics."""

import math

import numpy as np
import pytest

from qcext.analysis import (boundary_residual, compare_dilatation, cubic_map,
                            dilatation_analytic, dilatation_bound,
                            dilatation_numeric, dilatation_values,
                            estimate_m, half_plane_grid,
                            homomorphism_residual, m_ratio, pde_matrix,
                            pde_residual, quadratic_window_map, sigma_factor,
                            sup_dilatation)
from qcext.errors import DomainError
from qcext.extensions import ExtParams, extend_family
from qcext.realmap import (Affine, bump_map, identity, invert_at,
                           power_integral_map, sampled_monotone, taper)
from conftest import make_bump_map, make_params


# -- quasisymmetry ratios -----------------------------------------------------

def test_m_ratio_identity_and_affine():
    assert m_ratio(identity(), 0.3, 1.7) == 1.0
    assert m_ratio(Affine(3.0, -2.0), -1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_m_ratio_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        m_ratio(identity(), 0.0, 0.0)


def test_estimate_m_matches_brute_force():
    f = bump_map(0.0, 1.0, 0.3)
    xs = np.linspace(-5, 5, 40)
    ts = np.geomspace(1e-3, 5.0, 40)
    worst = 1.0
    for x in xs:
        for t in ts:
            r = m_ratio(f, float(x), float(t))
            worst = max(worst, r, 1.0 / r)
    assert estimate_m(f, (-5.0, 5.0), (1e-3, 5.0), 40) == pytest.approx(worst, rel=1e-12)
    assert worst > 1.0


def test_estimate_m_bounded_by_slope_ratio(rng):
    for _ in range(10):
        f = make_bump_map(rng)
        b, B = f.deriv_bounds()
        assert estimate_m(f) <= B / b + 1e-9
    assert estimate_m(identity()) == pytest.approx(1.0, abs=1e-12)


# -- sigma factor ----------------------------------------------------------------

def test_sigma_closed_values():
    assert sigma_factor(ExtParams(0.7, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert sigma_factor(ExtParams(1.0, 2.0)) == pytest.approx(-1.0, abs=1e-14)
    # independent complex arithmetic for (0, 1): (-i)(i-1) / (i(-i-1))
    num = complex(0, -1) * complex(-1, 1)
    den = complex(0, 1) * complex(-1, -1)
    assert num / den == pytest.approx(1j, abs=1e-15)
    assert sigma_factor(ExtParams(0.0, 1.0)) == pytest.approx(1j, abs=1e-14)


def test_sigma_unit_modulus(rng):
    for _ in range(300):
        p = ExtParams(float(rng.uniform(-20, 20)), float(rng.uniform(0, 20)))
        assert abs(abs(sigma_factor(p)) - 1.0) <= 1e-12


# -- closed-form dilatation --------------------------------------------------------

def test_dilatation_affine_is_zero(rng):
    f = Affine(2.3, -1.0)
    for _ in range(5):
        p = make_params(rng)
        rep = dilatation_analytic(f, p, 0.3 + 0.9j)
        assert rep.theta == pytest.approx(1.0, abs=1e-15)
        assert rep.analytic <= 1e-15


def test_dilatation_ns_member_formula(rng):
    f = bump_map(0.0, 1.0, 0.3)
    p = ExtParams(1.0, 2.0)
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))
        rep = dilatation_analytic(f, p, z)
        theta = f.deriv(z.real - z.imag) / f.deriv(z.real + z.imag)
        assert rep.analytic == pytest.approx(abs(1 - theta) / (1 + theta), rel=1e-12)


def test_dilatation_bound_pinched_slopes():
    # theta ranges in [1/4, 4]; |1-theta|/(1+theta) peaks at 0.6 at both ends
    assert dilatation_bound(ExtParams(1.0, 2.0), 0.5, 2.0) == pytest.approx(0.6)


def test_sup_dilatation_below_certified_bound(rng):
    grid = half_plane_grid()
    for _ in range(10):
        f = make_bump_map(rng)
        p = make_params(rng)
        sup = sup_dilatation(f, p, grid)
        assert sup < 1.0
        assert sup <= dilatation_bound(p, *f.deriv_bounds()) + 1e-12


def test_numeric_dilatation_affine_small():
    f = Affine(1.7, 0.3)
    p = ExtParams(0.8, 1.6)
    h = 1e-5
    val = dilatation_numeric(lambda z: extend_family(p, f, z), 0.2 + 0.8j, h)
    assert val <= 10 * h


def test_numeric_matches_analytic_second_order(rng):
    f = bump_map(0.0, 1.0, 0.3)
    p = ExtParams(1.0, 2.0)
    z = 0.31 + 0.41j
    rep1 = compare_dilatation(f, p, z, 1e-3)
    rep2 = compare_dilatation(f, p, z, 5e-4)
    assert rep1.gap > 1e-11  # away from the degenerate case
    assert 3.5 <= rep1.gap / rep2.gap <= 4.5
    assert compare_dilatation(f, p, z, 1e-4).gap <= 1e-5


def test_numeric_dilatation_validates(rng):
    F = lambda z: extend_family(ExtParams(1.0, 2.0), identity(), z)
    with pytest.raises(DomainError):
        dilatation_numeric(F, 0.5 + 0.001j, 1e-3)
    with pytest.raises(DomainError):
        dilatation_numeric(F, 0.5 + 1.0j, 0.0)


# -- non-quasiconformal witnesses ----------------------------------------------------

def test_cubic_under_ns_saturates():
    cub = cubic_map()
    p = ExtParams(1.0, 2.0)
    ys = np.geomspace(0.05, 1.0, 12)
    offs = np.linspace(-0.02, 0.02, 9)
    grid = (ys[:, None] * (1.0 + offs[None, :]) + 1j * ys[:, None]).ravel()
    assert sup_dilatation(cub, p, grid) >= 0.999
    # numeric quotient also approaches 1 close to the diagonal
    z = 0.2 * (1 + 1e-3) + 0.2j
    val = dilatation_numeric(lambda w: extend_family(p, cub, w), z, 1e-6)
    assert val >= 0.99


def test_alpha_zero_supremum_refines_to_one():
    f = bump_map(0.0, 1.0, 0.3)
    p = ExtParams(0.0, 0.0)
    sups = []
    for y_top in (5.0, 50.0, 500.0):
        grid = half_plane_grid(-0.9, 0.9, 0.5, y_top, 11, 31)
        sups.append(sup_dilatation(f, p, grid))
    assert all(s2 >= s1 for s1, s2 in zip(sups, sups[1:]))
    assert sups[-1] >= 0.99
    assert all(s < 1.0 for s in sups)


def test_alpha_zero_affine_is_conformal():
    assert sup_dilatation(Affine(2.0, 1.0), ExtParams(0.4, 0.0),
                          half_plane_grid()) <= 1e-15


def test_cubic_is_gated_from_bilipschitz_machinery():
    cub = cubic_map()
    with pytest.raises(DomainError):
        power_integral_map(cub, 0.5)
    with pytest.raises(DomainError):
        invert_at(cub, 1.0, 1e-8)
    with pytest.raises(DomainError):
        taper(cub, 1.0)


# -- homomorphism / boundary residuals -------------------------------------------------

def test_homomorphism_residual_identity_cases(rng):
    grid = half_plane_grid()
    f = make_bump_map(rng)
    p = make_params(rng)
    assert homomorphism_residual(p, f, identity(), grid) <= 1e-13
    assert homomorphism_residual(p, Affine(2.0, 1.0), Affine(0.5, -1.0), grid) <= 1e-13


def test_homomorphism_residual_requires_group():
    with pytest.raises(DomainError):
        homomorphism_residual(ExtParams(1.0, 0.0), identity(), identity(),
                              half_plane_grid())


def test_boundary_residual_identity_and_affine():
    # E fixes affine maps exactly, so the residual |E f(x+iy) - f(x)| is the
    # height a*y itself, to float precision at every y
    p = ExtParams(1.3, 2.7)
    for y in (1e-1, 1e-2, 1e-3):
        assert abs(boundary_residual(p, identity(), (-1, 1), y) - y) <= 1e-14
        assert abs(boundary_residual(p, Affine(2.0, 0.5), (-1, 1), y) - 2 * y) <= 1e-13


# -- PDE characterization ----------------------------------------------------------------

def test_pde_matrix_shape():
    p = ExtParams(0.7, 1.9)
    mat = pde_matrix(p)
    assert mat.shape == (2, 2)
    assert mat[0, 1] == mat[1, 0]
    assert mat[1, 1] == -1.0
    assert mat[0, 0] == (p.alpha - p.a) * p.a
    # (1, 2) gives the wave operator diag(1, -1)
    assert np.allclose(pde_matrix(ExtParams(1.0, 2.0)), np.diag([1.0, -1.0]))


def test_pde_residual_affine(rng):
    # F is affine in (x, y): truncation vanishes, so a coarse step leaves
    # only roundoff well below 1e-10
    f = Affine(1.8, -0.7)
    for _ in range(5):
        p = make_params(rng, alpha_range=(0.0, 3.0))
        assert pde_residual(f, p, 0.4 + 0.8j, h=3e-2) <= 1e-10


def test_pde_residual_quadratic_window_wave_equation():
    quad = quadratic_window_map()
    r = pde_residual(quad, ExtParams(1.0, 2.0), 2.5 + 0.5j, h=5e-3)
    assert r <= 1e-8


def test_pde_residual_second_order_decay(rng):
    f = bump_map(0.0, 1.0, 0.3)
    for _ in range(5):
        p = make_params(rng, a_range=(-1.0, 1.0), alpha_range=(0.5, 3.0))
        z = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.15))
        r1 = pde_residual(f, p, z, h=1e-3)
        if r1 < 1e-6:  # truncation below the h/2 roundoff floor
            continue
        r2 = pde_residual(f, p, z, h=5e-4)
        assert 3.5 <= r1 / r2 <= 4.5


def test_pde_residual_requires_c2():
    smooth = bump_map(0.0, 1.0, 0.2)
    tapered = taper(smooth, 3.0)  # C^1 only
    with pytest.raises(DomainError):
        pde_residual(tapered, ExtParams(1.0, 2.0), 0.2 + 0.5j)
    samp = sampled_monotone([0.0, 1.0, 2.0], [0.0, 1.1, 2.0])
    with pytest.raises(DomainError):
        pde_residual(samp, ExtParams(1.0, 2.0), 0.2 + 0.5j)


# -- the quadratic window map ----------------------------------------------------------

def test_quadratic_window_map_is_quadratic_on_window():
    quad = quadratic_window_map(1.0, 4.0, 0.25)
    lo, hi = quad.window
    xs = np.linspace(lo, hi, 50)
    assert np.max(np.abs(quad(xs) - xs ** 2)) == 0.0
    assert np.max(np.abs(quad.deriv(xs) - 2 * xs)) == 0.0
    assert np.max(np.abs(quad.second_deriv(xs) - 2.0)) == 0.0


def test_quadratic_window_map_smooth_joints():
    quad = quadratic_window_map(1.0, 4.0, 0.25)
    h = 1e-4
    for joint in (0.75, 1.25, 3.75, 4.25):
        fd = (quad(joint + h) - quad(joint - h)) / (2 * h)
        assert fd == pytest.approx(quad.deriv(joint), abs=1e-6)
        sd = (quad(joint + h) - 2 * quad(joint) + quad(joint - h)) / h ** 2
        assert sd == pytest.approx(quad.second_deriv(joint), abs=1e-2)


def test_quadratic_window_monotone_and_certified():
    quad = quadratic_window_map()
    xs = np.linspace(-10, 10, 2001)
    assert np.all(np.diff(quad(xs)) > 0)
    d = quad.deriv(xs)
    lo, hi = quad.deriv_bounds()
    assert d.min() >= lo - 1e-12 and d.max() <= hi + 1e-12


def test_grid_validation():
    with pytest.raises(DomainError):
        half_plane_grid(y_min=0.0)
    with pytest.raises(DomainError):
        half_plane_grid(nx=1)
    with pytest.raises(DomainError, match="nx, ny"):
        half_plane_grid(ny=0)
    for bounds in ({"x_min": -math.inf}, {"x_max": math.nan},
                   {"y_max": math.inf}, {"y_min": math.nan},
                   {"x_min": -1e308, "x_max": 1e308}):
        with pytest.raises(DomainError, match="finite"):
            half_plane_grid(**bounds)
    for bounds in ({"x_min": 2.0, "x_max": 1.0}, {"y_min": 3.0, "y_max": 1.0},
                   {"x_min": 1.0, "x_max": 1.0}):
        with pytest.raises(DomainError, match="increasing"):
            half_plane_grid(**bounds)


def test_dilatation_values_mark_undefined_points_nan():
    cub = cubic_map()
    zs = np.array([2.0j, -1.0 + 1.0j, 0.5 + 0.5j, -0.5 + 0.5j])
    for p in (ExtParams(1.0, 2.0), ExtParams(1.0, 0.0)):
        vals, _ = dilatation_values(cub, p, zs)
        # f'(x + y) = 0 where x + y = 0
        assert np.isnan(vals).tolist() == [False, True, False, True]
        for z, v in zip(zs, vals):
            if np.isnan(v):
                with pytest.raises(DomainError, match="derivative"):
                    dilatation_analytic(cub, p, z)
            else:
                assert dilatation_analytic(cub, p, z).analytic == v
        with pytest.raises(DomainError, match="derivative"):
            sup_dilatation(cub, p, zs)
