"""Tests for the verification mathematics."""

import math

import numpy as np
import pytest

from qcext.analysis import (CubicMap, QuadraticWindowMap, boundary_residual,
                            compare_dilatation, dilatation_analytic,
                            dilatation_bound, dilatation_numeric,
                            dilatation_values, estimate_m, half_plane_grid,
                            homomorphism_residual, m_ratio, pde_matrix,
                            pde_residual, sigma_factor, sup_dilatation)
from qcext.errors import DomainError
from qcext.extensions import ExtParams, extend_family
from qcext.realmap import (Affine, InverseMap, PowerIntegral, SampledMonotone,
                           Tapered, bump_map)
from conftest import make_bump_map, make_params


# -- quasisymmetry ratios -----------------------------------------------------

def test_m_ratio_identity_and_affine():
    assert m_ratio(Affine(1.0), 0.3, 1.7) == 1.0
    assert m_ratio(Affine(3.0, -2.0), -1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_m_ratio_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        m_ratio(Affine(1.0), 0.0, 0.0)


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
    assert estimate_m(Affine(1.0)) == pytest.approx(1.0, abs=1e-12)


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
    F = lambda z: extend_family(ExtParams(1.0, 2.0), Affine(1.0), z)
    with pytest.raises(DomainError):
        dilatation_numeric(F, 0.5 + 0.001j, 1e-3)
    with pytest.raises(DomainError):
        dilatation_numeric(F, 0.5 + 1.0j, 0.0)
    # the first bad point in C order is named, for either fault
    zs = np.array([[0.5 + 1.0j, -0.25 + 0.001j], [0.5 + 0.0015j, 0.1 + 1.0j]])
    with pytest.raises(DomainError, match=r"Im z > 2h.*z=\(-0\.25\+0\.001j\)"):
        dilatation_numeric(F, zs, 1e-3)
    flat_left = lambda w: np.where(w.real < 0, 0.0, w)  # constant for x < 0
    zs = np.array([[0.5 + 1.0j, -1.0 + 1.0j], [-2.0 + 1.0j, 0.3 + 1.0j]])
    with pytest.raises(DomainError, match=r"degenerate point z=\(-1\+1j\)"):
        dilatation_numeric(flat_left, zs, 1e-3)


# -- non-quasiconformal witnesses ----------------------------------------------------

def test_cubic_under_ns_saturates():
    cub = CubicMap()
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
    cub = CubicMap()
    with pytest.raises(DomainError):
        PowerIntegral(cub, 0.5)
    with pytest.raises(DomainError):
        InverseMap(cub)(1.0)
    with pytest.raises(DomainError):
        Tapered(cub, 1.0)


# -- homomorphism / boundary residuals -------------------------------------------------

def test_homomorphism_residual_identity_cases(rng):
    grid = half_plane_grid()
    f = make_bump_map(rng)
    p = make_params(rng)
    assert homomorphism_residual(p, f, Affine(1.0), grid) <= 1e-13
    assert homomorphism_residual(p, Affine(2.0, 1.0), Affine(0.5, -1.0), grid) <= 1e-13


def test_homomorphism_residual_requires_group():
    with pytest.raises(DomainError):
        homomorphism_residual(ExtParams(1.0, 0.0), Affine(1.0), Affine(1.0),
                              half_plane_grid())


def test_boundary_residual_identity_and_affine():
    # E fixes affine maps exactly, so the residual |E f(x+iy) - f(x)| is the
    # height a*y itself, to float precision at every y
    p = ExtParams(1.3, 2.7)
    for y in (1e-1, 1e-2, 1e-3):
        assert abs(boundary_residual(p, Affine(1.0), (-1, 1), y) - y) <= 1e-14
        assert abs(boundary_residual(p, Affine(2.0, 0.5), (-1, 1), y) - 2 * y) <= 1e-13


@pytest.mark.parametrize("interval, message", [
    ((-1e308, 1e308), "interval [-1e+308, 1e+308] is wider than the floats"),
    ((-math.inf, 1.0), "interval must be finite, got -inf"),
    ((0.0, math.nan), "interval must be finite, got nan"),
])
def test_boundary_residual_refuses_an_interval_past_the_floats(interval, message):
    # linspace over it overflowed (or met inf) with a numpy warning
    with pytest.raises(DomainError) as info:
        boundary_residual(ExtParams(1.0, 2.0), Affine(1.0), interval)
    assert str(info.value) == message


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
    quad = QuadraticWindowMap()
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


def test_pde_residual_names_the_first_point_off_its_stencil():
    zs = np.array([[0.2 + 0.5j, 0.3 + 0.01j], [0.1 + 0.001j, 0.2 + 0.6j]])
    with pytest.raises(DomainError, match=r"Im z > 2h.*z=\(0\.3\+0\.01j\)"):
        pde_residual(bump_map(0.0, 1.0, 0.2), ExtParams(1.0, 2.0), zs, h=5e-3)
    with pytest.raises(DomainError, match="h must be positive"):
        pde_residual(bump_map(0.0, 1.0, 0.2), ExtParams(1.0, 2.0), 0.2 + 0.5j,
                     h=[1e-3, 0.0])


def test_pde_residual_requires_c2():
    smooth = bump_map(0.0, 1.0, 0.2)
    tapered = Tapered(smooth, 3.0)  # C^1 only
    with pytest.raises(DomainError):
        pde_residual(tapered, ExtParams(1.0, 2.0), 0.2 + 0.5j)
    samp = SampledMonotone([0.0, 1.0, 2.0], [0.0, 1.1, 2.0])
    with pytest.raises(DomainError):
        pde_residual(samp, ExtParams(1.0, 2.0), 0.2 + 0.5j)


# -- the quadratic window map ----------------------------------------------------------

def test_quadratic_window_map_is_quadratic_on_window():
    quad = QuadraticWindowMap(1.0, 4.0, 0.25)
    lo, hi = quad.window
    xs = np.linspace(lo, hi, 50)
    assert np.max(np.abs(quad(xs) - xs ** 2)) == 0.0
    assert np.max(np.abs(quad.deriv(xs) - 2 * xs)) == 0.0
    assert np.max(np.abs(quad.second_deriv(xs) - 2.0)) == 0.0


def test_quadratic_window_map_smooth_joints():
    quad = QuadraticWindowMap(1.0, 4.0, 0.25)
    h = 1e-4
    for joint in (0.75, 1.25, 3.75, 4.25):
        fd = (quad(joint + h) - quad(joint - h)) / (2 * h)
        assert fd == pytest.approx(quad.deriv(joint), abs=1e-6)
        sd = (quad(joint + h) - 2 * quad(joint) + quad(joint - h)) / h ** 2
        assert sd == pytest.approx(quad.second_deriv(joint), abs=1e-2)


def test_quadratic_window_monotone_and_certified():
    quad = QuadraticWindowMap()
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


def test_dilatation_values_refuse_a_defined_value_that_overflows():
    cub, p0 = CubicMap(), ExtParams(0.0, 0.0)
    # undefined at 1j (f'(0) = 0): NaN, not an error
    vals, _ = dilatation_values(cub, p0, np.array([1j, 1 + 1j]))
    assert np.isnan(vals).tolist() == [True, False]
    # y f''(x) = 6e308 at 1 + 1e308j
    with pytest.raises(DomainError, match=r"^dilatation at z=\(1\+1e\+308j\) "
                                          "overflows in floating point$"):
        dilatation_values(cub, p0, np.array([1j, 1 + 1e308j]))
    # the phase sigma overflows for a = 1e300, at every point
    with pytest.raises(DomainError, match=r"z=\(-2\+0\.01j\) overflows"):
        dilatation_values(Affine(2.0), ExtParams(1e300, 1.0), np.array([-2 + 0.01j, 1j]))


def test_dilatation_values_mark_undefined_points_nan():
    cub = CubicMap()
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
        with pytest.raises(DomainError, match=r"derivative.*z=\(-1\+1j\)"):
            dilatation_analytic(cub, p, zs.reshape(2, 2))


# -- checks on point arrays ------------------------------------------------------------

def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


def test_checks_on_point_arrays_equal_their_scalar_calls(rng):
    # every check on a 2-D array of points (with a 2-D array of steps) gives
    # each point the bits of its scalar call, and a scalar call gives a float;
    # alpha = 0 goes through the limiting form
    for alpha_range in ((0.3, 4.0), (0.0, 0.0)):
        for _ in range(3):
            f = make_bump_map(rng)
            p = make_params(rng, a_range=(-1.5, 1.5), alpha_range=alpha_range)
            zs = (rng.uniform(-2.0, 2.0, (3, 4))
                  + 1j * rng.uniform(0.05, 1.5, (3, 4)))
            hs = 10.0 ** rng.uniform(-5.0, -2.5, (3, 4))
            F = lambda w: extend_family(p, f, w)
            rep = compare_dilatation(f, p, zs, hs)
            checks = {
                "analytic": (rep.analytic, lambda z, h: dilatation_analytic(f, p, z).analytic),
                "theta": (rep.theta, lambda z, h: dilatation_analytic(f, p, z).theta),
                "numeric": (rep.numeric, lambda z, h: compare_dilatation(f, p, z, h).numeric),
                "gap": (rep.gap, lambda z, h: compare_dilatation(f, p, z, h).gap),
                "dilatation_numeric": (dilatation_numeric(F, zs, hs),
                                       lambda z, h: dilatation_numeric(F, z, h)),
                "pde default h": (pde_residual(f, p, zs), lambda z, h: pde_residual(f, p, z)),
                "pde": (pde_residual(f, p, zs, hs), lambda z, h: pde_residual(f, p, z, h)),
            }
            for name, (values, scalar_call) in checks.items():
                assert values.shape == zs.shape, name
                scalars = [scalar_call(z, h) for z, h in zip(zs.ravel().tolist(),
                                                            hs.ravel().tolist())]
                assert all(type(v) is float for v in scalars), name
                assert _same_bits(values.ravel(), scalars), name
            # a 0-d array is a scalar point too
            assert type(pde_residual(f, p, np.asarray(zs[0, 0]))) is float
            ys = np.array([[1e-1, 1e-2], [1e-3, 0.37]])
            rs = boundary_residual(p, f, (-1.0, 1.0), ys)
            scalars = [boundary_residual(p, f, (-1.0, 1.0), y) for y in ys.ravel().tolist()]
            assert rs.shape == ys.shape and all(type(r) is float for r in scalars)
            assert _same_bits(rs.ravel(), scalars)


# Values of the scalar checks before they took point arrays, for the bump
# 0.3 (1 - x^2)^3 on [-1, 1]: (a, alpha, z) -> analytic, theta, numeric and
# gap at h = 1e-3, dilatation_numeric at h = 1e-4, and the PDE residual at
# the default h and at h = 2e-3.
SCALAR_CORPUS = [
    ((-0.4, 1.3, 0.31 + 0.41j),
     [0.5028572811866396, 2.0093527698222675, 0.5028561012851307,
      1.1799015089408726e-06, 0.5028572693871515, 8.379216023484516e-07,
      1.9918173791075438e-05]),
    ((-0.4, 1.3, -0.6 + 0.25j),
     [0.226343125981972, 0.7531674456928613, 0.2263429053441738,
      2.2063779819836427e-07, 0.22634312377529364, 3.125851953266007e-07,
      1.9691368782516337e-05]),
    ((1.0, 2.0, -0.6 + 0.25j),
     [0.1411045599304013, 0.7526877643201993, 0.1411039551627623,
      6.047676389953072e-07, 0.14110455388281973, 0.0, 0.0]),
    ((0.7, 0.0, 0.31 + 0.41j),
     [0.44628892031607525, 1.0, 0.4462872185478549, 1.7017682203412932e-06,
      0.44628890329779564, 3.3111074924757628e-06, 7.880119554076837e-05]),
    ((0.7, 0.0, -0.6 + 0.25j),
     [0.017578602992290443, 1.0, 0.01757865578040434, 5.278811389744509e-08,
      0.017578603520094178, 3.812439549948206e-07, 2.4329095562025927e-05]),
]


@pytest.mark.parametrize("case, expected", SCALAR_CORPUS)
def test_scalar_checks_keep_their_values(case, expected):
    a, alpha, z = case
    f, p = bump_map(0.0, 1.0, 0.3), ExtParams(a, alpha)
    rep = compare_dilatation(f, p, z, 1e-3)
    got = [rep.analytic, rep.theta, rep.numeric, rep.gap,
           dilatation_numeric(lambda w: extend_family(p, f, w), z, 1e-4),
           pde_residual(f, p, z), pde_residual(f, p, z, 2e-3)]
    assert _same_bits(got, expected)


@pytest.mark.parametrize("shape", [(), (1,), (7, 5)])
def test_stencils_make_one_extension_call(monkeypatch, shape):
    import qcext.analysis as analysis
    f, p = bump_map(0.0, 1.0, 0.3), ExtParams(0.4, 1.3)
    zs = np.full(shape, 0.2 + 0.5j)
    calls = []

    def counted(p, f, w):
        calls.append(w.shape)
        return extend_family(p, f, w)

    dilatation_numeric(lambda w: counted(p, f, w), zs, 1e-3)
    assert calls == [(4, *shape)]
    calls.clear()
    monkeypatch.setattr(analysis, "extend_family", counted)
    pde_residual(f, p, zs)
    compare_dilatation(f, p, zs, 1e-3)
    assert calls == [(9, *shape), (4, *shape)]
