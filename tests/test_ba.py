"""Tests for the averaged (Beurling-Ahlfors) extension and its normalization."""

import math

import numpy as np
import pytest

from qcext.beurling_ahlfors import (QUAD_TOL, ba_affine_naturality_residual,
                                    extend_ba)
from qcext.errors import DomainError, QuadratureFailure
from qcext.realmap import Affine, Composition, SampledMonotone, bump_map
from conftest import make_bump_map

PRINTED = dict(im_scale=1.0)
NATURAL = dict(im_scale=2.0)
QTOL = QUAD_TOL


def test_identity_at_printed_scale_halves_the_height():
    # symbolic integration of the printed formula gives x + i y/2
    for z in (0.5 + 1.0j, -1.0 + 0.25j, 2.0 + 3.0j):
        v = extend_ba(Affine(1.0), z, **PRINTED)
        assert abs(v - (z.real + 0.5j * z.imag)) <= QTOL


def test_identity_fixed_at_natural_scale():
    for z in (0.5 + 1.0j, -1.0 + 0.25j, 2.0 + 3.0j):
        assert abs(extend_ba(Affine(1.0), z, **NATURAL) - z) <= 2 * QTOL


def test_affine_fixed_at_natural_scale(rng):
    for _ in range(10):
        a = float(rng.uniform(0.2, 4.0))
        b = float(rng.uniform(-3.0, 3.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
        v = extend_ba(Affine(a, b), z, **NATURAL)
        assert abs(v - (a * z + b)) <= 2 * QTOL * (1 + a)


def test_naturality_with_identity_precomposition():
    # trivial at the natural scale, where E(Id) = Id so both sides coincide;
    # at the printed scale E(Id) = x + i y/2 shifts the inner argument and
    # the residual is visibly nonzero even for g = Id
    f = bump_map(0.0, 1.0, 0.3)
    z = 0.4 + 0.8j
    assert ba_affine_naturality_residual(f, Affine(1.0), z, **NATURAL) <= 2 * QTOL
    assert ba_affine_naturality_residual(f, Affine(1.0), z, **PRINTED) > 1e-3


def test_naturality_residual_small_at_natural_scale(rng):
    g = Composition(Affine(2.0, 1.0), Affine(1.0))  # 2x + 1 as an affine kind
    assert g.kind == "composition"
    g = Affine(2.0, 1.0)
    for _ in range(15):
        f = make_bump_map(rng, affine_prob=0.0)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        assert ba_affine_naturality_residual(f, g, z, **NATURAL) <= 10 * QTOL
    # a point array gives each point the bits of its scalar call
    zs = rng.uniform(-1.5, 1.5, (2, 3)) + 1j * rng.uniform(0.2, 2.0, (2, 3))
    rs = ba_affine_naturality_residual(f, g, zs, **NATURAL)
    scalars = [ba_affine_naturality_residual(f, g, z, **NATURAL) for z in zs.ravel().tolist()]
    assert rs.shape == zs.shape and all(type(r) is float for r in scalars)
    assert np.array_equal(rs.ravel(), scalars)


def test_naturality_residual_fails_at_printed_scale():
    # documents the factor-of-two inconsistency: a fixed non-affine map and
    # affine pre-composition leave a visible residual when im_scale = 1
    f = bump_map(0.0, 1.0, 0.3)
    g = Affine(2.0, 1.0)
    r = ba_affine_naturality_residual(f, g, 0.3 + 0.7j, **PRINTED)
    assert r > 1e-4


def test_postcomposition_by_affine_is_exact_at_both_scales(rng):
    # linearity of the integrals: E(a f + b) = a E(f) + b at any im_scale
    f = make_bump_map(rng, affine_prob=0.0)
    a, b = 1.7, -0.4
    af = Composition(Affine(a, b), f)
    for cfg in (PRINTED, NATURAL):
        for z in (0.2 + 0.5j, -1.0 + 1.5j):
            lhs = extend_ba(af, z, **cfg)
            rhs = a * extend_ba(f, z, **cfg) + b
            assert abs(lhs - rhs) <= 10 * QTOL


def test_extension_against_scipy_oracle():
    from scipy.integrate import quad
    f = bump_map(0.0, 1.0, 0.35)
    for z in (0.2 + 0.6j, -1.1 + 1.4j):
        x, y = z.real, z.imag
        plus, e1 = quad(lambda t: f(x + t * y), 0.0, 1.0, epsabs=1e-13)
        minus, e2 = quad(lambda t: f(x + t * y), -1.0, 0.0, epsabs=1e-13)
        for scale in (1.0, 2.0):
            ref = 0.5 * (plus + minus) + 0.5j * scale * (plus - minus)
            got = extend_ba(f, z, im_scale=scale)
            assert abs(got - ref) <= 1e-9 + 10 * (e1 + e2)


def test_averaged_extension_is_not_a_homomorphism():
    # composition is only respected against affine maps: a non-affine pair
    # leaves a visible residual at either normalization, unlike the shear
    # family whose composition identity is exact
    f = bump_map(0.0, 1.0, 0.3)
    g = bump_map(0.3, 0.8, 0.25)
    z = 0.3 + 0.7j
    for cfg in (PRINTED, NATURAL):
        lhs = extend_ba(Composition(f, g), z, **cfg)
        rhs = extend_ba(f, extend_ba(g, z, **cfg), **cfg)
        assert abs(lhs - rhs) > 1e-3


def test_real_part_increasing_in_x():
    f = bump_map(0.0, 1.0, 0.4)
    xs = np.linspace(-2.0, 2.0, 21)
    vals = [extend_ba(f, x + 0.5j, **NATURAL).real for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_rejects_boundary_point_and_bad_config():
    with pytest.raises(DomainError):
        extend_ba(Affine(1.0), 1.0 + 0.0j)
    with pytest.raises(DomainError):
        extend_ba(Affine(1.0), 1j, quad_tol=0.0)
    with pytest.raises(DomainError):
        extend_ba(Affine(1.0), 1j, im_scale=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            extend_ba(Affine(1.0), 1j, quad_tol=bad)
        with pytest.raises(DomainError):
            extend_ba(Affine(1.0), 1j, im_scale=bad)
    with pytest.raises(DomainError):
        ba_affine_naturality_residual(Affine(1.0), bump_map(0, 1, 0.1), 1j)


def test_array_call_agrees_with_scalar_calls(rng):
    f = make_bump_map(rng)
    xs = np.linspace(-3.0, 3.0, 9)
    ys = np.geomspace(0.01, 2.0, 7)
    zs = xs[None, :] + 1j * ys[:, None]
    for cfg in (PRINTED, NATURAL):
        got = extend_ba(f, zs, **cfg)
        assert got.shape == zs.shape
        ref = np.array([[extend_ba(f, complex(z), **cfg) for z in row] for row in zs])
        assert np.max(np.abs(got - ref)) <= QTOL
    assert isinstance(extend_ba(f, 0.3 + 0.7j), complex)


def test_rejects_non_finite_points_before_integrating():
    zs = np.array([0.1 + 1.0j, complex(math.nan, 1.0), 0.2 + 0.5j])
    with pytest.raises(DomainError, match="finite"):
        extend_ba(Affine(1.0), zs)
    with pytest.raises(DomainError, match="finite"):
        extend_ba(Affine(1.0), complex(0.0, math.inf))
    # the first offending point in order is named
    with pytest.raises(DomainError, match=r"z=\(2-1j\)"):
        extend_ba(Affine(1.0), np.array([1j, 2 - 1j, 3 - 2j]))
    # x +- y rounds to x: the half-windows would be empty
    with pytest.raises(DomainError, match="window"):
        extend_ba(Affine(1.0), 1e20 + 1j)


def test_quadrature_failure_names_the_point():
    # f is C^1 with slopes alternating 0.8 and 1.2 between samples 1/8192
    # apart, so f'' jumps at every sample and each panel holding one has a
    # truly nonzero embedded error: at an unreachable tolerance the 4096
    # samples in the second point's left window fail all 4096 panels once
    # the window is cut that fine.  The first point's window lies where f is
    # affine, which every panel integrates exactly.
    xs = np.linspace(-1.0, 1.0, 16385)
    f = SampledMonotone(xs, np.cumsum(np.where(np.arange(xs.size) % 2, 1.2, 0.8)) / 8192)
    zs = np.array([5.0 + 0.5j, 0.2 + 0.5j])
    with pytest.raises(QuadratureFailure,
                       match=r"z=\(0\.2\+0\.5j\).*8192 panels \(budget 4096"):
        extend_ba(f, zs, quad_tol=1e-300)
