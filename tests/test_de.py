"""Tests for the barycentric disk extension."""

import math

import numpy as np
import pytest

from qcext.douady_earle import (CircleMap, MobiusAutomorphism, _de_jacobian,
                                _kernel, _samples, circle_map_from_dict,
                                compose_circle, de_defect, de_naturality_residual,
                                extend_de)
from qcext.errors import DomainError, NonConvergence
from qcext.realmap import KINDS

Z_SET = (0.0, 0.5, -0.5, 0.5j, -0.3 + 0.4j)


def disk_grid(radius=0.9, side=7):
    """Flat grid in grid order, like the CLI's, reaching |z| = radius."""
    xm = radius * math.cos(0.8)
    xs = np.linspace(-xm, xm, side)
    ys = np.geomspace(0.05, radius * math.sin(0.8), side)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def random_mobius(rng, c_max=0.6):
    r = float(rng.uniform(0.0, c_max))
    phase = float(rng.uniform(0.0, 2 * math.pi))
    return MobiusAutomorphism(float(rng.uniform(0.0, 2 * math.pi)),
                              r * complex(math.cos(phase), math.sin(phase)))


def small_perturbation(rng, scale=0.05):
    return CircleMap.from_fourier(float(rng.uniform(-0.5, 0.5)),
                                  cos_amps=rng.uniform(-scale, scale, 3),
                                  sin_amps=rng.uniform(-scale, scale, 3))


# -- circle maps -----------------------------------------------------------------

def test_circle_map_periodicity_and_monotonicity(rng):
    f = small_perturbation(rng)
    t = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
    assert np.max(np.abs(f(t + 2 * math.pi) - f(t) - 2 * math.pi)) <= 1e-12
    assert np.all(np.diff(f(t)) > 0)


def test_circle_map_rejects_non_monotone():
    with pytest.raises(DomainError, match="fourier: lift is not strictly increasing"):
        CircleMap.from_fourier(0.0, cos_amps=[0.0], sin_amps=[1.5])
    with pytest.raises(DomainError, match="not strictly increasing"):
        CircleMap(lambda t: t + 1.5 * np.sin(t))


def test_generic_lift_is_checked_for_periodicity():
    with pytest.raises(DomainError, match="not 2\\*pi-periodic"):
        CircleMap(lambda t: 1.01 * t)


def _lift_calls(monkeypatch):
    """Count the lift evaluations of every CircleMap built from now on."""
    calls = []
    init = CircleMap.__init__

    def counting_init(self, lift, *args, **kwargs):
        init(self, lambda t: calls.append(np.size(t)) or lift(t), *args, **kwargs)

    monkeypatch.setattr(CircleMap, "__init__", counting_init)
    return calls


def test_fourier_build_evaluates_the_lift_once(monkeypatch):
    # periodic by construction: only the monotonicity sample is taken, while
    # a generic lift is sampled again one period on
    calls = _lift_calls(monkeypatch)
    CircleMap.from_fourier(0.1, cos_amps=[0.05, -0.02], sin_amps=[0.03, 0.01])
    assert calls == [2048]
    calls.clear()
    CircleMap(lambda t: t + 0.05 * np.sin(t))
    assert calls == [2048, 2048]


def test_mobius_boundary_matches_direct_values(rng):
    m = random_mobius(rng)
    f = m.boundary()
    t = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    direct = m(np.exp(1j * t))
    assert np.max(np.abs(f.values(t) - direct)) <= 1e-13


def test_mobius_inverse_closed_form(rng):
    for _ in range(10):
        m = random_mobius(rng)
        mi = m.inverse()
        for w in (0.0, 0.3 - 0.2j, 0.7j):
            assert abs(mi(m(w)) - w) <= 1e-14
            assert abs(m(mi(w)) - w) <= 1e-14


def test_mobius_requires_center_in_disk():
    with pytest.raises(DomainError):
        MobiusAutomorphism(0.0, 1.0 + 0.0j)


# -- the defect ----------------------------------------------------------------

def test_defect_identity_origin_is_zero():
    assert abs(de_defect(CircleMap.identity(), 0.0, 0.0)) <= 1e-14


def test_defect_rotation_origin_is_zero():
    assert abs(de_defect(CircleMap.rotation(1.1), 0.0, 0.0)) <= 1e-13


def test_defect_identity_fixed_points():
    ident = CircleMap.identity()
    for z in (0.3, -0.2 + 0.4j, 0.6j):
        assert abs(de_defect(ident, z, z, 512)) <= 1e-10


def test_defect_against_scipy_oracle(rng):
    # independent quadrature of the same integrand, real and imaginary parts
    from scipy.integrate import quad
    f = small_perturbation(rng)
    w, z = 0.2 - 0.1j, 0.3 + 0.2j

    def integrand(t):
        zeta = np.exp(1j * t)
        fv = np.exp(1j * float(f(t)))
        return (w - fv) / (1.0 - np.conj(w) * fv) / abs(zeta - z) ** 2

    re, re_err = quad(lambda t: integrand(t).real, 0.0, 2 * math.pi,
                      epsabs=1e-12, limit=200)
    im, im_err = quad(lambda t: integrand(t).imag, 0.0, 2 * math.pi,
                      epsabs=1e-12, limit=200)
    got = de_defect(f, w, z, n_nodes=512)
    assert abs(got - complex(re, im)) <= 1e-9 + 10 * (re_err + im_err)


def test_defect_validates_inputs():
    ident = CircleMap.identity()
    with pytest.raises(DomainError):
        de_defect(ident, 1.2, 0.0)
    with pytest.raises(DomainError):
        de_defect(ident, 0.0, 0.0, n_nodes=8)
    for n_nodes in (0, 8):  # checked before the nodes are split into blocks
        with pytest.raises(DomainError, match="16 quadrature nodes"):
            extend_de(ident, 0.0, n_nodes=n_nodes)


def test_defect_array_rows_equal_scalar_calls(rng):
    f = small_perturbation(rng)
    zs = disk_grid(0.8, 5)
    ws = 0.7 * zs[::-1]
    got = de_defect(f, ws, zs)
    assert got.shape == zs.shape
    assert np.array_equal(got, [de_defect(f, w, z) for w, z in zip(ws, zs)])


def test_closed_form_jacobian_matches_central_difference(rng):
    # d/dx g = d_w + d_wbar and d/dy g = i (d_w - d_wbar) for w = x + i y
    f = small_perturbation(rng)
    zeta, fv = _samples(f, 512)
    h = 1e-6
    for _ in range(10):
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        w = complex(*rng.uniform(-0.6, 0.6, 2))
        d_w, d_wbar = _de_jacobian(np.array([w]), fv, _kernel(zeta, np.array([z])))
        dx = (de_defect(f, w + h, z) - de_defect(f, w - h, z)) / (2 * h)
        dy = (de_defect(f, w + 1j * h, z) - de_defect(f, w - 1j * h, z)) / (2 * h)
        for fd, exact in ((dx, d_w[0] + d_wbar[0]), (dy, 1j * (d_w[0] - d_wbar[0]))):
            assert abs(fd - exact) <= 1e-6 * abs(exact)


# -- the solve -------------------------------------------------------------------

def test_extension_fixes_identity():
    ident = CircleMap.identity()
    for z in Z_SET:
        assert abs(extend_de(ident, z) - z) <= 1e-10


def test_extension_fixes_mobius(rng):
    for _ in range(20):
        m = random_mobius(rng)
        for z in Z_SET:
            assert abs(extend_de(m.boundary(), z) - m(z)) <= 1e-6


def test_mobius_boundary_solves_without_newton_steps(rng, monkeypatch):
    # the Poisson seed of a Mobius boundary is the map itself (the harmonic
    # extension of a holomorphic map), so the seed already meets tol
    from qcext import douady_earle
    jacobian, calls = douady_earle._de_jacobian, []
    monkeypatch.setattr(douady_earle, "_de_jacobian",
                        lambda *args: calls.append(1) or jacobian(*args))
    for _ in range(10):
        m = random_mobius(rng)
        for z in (0.0, disk_grid(0.9, 4)):
            assert np.max(np.abs(extend_de(m.boundary(), z) - m(z))) <= 1e-6
    assert calls == []


def test_solver_defect_reevaluated_below_tol(rng):
    tol = 1e-10
    for _ in range(5):
        f = small_perturbation(rng)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        w = extend_de(f, z, tol=tol)
        assert abs(w) < 1.0
        assert abs(de_defect(f, w, z)) <= tol


def test_array_solve_equals_scalar_solves_bit_for_bit(rng):
    # 7 x 7 = 49 points span several blocks and a partial one; at 8192 nodes
    # every point is a block of its own
    zs = disk_grid(0.9, 7)
    for f in (random_mobius(rng).boundary(), small_perturbation(rng)):
        ws = extend_de(f, zs)
        assert np.array_equal(ws, [extend_de(f, complex(z)) for z in zs])
        grid = extend_de(f, zs.reshape(7, 7))
        assert grid.shape == (7, 7)
        assert np.array_equal(grid.ravel(), ws)
        few = zs[::12]
        assert np.array_equal(extend_de(f, few, n_nodes=8192),
                              [extend_de(f, complex(z), n_nodes=8192) for z in few])
    assert isinstance(extend_de(CircleMap.identity(), 0.2), complex)


def test_solve_samples_the_boundary_once_per_call():
    # 49 points at 512 nodes are 4 blocks, which share one sampling of f
    f = CircleMap.from_fourier(0.1, cos_amps=[0.05], sin_amps=[0.03])
    lift, calls = f.lift, []
    f.lift = lambda t: calls.append(np.size(t)) or lift(t)
    extend_de(f, disk_grid(0.9, 7))
    assert calls == [512]


def test_array_solve_meets_tol_at_every_point(rng):
    tol = 1e-10
    f = small_perturbation(rng)
    zs = disk_grid(0.9, 6)
    ws = extend_de(f, zs, tol=tol)
    assert np.all(np.abs(ws) < 1.0)
    assert np.all(np.abs(de_defect(f, ws, zs)) <= tol)


def test_array_solve_unreachable_tol_names_the_point(rng):
    f = CircleMap.from_fourier(0.2, cos_amps=[0.05], sin_amps=[0.03])
    with pytest.raises(NonConvergence, match=r"z=\(.*j\).*defect"):
        extend_de(f, disk_grid(0.5, 4), tol=1e-30)


def test_array_solve_rejects_bad_points_before_solving():
    ident = CircleMap.identity()
    with pytest.raises(DomainError, match="finite"):
        extend_de(ident, np.array([0.1, complex(math.nan, 0.2), 0.3j]))
    with pytest.raises(DomainError, match="finite"):
        de_defect(ident, 0.0, complex(math.inf, 0.0))
    # the first offending point in order is named
    with pytest.raises(DomainError, match=r"z=\(1\.5\+0j\)"):
        extend_de(ident, np.array([0.1, 1.5, 2.0]))


def test_near_identity_solution_stays_small(rng):
    f = small_perturbation(rng, scale=0.02)
    w = extend_de(f, 0.0)
    assert abs(w) < 0.2


def test_spectral_convergence_in_nodes(rng):
    f = small_perturbation(rng)
    for z in (0.0, 0.3 - 0.2j):
        w256 = extend_de(f, z, n_nodes=256)
        w512 = extend_de(f, z, n_nodes=512)
        assert abs(w512 - w256) <= 1e-8


# -- conformal naturality ----------------------------------------------------------

def test_naturality_identity_mobius(rng):
    f = small_perturbation(rng)
    m = MobiusAutomorphism(0.0, 0.0)
    for mode in ("pre", "post"):
        assert de_naturality_residual(f, m, 0.2 + 0.1j, mode=mode) <= 2e-10


def test_naturality_identity_circle_map(rng):
    m = random_mobius(rng)
    for z in (0.0, 0.4, -0.2 + 0.3j):
        for mode in ("pre", "post"):
            r = de_naturality_residual(CircleMap.identity(), m, z, mode=mode)
            assert r <= 1e-6


def test_naturality_random(rng):
    for _ in range(5):
        f = small_perturbation(rng)
        m = random_mobius(rng, c_max=0.45)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert de_naturality_residual(f, m, z, mode="post") <= 1e-5
        assert de_naturality_residual(f, m, z, mode="pre") <= 1e-5
    # a point array gives each point the bits of its scalar call
    zs = np.array([Z_SET[:3], (*Z_SET[3:], 0.2 - 0.1j)])
    for mode in ("post", "pre"):
        rs = de_naturality_residual(f, m, zs, mode=mode)
        scalars = [de_naturality_residual(f, m, z, mode=mode) for z in zs.ravel().tolist()]
        assert rs.shape == zs.shape and all(type(r) is float for r in scalars)
        assert np.array_equal(rs.ravel(), scalars)


def test_mobius_and_naturality_residual_give_array_elements_their_scalar_bits(rng):
    # m and the residual's modulus take one array path: a scalar is its 0-d
    # case, not numpy scalar math, which rounds complex division apart
    for _ in range(40):
        f = small_perturbation(rng)
        m = random_mobius(rng)
        zs = rng.uniform(-0.5, 0.5, (2, 3)) + 1j * rng.uniform(-0.5, 0.5, (2, 3))
        points = zs.ravel().tolist()
        ws = m(zs)
        assert ws.shape == zs.shape
        assert np.array_equal(ws.ravel(), [m(z) for z in points])
        assert type(m(points[0])) is complex
        for mode in ("post", "pre"):
            rs = de_naturality_residual(f, m, zs, mode=mode)
            assert np.array_equal(
                rs.ravel(), [de_naturality_residual(f, m, z, mode=mode) for z in points])


def test_compose_circle_lift_order(rng):
    f = small_perturbation(rng)
    m = random_mobius(rng)
    mf = compose_circle(m.boundary(), f)
    t = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    assert np.max(np.abs(mf.values(t) - m(f.values(t)))) <= 1e-12


def test_circle_map_descriptions():
    cases = [
        ({"kind": "circle-identity"}, CircleMap.identity()),
        ({"kind": "circle-rotation", "angle": 0.7}, CircleMap.rotation(0.7)),
        ({"kind": "circle-fourier", "rotation": 0.1, "cos": [0.05], "sin": [0.03]},
         CircleMap.from_fourier(0.1, cos_amps=[0.05], sin_amps=[0.03])),
        ({"kind": "circle-fourier"}, CircleMap.identity()),
        ({"kind": "circle-mobius", "angle": 0.3, "center": [0.2, -0.1]},
         MobiusAutomorphism(0.3, 0.2 - 0.1j).boundary()),
        ({"kind": "circle-mobius", "center": [0.2, -0.1]},
         MobiusAutomorphism(0.0, 0.2 - 0.1j).boundary()),
    ]
    registered = {k for k, (family, _, _) in KINDS.items() if family == "circle-map"}
    assert {d["kind"] for d, _ in cases} == registered
    t = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    zs = np.array([0.0, 0.2 + 0.1j, -0.5j])
    for desc, ref in cases:
        f = circle_map_from_dict(desc)
        assert np.array_equal(f.values(t), ref.values(t))
        assert np.array_equal(extend_de(f, zs), extend_de(ref, zs))
    assert abs(extend_de(circle_map_from_dict(cases[0][0]), 0.2) - 0.2) <= 1e-10
    bad = [{"kind": "nope"}, {"kind": "affine", "slope": 1.0}, {"angle": 0.1}, [],
           {"kind": "circle-rotation"},
           {"kind": "circle-rotation", "angle": 0.1, "bogus": 1},
           {"kind": "circle-fourier", "sin": 0.1},
           {"kind": "circle-mobius", "center": [0.1]},
           {"kind": "circle-mobius", "center": [0.1, math.nan]}]
    for desc in bad:
        with pytest.raises(DomainError):
            circle_map_from_dict(desc)
