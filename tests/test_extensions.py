"""Tests for the shear-extension family and its group action."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcext.analysis import (boundary_constant, dilatation_values, half_plane_grid,
                            sigma_factor)
from qcext.errors import DomainError
from qcext.extensions import (ExtParams, act, extend_family, extend_ns,
                              group_inv, group_mul, shear)
from qcext.realmap import Affine, BumpProfile, Composition, IdentityPlusBump, bump_map
from conftest import make_bump_map, make_params


# -- shear ----------------------------------------------------------------------

def test_shear_direct_substitution():
    assert shear(1.0, 2.0, 1j) == 1.0 + 2.0j


def test_shear_identity():
    z = 0.4 + 0.9j
    assert shear(0.0, 1.0, z) == z


def test_shear_algebraic_inverse(rng):
    for _ in range(25):
        a = float(rng.uniform(-3, 3))
        alpha = float(rng.uniform(0.1, 5))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        back = shear(-a / alpha, 1.0 / alpha, shear(a, alpha, z))
        assert abs(back - z) <= 1e-14 * (1 + abs(z))


def test_shear_rejects_bad_alpha():
    with pytest.raises(DomainError):
        shear(1.0, 0.0, 1j)
    with pytest.raises(DomainError):
        shear(1.0, -2.0, 1j)
    with pytest.raises(DomainError):
        shear(1.0, 1.0, 1.0 - 0.5j)
    with pytest.raises(DomainError, match="finite"):
        shear(1.0, 1.0, complex(math.nan, 0.5))
    with pytest.raises(DomainError, match="finite"):
        act(ExtParams(1.0, 2.0), extend_ns, Affine(1.0), complex(0.0, math.inf))


# -- group ----------------------------------------------------------------------

def test_group_neutral_element():
    g = ExtParams(0.7, 1.9)
    e = ExtParams(0.0, 1.0)
    assert group_mul(e, g) == g
    assert group_mul(g, e) == g


def test_group_inverse_value():
    g = ExtParams(1.0, 2.0)
    gi = group_inv(g)
    assert gi == ExtParams(-0.5, 0.5)
    prod = group_mul(g, gi)
    assert abs(prod.a) <= 1e-14 and abs(prod.alpha - 1.0) <= 1e-14


def test_group_associativity(rng):
    for _ in range(30):
        g1, g2, g3 = (make_params(rng, alpha_range=(0.2, 4.0)) for _ in range(3))
        lhs = group_mul(group_mul(g1, g2), g3)
        rhs = group_mul(g1, group_mul(g2, g3))
        assert lhs.a == pytest.approx(rhs.a, rel=1e-12, abs=1e-12)
        assert lhs.alpha == pytest.approx(rhs.alpha, rel=1e-12)


def test_group_inverse_involution(rng):
    for _ in range(20):
        g = make_params(rng)
        gg = group_inv(group_inv(g))
        assert gg.a == pytest.approx(g.a, rel=1e-12, abs=1e-12)
        assert gg.alpha == pytest.approx(g.alpha, rel=1e-12)


def test_group_rejects_alpha_zero():
    flat = ExtParams(1.0, 0.0)
    with pytest.raises(DomainError):
        group_inv(flat)
    with pytest.raises(DomainError):
        group_mul(flat, ExtParams(0.0, 1.0))
    with pytest.raises(DomainError):
        ExtParams(0.0, -1.0)


# -- the family -------------------------------------------------------------------

def test_affine_fixing_across_alpha(rng):
    grid = half_plane_grid()
    for _ in range(20):
        a = float(rng.uniform(-3, 3))
        alpha = float(rng.choice([0.0, rng.uniform(0.05, 10.0)]))
        sl = float(rng.uniform(0.1, 5.0))
        ic = float(rng.uniform(-5, 5))
        f = Affine(sl, ic)
        vals = extend_family(ExtParams(a, alpha), f, grid)
        assert np.max(np.abs(vals - (sl * grid + ic))) <= 1e-12


def test_known_members():
    f = bump_map(0.0, 1.0, 0.3)
    z = 0.3 + 0.7j
    x, y = z.real, z.imag
    # (0, 1) member
    v = extend_family(ExtParams(0.0, 1.0), f, z)
    assert v == pytest.approx(f(x) + 1j * (f(x) - f(x - y)), abs=1e-15)
    # (1, 2) member
    v = extend_family(ExtParams(1.0, 2.0), f, z)
    expect = 0.5 * (f(x + y) + f(x - y)) + 0.5j * (f(x + y) - f(x - y))
    assert v == pytest.approx(expect, abs=1e-15)
    # (0, 0) member
    v = extend_family(ExtParams(0.0, 0.0), f, z)
    assert v == pytest.approx(f(x) + 1j * y * f.deriv(x), abs=1e-15)
    # (a, 0) limiting form
    v = extend_family(ExtParams(0.7, 0.0), f, z)
    u = x + 0.7 * y
    assert v == pytest.approx(f(u) - 0.7 * y * f.deriv(u) + 1j * y * f.deriv(u),
                              abs=1e-15)


def test_ns_equals_family_member():
    f = bump_map(0.3, 1.2, 0.25)
    p = ExtParams(1.0, 2.0)
    assert extend_ns(Affine(1.0), 0.5 + 1.5j) == 0.5 + 1.5j
    assert extend_ns(Affine(2.0, 0.0), 0.5 + 1.5j) == 1.0 + 3.0j
    for z in half_plane_grid(nx=5, ny=5):
        assert abs(extend_ns(f, complex(z)) - extend_family(p, f, complex(z))) <= 1e-15


def test_family_member_is_the_two_node_average_of_the_paper(rng):
    # F(x + iy) = A1 f(x + s y) + A2 f(x + t y) with nodes s = a, t = a - alpha
    # and weights A1 = (i - t)/(s - t), A2 = (s - i)/(s - t); then
    # mu = sum A_j (1 + i t_j) f'_j / sum A_j (1 - i t_j) f'_j, and the
    # weights' form Q12 = -2 (t1 - t2) Im(A1 conj(A2)) is -2
    for _ in range(50):
        p, f = make_params(rng), make_bump_map(rng)
        s, t = p.a, p.a - p.alpha
        A1, A2 = (1j - t) / (s - t), (s - 1j) / (s - t)
        z = rng.uniform(-4.0, 4.0, 40) + 1j * rng.uniform(0.05, 3.0, 40)
        x, y = z.real, z.imag
        F = extend_family(p, f, z)
        node_form = A1 * f(x + s * y) + A2 * f(x + t * y)
        assert np.all(np.abs(F - node_form) <= 1e-14 * np.maximum(1.0, np.abs(F)))
        d1, d2 = f.deriv(x + s * y), f.deriv(x + t * y)
        mu = np.abs((A1 * (1 + 1j * s) * d1 + A2 * (1 + 1j * t) * d2)
                    / (A1 * (1 - 1j * s) * d1 + A2 * (1 - 1j * t) * d2))
        closed = dilatation_values(f, p, z)[0]
        assert np.all(np.abs(mu - closed) <= 1e-14)  # |mu| < 1
        assert -2.0 * (s - t) * (A1 * np.conj(A2)).imag == pytest.approx(-2.0, rel=1e-14)


def test_family_preserves_upper_half_plane(rng):
    grid = half_plane_grid()
    for _ in range(10):
        f = make_bump_map(rng)
        p = make_params(rng, alpha_range=(0.1, 6.0))
        assert np.min(np.imag(extend_family(p, f, grid))) > 0


def test_family_rejects_boundary_points():
    f = bump_map(0.0, 1.0, 0.3)
    for extension in (functools.partial(extend_family, ExtParams(1.0, 2.0)),
                      functools.partial(extend_family, ExtParams(0.4, 0.0)), extend_ns):
        with pytest.raises(DomainError, match="upper half-plane"):
            extension(f, 1.0 + 0.0j)
        for z in (complex(math.nan, 1.0), complex(0.0, math.inf),
                  complex(math.inf, 1.0), complex(math.nan, math.nan)):
            with pytest.raises(DomainError, match="finite"):
                extension(f, z)
        # the first offending point in C order is named
        with pytest.raises(DomainError, match=r"z=\(2-1j\)"):
            extension(f, np.array([[1j, 2 - 1j], [complex(math.nan, 1.0), 3j]]))


def test_family_refuses_a_value_that_overflows():
    # finite points whose value leaves the float range: a DomainError naming
    # the first, in C order, and no numpy warning (warnings are errors here)
    doubling = Affine(2.0)
    zs = np.array([[1 + 1j, 1e308 + 1j], [-1e308 + 2j, 3j]])
    for extension in (extend_ns, functools.partial(extend_family, ExtParams(0.5, 1.0))):
        with pytest.raises(DomainError, match=r"^extension at z=\(1e\+308\+1j\) "
                                              "overflows in floating point$"):
            extension(doubling, zs)
    with pytest.raises(DomainError, match=r"z=\(1\+1e\+308j\) overflows"):
        extend_family(ExtParams(0.0, 0.0), doubling, 1 + 1e308j)
    with pytest.raises(DomainError, match=r"z=\(-2\+0\.01j\) overflows"):
        extend_family(ExtParams(1e300, 1.0), bump_map(0.0, 1.0, 0.3), -2 + 0.01j)


def test_scalar_calls_equal_array_call_bit_for_bit(rng):
    grid = half_plane_grid(-3.0, 3.0, 1e-3, 5.0, 12, 12)
    for _ in range(5):
        f = make_bump_map(rng)
        for p in (make_params(rng), make_params(rng), ExtParams(0.7, 0.0),
                  ExtParams(0.0, 0.0)):
            vals = extend_family(p, f, grid)
            for z, v in zip(grid, vals):
                w = extend_family(p, f, complex(z))
                assert (w.real, w.imag) == (v.real, v.imag)
        vals = extend_ns(f, grid)
        for z, v in zip(grid, vals):
            w = extend_ns(f, complex(z))
            assert (w.real, w.imag) == (v.real, v.imag)


# -- the action -------------------------------------------------------------------

def test_orbit_identity_on_grid(rng):
    grid = half_plane_grid()
    e01 = functools.partial(extend_family, ExtParams(0.0, 1.0))
    for _ in range(15):
        f = make_bump_map(rng)
        p = make_params(rng, alpha_range=(0.2, 5.0))
        lhs = act(p, e01, f, grid)
        rhs = extend_family(p, f, grid)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_action_neutral_element(rng):
    f = make_bump_map(rng)
    base = functools.partial(extend_family, ExtParams(0.6, 1.4))
    z = -0.3 + 0.8j
    assert abs(act(ExtParams(0.0, 1.0), base, f, z) - base(f, z)) <= 1e-14


def test_action_rejects_lower_half_plane_values():
    def bad_extension(f, z):
        return np.conj(z)  # lands below the axis

    with pytest.raises(DomainError):
        act(ExtParams(1.0, 2.0), bad_extension, Affine(1.0), 0.2 + 0.5j)


def test_action_refuses_a_value_that_overflows():
    def huge_extension(f, z):
        return 1e308 * z  # finite, in the upper half-plane

    # the outer shear doubles Im w = 1e308 at z = 1 + 1j
    with pytest.raises(DomainError, match=r"^extension at z=\(1\+1j\) overflows"):
        act(ExtParams(1.0, 0.5), huge_extension, Affine(1.0), np.array([0.5j, 1 + 1j]))
    # the inner shear x + 1e300 y overflows: named by the point given
    with pytest.raises(DomainError, match=r"^extension at z=\(1\+10000000000j\) overflows"):
        act(ExtParams(1e300, 1.0), extend_ns, Affine(1.0), 1 + 1e10j)


def test_action_is_compatible_with_group_law(rng):
    # g1 (g2 E) = (g1 g2) E pointwise
    base = functools.partial(extend_family, ExtParams(0.0, 1.0))
    for _ in range(10):
        f = make_bump_map(rng)
        g1 = make_params(rng, alpha_range=(0.3, 3.0))
        g2 = make_params(rng, alpha_range=(0.3, 3.0))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))

        def inner(fm, w, _g2=g2):
            return act(_g2, base, fm, w)

        lhs = act(g1, inner, f, z)
        rhs = act(group_mul(g1, g2), base, f, z)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(rhs))


# -- admissibility properties -------------------------------------------------------

def test_homomorphism_identity_is_exact(rng):
    from qcext.analysis import homomorphism_residual
    grid = half_plane_grid()
    scale = 1e-10 * (1 + float(np.max(np.abs(grid))))
    for _ in range(10):
        f, g = make_bump_map(rng), make_bump_map(rng)
        p = make_params(rng)
        assert homomorphism_residual(p, f, g, grid) <= scale


def test_boundary_limit_linear_in_y(rng):
    from qcext.analysis import boundary_residual
    for _ in range(10):
        f = make_bump_map(rng)
        p = make_params(rng, a_range=(-1.0, 1.0), alpha_range=(0.5, 5.0))
        c = boundary_constant(p, f.deriv_hi)
        for y in (1e-1, 1e-2, 1e-3):
            assert boundary_residual(p, f, (-1.0, 1.0), y) <= c * y


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-4.0, 4.0), alpha=st.floats(0.05, 8.0),
       b=st.floats(-4.0, 4.0), beta=st.floats(0.05, 8.0))
def test_property_group_inverse_cancels(a, alpha, b, beta):
    g1, g2 = ExtParams(a, alpha), ExtParams(b, beta)
    prod = group_mul(group_mul(g1, g2), group_inv(g2))
    assert prod.a == pytest.approx(g1.a, rel=1e-9, abs=1e-9)
    assert prod.alpha == pytest.approx(g1.alpha, rel=1e-9)


# -- the nodes own the sample points, bit for bit ---------------------------------

def _written_out_family(p, f, z):
    """extend_family as written before the nodes (a, a - alpha) chose the
    sample points: x + a y and x - (alpha - a) y."""
    x, y, a, alpha = z.real, z.imag, p.a, p.alpha
    if alpha > 0:
        fu1, fu2 = f(x + a * y), f(x - (alpha - a) * y)
        return (1.0 - a / alpha) * fu1 + (a / alpha) * fu2 + 1j * ((fu1 - fu2) / alpha)
    u = x + a * y
    d = f.deriv(u)
    return f(u) - a * y * d + 1j * y * d


def _written_out_dilatation(p, f, z):
    """dilatation_values as written before the nodes chose the sample points."""
    x, y, a, al = z.real, z.imag, p.a, p.alpha
    if al > 0:
        d1, d2 = f.deriv(x + a * y), f.deriv(x - (al - a) * y)
        ok = (d1 > 0) & (d2 >= 0)
        theta = d2 / np.where(ok, d1, 1.0)
        val = np.abs(1.0 - theta) / np.abs(1.0 - sigma_factor(p) * theta)
    else:
        u = x + a * y
        d1 = f.deriv(u)
        ok = d1 > 0
        d2 = f.second_deriv(u)
        scale = 1.0 + a * a
        val = (scale * np.abs(y * d2)
               / np.abs(2.0 * np.where(ok, d1, 1.0) + 1j * scale * y * d2))
        theta = np.ones_like(val)
    return np.where(ok, val, np.nan), theta


NODE_MAP = Composition(Affine(1.3, -0.2), IdentityPlusBump(
    [BumpProfile(-0.7, 0.9, 0.12), BumpProfile(0.8, 1.4, -0.2)]))
NODE_GRID = half_plane_grid(-2.5, 2.5, 1e-3, 3.0, 9, 7)


def _bits(v):
    return np.asarray(v, dtype=complex).view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1e3, 1e3),
       alpha=st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-3, 2.0)))
def test_property_nodes_keep_the_family_and_its_dilatation_bit_for_bit(a, alpha):
    p = ExtParams(a, alpha)
    assert p.nodes == (a, a - alpha)
    assert _bits(extend_family(p, NODE_MAP, NODE_GRID)) == _bits(
        _written_out_family(p, NODE_MAP, NODE_GRID))
    for got, ref in zip(dilatation_values(NODE_MAP, p, NODE_GRID),
                        _written_out_dilatation(p, NODE_MAP, NODE_GRID)):
        assert _bits(got) == _bits(ref)
