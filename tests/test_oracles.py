"""Tolerances checked against an independent high-precision oracle.

A power integral claims its values to ``quad_tol``.  The oracle evaluates
the base map's slope in mpmath at 30 digits, from the map's parameters,
and integrates its power with ``mp.quad`` split at the base's breakpoints
(and at the knots of a sampled map, whose slope is piecewise quadratic).
"""

import mpmath as mp
import numpy as np
import pytest

from qcext.analysis import dilatation_values
from qcext.decompose import TOL, decompose_bilip
from qcext.extensions import ExtParams
from qcext.realmap import (_VALUE_TOL, Affine, BumpProfile, Composition,
                           IdentityPlusBump, InverseMap, PowerIntegral,
                           SampledMonotone, Tapered, bump_map)

mp.mp.dps = 30


def mp_value_and_slope(f, x):
    """(f(x), f'(x)) at the mpf x, in mpmath arithmetic."""
    if isinstance(f, Affine):
        return f.slope * x + f.intercept, mp.mpf(f.slope)
    if isinstance(f, IdentityPlusBump):
        v, d = x, mp.mpf(1)
        for b in f.bumps:
            t = (x - b.center) / b.halfwidth
            if abs(t) < 1:
                u = 1 - t * t
                v += b.amplitude * u ** 3
                d += b.amplitude / b.halfwidth * (-6) * t * u ** 2
        return v, d
    if isinstance(f, Composition):
        vi, di = mp_value_and_slope(f.inner, x)
        vo, do = mp_value_and_slope(f.outer, vi)
        return vo, do * di
    if isinstance(f, Tapered):
        v, d = mp_value_and_slope(f.base, x)
        T = mp.mpf(f.plateau)
        u = min(max((2 * T - abs(x)) / T, 0), 1)
        psi = u * u * (3 - 2 * u)
        dpsi = -mp.sign(x) * 6 * u * (1 - u) / T if T < abs(x) < 2 * T else 0
        return x + (v - x) * psi, 1 + (d - 1) * psi + (v - x) * dpsi
    if isinstance(f, SampledMonotone):
        xs, ys = f.xs, f.ys
        if x < xs[0] or x > xs[-1]:  # the affine continuation
            k = 0 if x < xs[0] else -1
            d = mp_value_and_slope(f, mp.mpf(xs[k]))[1]
            return ys[k] + d * (x - xs[k]), d
        i = min(int(np.searchsorted(xs, float(x), side="right")) - 1, xs.size - 2)
        c3, c2, c1, c0 = (mp.mpf(c) for c in f._c[:, i])
        s = x - xs[i]
        return ((c3 * s + c2) * s + c1) * s + c0, (3 * c3 * s + 2 * c2) * s + c1
    raise TypeError(f.kind)


def mp_power_integral(base, exponent, x):
    """int_0^x base'(t)**exponent dt by mp.quad, split at the kinks."""
    kinks = list(base.breakpoints())
    if isinstance(base, SampledMonotone):
        kinks += list(base.xs)
    lo, hi = sorted((0.0, x))
    pts = [lo, *sorted(k for k in kinks if lo < k < hi), hi]
    total = mp.quad(lambda t: mp_value_and_slope(base, t)[1] ** exponent,
                    [mp.mpf(p) for p in pts])
    return total if x >= 0 else -total


BASES = {
    "bump": lambda: IdentityPlusBump([BumpProfile(0.3, 1.2, 0.3)]),
    "affine-bump": lambda: Composition(Affine(1.4, -0.3), IdentityPlusBump(
        [BumpProfile(-0.5, 2.0, 0.2), BumpProfile(0.7, 1.5, -0.15)])),
    "sampled": lambda: SampledMonotone(np.linspace(-3.0, 3.0, 9),
                                       np.linspace(-3.0, 3.0, 9)
                                       + 0.3 * np.sin(np.linspace(-3.0, 3.0, 9))),
    "tapered": lambda: Tapered(Composition(Affine(1.05, 0.1),
                                           IdentityPlusBump([BumpProfile(0.0, 1.0, 0.2)])),
                               1.5),
}
POINTS = (-3.7, -0.9, 0.45, 2.6)


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("exponent", (-2.0, -0.7, 0.5, 2.0))
def test_power_integral_within_quad_tol_of_mpmath(kind, exponent):
    alone = PowerIntegral(BASES[kind](), exponent)
    shared = BASES[kind]()
    PowerIntegral(shared, 1.3)(np.array([-8.0, 8.0]))  # first on the base
    second = PowerIntegral(shared, exponent)
    for x in POINTS:
        ref = mp_power_integral(alone.base, exponent, x)
        for f in (alone, second):
            assert abs(f(x) - ref) <= f.quad_tol, (x, f(x), ref)


# -- inversion ---------------------------------------------------------------------

INVERTED_INTEGRALS = (("bump", 0.5), ("affine-bump", -0.7), ("sampled", 2.0))


def _targets(f):
    """0, a table-edge value (0.75 is a coarse edge of every power-integral
    table), values inside the bumps and values far outside them."""
    return np.array([0.0, f(0.75), -0.4, 1.3, -40.0, 40.0])


@pytest.mark.parametrize("kind, exponent",
                         [(kind, None) for kind in sorted(BASES)] + list(INVERTED_INTEGRALS))
def test_inverse_values_meet_the_value_tolerance_in_mpmath(kind, exponent):
    base = BASES[kind]()
    if exponent is None:
        f, exact = base, lambda x: mp_value_and_slope(base, x)[0]
    else:
        f, exact = PowerIntegral(base, exponent), lambda x: mp_power_integral(
            base, exponent, x)
    ys = _targets(f)
    xs = InverseMap(f)(ys)
    for x, y in zip(xs, ys):
        assert abs(exact(mp.mpf(float(x))) - y) <= _VALUE_TOL, (x, y)


# -- decomposition -----------------------------------------------------------------

def _dense_with_neighbours(lo, hi, kinks):
    """An even grid of [lo, hi] with each kink and the floats next to it."""
    kinks = np.asarray(kinks, dtype=float)
    return np.unique(np.concatenate([np.linspace(lo, hi, 2001), kinks,
                                     np.nextafter(kinks, -np.inf),
                                     np.nextafter(kinks, np.inf)]))


@pytest.mark.parametrize("f, lo, hi", [
    (bump_map(0.4, 1.5, 0.5), -6.0, 6.0),
    (Composition(Affine(1.3, 0.4), IdentityPlusBump(
        [BumpProfile(-0.5, 1.5, 0.4), BumpProfile(1.0, 2.0, -0.3)])), -6.0, 6.0),
    (bump_map(50.0, 1.0, 0.3), 45.0, 55.0),
], ids=["bump", "affine-two-bump", "bump-at-50"])
@pytest.mark.parametrize("eps0", (0.05, 0.2))
def test_decomposition_factors_and_recomposition_against_mpmath(f, lo, hi, eps0):
    fac = decompose_bilip(f, eps0)
    assert len(fac) > 1
    xs = _dense_with_neighbours(lo, hi, f.breakpoints())
    u = xs
    for m in reversed(fac.factors):  # innermost first
        assert np.all(np.abs(m.deriv(u) - 1.0) < eps0), m.to_dict()
        u = m(u)
    exact = np.array([float(mp_value_and_slope(f, mp.mpf(x))[0]) for x in xs])
    assert np.max(np.abs(u - exact)) <= TOL
    if lo > 10.0:  # decompose_bilip checks [-10, 10] only, where f is the identity
        assert fac.recomposition_error == 0.0


def test_alpha_zero_dilatation_past_the_square_of_a_against_mpmath():
    # 1 + a * a overflows at a = 2e154: the dilatation is 0 where f'' is 0
    # (x + a y past the support) and about 1 where it is not (x + a y = 0)
    c, h, amp, a = 0.2, 1.0, 0.3, 2e154
    zs = [0.5 + 1j, 3.0 + 1j, complex(-a, 1.0), complex(-a * 0.5, 0.5)]
    got = dilatation_values(bump_map(c, h, amp), ExtParams(a, 0.0), zs)[0]

    def exact(z):  # (1 + a^2) |y f''(u)| / |2 f'(u) + i (1 + a^2) y f''(u)|, u = x + a y
        x, y = mp.mpf(z.real), mp.mpf(z.imag)
        t = (x + a * y - c) / h
        d1, d2 = mp.mpf(1), mp.mpf(0)
        if abs(t) < 1:
            d1 += amp / h * -6 * t * (1 - t * t) ** 2
            d2 = amp / h ** 2 * -6 * (1 - t * t) * (1 - 5 * t * t)
        s = 1 + mp.mpf(a) ** 2
        return s * abs(y * d2) / abs(2 * d1 + 1j * s * y * d2)

    ref = [float(exact(z)) for z in zs]
    assert ref[:2] == [0.0, 0.0] and ref[2:] == [1.0, 1.0]
    assert got.tolist() == ref


def test_alpha_zero_dilatation_where_the_scaled_product_overflows_against_mpmath():
    # 1 + a * a is finite, but (1 + a * a) y f''(u) is not from a = 1e150 on:
    # there the form is divided through by 1 + a * a at that point alone
    c, h, amp, y = 0.0, 1e-5, 1e-6, 1e4
    f = bump_map(c, h, amp)
    for a in (1e140, 1e145, 1e149, 1e150, 1e152, 1e154):
        z = complex(-a * y, y)
        u = z.real + a * y  # 0, as the library rounds it
        with mp.workdps(40):
            t = (mp.mpf(u) - c) / h
            d1 = 1 + amp / h * -6 * t * (1 - t * t) ** 2
            d2 = amp / h ** 2 * -6 * (1 - t * t) * (1 - 5 * t * t)
            s = 1 + mp.mpf(a) ** 2
            exact = float(s * abs(y * d2) / abs(2 * d1 + 1j * s * y * d2))
        got = dilatation_values(f, ExtParams(a, 0.0), z)[0]
        assert abs(got - exact) <= 1e-15 * exact, a
