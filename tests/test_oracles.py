"""Tolerances checked against an independent high-precision oracle.

A power integral claims its values to ``quad_tol``.  The oracle evaluates
the base map's slope in mpmath at 30 digits, from the map's parameters,
and integrates its power with ``mp.quad`` split at the base's breakpoints
(and at the knots of a sampled map, whose slope is piecewise quadratic).
"""

import mpmath as mp
import numpy as np
import pytest

from qcext.realmap import (Affine, BumpProfile, Composition, IdentityPlusBump,
                           PowerIntegral, SampledMonotone, Tapered)

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
