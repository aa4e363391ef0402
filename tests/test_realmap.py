"""Tests for the certified-monotone map algebra."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcext.realmap as realmap
from qcext.analysis import QuadraticWindowMap
from qcext.errors import DomainError, NonConvergence, QuadratureFailure
from qcext.quadrature import panel_integrals, panel_samples
from qcext.realmap import (Affine, BUMP_SLOPE_MAX, BumpProfile, Composition,
                           IdentityPlusBump, InverseMap, PowerIntegral,
                           SampledMonotone, Tapered, _invert_array, bump_map,
                           map_from_dict)
from conftest import make_bump_map


def counted(monkeypatch, obj, name):
    """Record the calls of ``obj.name`` in the returned list."""
    calls = []
    method = getattr(obj, name)

    def call(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(obj, name, call)
    return calls


def invert_array(f, ys, tol):
    """f^{-1} at the flat array ys, to the residual tol: what an inverse map
    computes, with ``realmap._VALUE_TOL`` set to the caller's tolerance."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realmap, "_VALUE_TOL", tol)
        return _invert_array(f, ys)


def invert(f, y, tol):
    """f^{-1}(y) for a float y, to the residual tol."""
    return invert_array(f, np.array([y], dtype=float), tol).item()


def sample_maps(rng):
    """A handful of maps covering every constructor."""
    g = bump_map(0.0, 1.0, 0.3)
    return [
        Affine(2.0, 1.0),
        g,
        IdentityPlusBump([BumpProfile(-2.0, 0.8, 0.1), BumpProfile(2.0, 1.2, -0.2)]),
        Composition(Affine(1.5, -0.5), g),
        PowerIntegral(g, 0.7),
        Tapered(Composition(Affine(1.05, 0.1), bump_map(0.0, 1.0, 0.15)), 3.0),
        InverseMap(Composition(Affine(1.5, -0.5), g)),
        SampledMonotone(np.linspace(-3, 3, 25),
                        np.linspace(-3, 3, 25) + 0.3 * np.sin(np.linspace(-3, 3, 25))),
        make_bump_map(rng),
    ]


# -- evaluation ---------------------------------------------------------------

def test_eval_affine():
    assert Affine(2.0, 1.0)(3.0) == 7.0


def test_eval_zero_bump_is_identity():
    f = bump_map(0.0, 1.0, 0.0)
    assert f(5.0) == 5.0
    assert f.deriv_bounds() == (1.0, 1.0)


def test_eval_composed_affines():
    f = Composition(Affine(2.0, 0.0), Affine(1.0, 1.0))
    assert f(0.0) == 2.0


def test_eval_accepts_arrays():
    f = bump_map(0.0, 1.0, 0.3)
    xs = np.linspace(-2, 2, 7)
    vals = f(xs)
    assert vals.shape == xs.shape
    assert vals[0] == f(float(xs[0]))


# -- derivatives --------------------------------------------------------------

def test_deriv_affine_constant():
    f = Affine(3.5, -1.0)
    for x in (-10.0, 0.0, 4.2):
        assert f.deriv(x) == 3.5


def test_deriv_bump_outside_support():
    f = bump_map(0.0, 1.0, 0.3)
    assert f.deriv(2.0) == 1.0
    assert f.deriv(-1.5) == 1.0


def test_bump_terms_are_added_in_order_as_whole_arrays_would_be():
    # each bump's term, 0 off its support, added to the running sum in bump
    # order: the bits the in-place sum on each support must give, -0.0 included
    for f in (IdentityPlusBump([BumpProfile(0.5, 1.0, 0.2), BumpProfile(-0.2, 0.7, -0.1)]),
              IdentityPlusBump([BumpProfile(2.0, 0.5, 0.1), BumpProfile(-2.0, 0.5, -0.1)])):
        x = np.concatenate([[-0.0, 0.0, 1.5, -0.9, 2.5], np.linspace(-3.0, 3.0, 601)])
        want = [x, np.ones_like(x), np.zeros_like(x)]
        for b in f.bumps:
            t = (x - b.center) / b.halfwidth
            m = np.abs(t) < 1.0
            tm = t[m]
            um = 1.0 - tm * tm
            k = b.amplitude / b.halfwidth
            for i, term in enumerate((b.amplitude * um * um * um, k * (-6.0) * tm * um * um,
                                      b.amplitude / b.halfwidth ** 2 * 6.0 * um * (5.0 * tm * tm - 1.0))):
                full = np.zeros_like(x)
                full[m] = term
                want[i] = want[i] + full
        for got, ref in zip((f(x), f.deriv(x), f.second_deriv(x)), want):
            assert got.tobytes() == ref.tobytes()
    assert math.copysign(1.0, f(-0.0)) == 1.0  # off every support, -0.0 + 0.0


def test_deriv_matches_centered_differences(rng):
    f = Composition(Affine(1.3, 0.2), bump_map(0.0, 1.0, 0.3))
    h = 1e-5
    for x in rng.uniform(-2, 2, 10):
        fd = (f(x + h) - f(x - h)) / (2 * h)
        assert abs(fd - f.deriv(x)) <= 10 * h * h


def test_deriv_second_order_convergence():
    f = bump_map(0.0, 1.0, 0.3)
    x = 0.37  # inside the support, away from flat spots
    def err(h):
        return abs((f(x + h) - f(x - h)) / (2 * h) - f.deriv(x))
    ratio = err(1e-3) / err(5e-4)
    assert 3.5 <= ratio <= 4.5


# -- certified bounds ----------------------------------------------------------

def test_bounds_affine():
    assert Affine(2.0, 3.0).deriv_bounds() == (2.0, 2.0)


def test_bounds_bump_closed_form():
    eps = 0.21
    f = bump_map(0.0, 1.0, eps)
    # maximize |p'(t)| = |-6 t (1-t^2)^2| at the closed-form critical point
    t_star = 1.0 / math.sqrt(5.0)
    m_p = abs(-6.0 * t_star * (1.0 - t_star * t_star) ** 2)
    assert m_p == pytest.approx(BUMP_SLOPE_MAX, rel=1e-15)
    lo, hi = f.deriv_bounds()
    assert lo == pytest.approx(1.0 - eps * m_p, rel=1e-14)
    assert hi == pytest.approx(1.0 + eps * m_p, rel=1e-14)


def test_bounds_compose_interval_product():
    f = Composition(Affine(2.0, 0.0), Affine(3.0, 1.0))
    assert f.deriv_bounds() == (6.0, 6.0)
    g = bump_map(0.0, 1.0, 0.2)
    h = Composition(Affine(2.0, 0.0), g)
    blo, bhi = g.deriv_bounds()
    assert h.deriv_bounds() == (2.0 * blo, 2.0 * bhi)


def test_bounds_certified_by_dense_sampling(rng):
    xs = np.linspace(-100, 100, 4001)
    for f in sample_maps(rng):
        lo, hi = f.deriv_bounds()
        d = f.deriv(xs)
        assert d.min() >= lo - 1e-12
        assert d.max() <= hi + 1e-12


def test_monotone_on_dense_samples(rng):
    xs = np.linspace(-50, 50, 2001)
    for f in sample_maps(rng):
        assert np.all(np.diff(f(xs)) > 0)


def test_rejects_nonpositive_lower_bound():
    with pytest.raises(DomainError):
        bump_map(0.0, 1.0, 0.7)  # slope sup 0.7 * BUMP_SLOPE_MAX > 1
    with pytest.raises(DomainError):
        Affine(-1.0, 0.0)
    with pytest.raises(DomainError):
        Affine(0.0, 0.0)
    with pytest.raises(DomainError, match="upper bound must be finite"):
        Composition(Affine(1e300), Affine(1e300))


# -- inversion ------------------------------------------------------------------

def test_invert_affine():
    assert invert(Affine(2.0, 1.0), 7.0, 1e-12) == pytest.approx(3.0, abs=1e-12)


def test_invert_identity():
    assert invert(Affine(1.0), math.pi, 1e-12) == pytest.approx(math.pi, abs=1e-12)


def test_invert_against_bisection_oracle():
    f = bump_map(0.0, 1.0, 0.3)
    y = f(0.4)
    # independent oracle: plain bisection on the monotone function
    lo, hi = -5.0, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert invert(f, y, 1e-10) == pytest.approx(oracle, abs=1e-8)
    assert invert(f, y, 1e-10) == pytest.approx(0.4, abs=1e-9)


def test_invert_roundtrip_random(rng):
    tol = 1e-10
    for f in sample_maps(rng):
        if f.deriv_lo < 0.5:
            continue
        for x in rng.uniform(-8, 8, 5):
            x_hat = invert(f, f(float(x)), tol)
            assert abs(x_hat - x) <= 2 * tol


def test_inverse_map_bounds_and_values():
    f = Composition(Affine(2.0, 1.0), bump_map(0.0, 1.0, 0.2))
    inv = InverseMap(f)
    assert inv.deriv_bounds() == (1.0 / f.deriv_hi, 1.0 / f.deriv_lo)
    x = 0.7
    assert inv(f(x)) == pytest.approx(x, abs=1e-9)
    assert inv.deriv(f(x)) == pytest.approx(1.0 / f.deriv(x), rel=1e-8)


def _inversion_maps():
    g = bump_map(0.3, 1.2, 0.3)
    steep = IdentityPlusBump([BumpProfile(-0.5, 0.3, 0.08),
                              BumpProfile(0.6, 0.25, -0.06)])
    return [PowerIntegral(g, 0.6), PowerIntegral(Composition(Affine(1.7, 0.4), g), 0.8),
            PowerIntegral(g, -1.3), g, Composition(Affine(1.5, -0.5), g),
            InverseMap(g),
            # slopes that vary by a factor 12 to 52, where a chord step with a
            # stale slope could leave tol
            PowerIntegral(steep, 3.5), PowerIntegral(steep, -4.0),
            Tapered(Composition(Affine(1.05, 0.1), steep), 0.6),
            # Newton from the slope bracket falls into a two-cycle near y = -2
            # unless steps must shrink
            InverseMap(bump_map(-1.67, 0.49, -0.2629))]


def test_every_newton_pass_lies_in_the_bracket_of_its_point(monkeypatch):
    # the contract of _eval_with_slope, which lets a power integral read its
    # table unchecked: finite points inside the brackets _inverse_start gave
    # (the lists are bound per map: an inverse's own inversions of its base,
    # another map of the list, record on the base)
    for f in _inversion_maps() + [Affine(1.7, -0.4)]:
        brackets, passes = [], []
        start, newton = f._inverse_start, f._eval_with_slope

        def started(y, start=start, brackets=brackets):
            brackets.append(start(y))
            return brackets[-1]

        def passed(x, newton=newton, passes=passes):
            passes.append(x.copy())
            return newton(x)

        monkeypatch.setattr(f, "_inverse_start", started)
        monkeypatch.setattr(f, "_eval_with_slope", passed)
        for y in (-30.0, -2.0, -0.37, 0.0, 1e-3, 0.9, 2.5, 40.0):
            brackets.clear(), passes.clear()
            x = _invert_array(f, np.array([y]))
            (lo, hi, _), = brackets
            assert passes and all(p.shape == (1,) for p in passes)
            xs = np.concatenate(passes)
            assert np.all(np.isfinite(xs)) and np.all((lo <= xs) & (xs <= hi)), (f, y)
            assert lo <= x <= hi


def test_inversion_residual_within_tol_at_every_point():
    ys = np.linspace(-25.0, 25.0, 2001)
    for tol in (1e-8, 1e-11):
        for f in _inversion_maps():
            x = invert_array(f, ys, tol)
            assert np.max(np.abs(f(x) - ys)) <= tol


def test_inversion_at_table_entries_zero_and_beyond_the_table():
    make = lambda: PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    # y = 0 on a fresh table, on a table built only at 0, and through the
    # inverse map all give 0
    assert invert(make(), 0.0, 1e-10) == 0.0
    assert InverseMap(make())(0.0) == 0.0
    assert np.array_equal(InverseMap(make())(np.zeros(3)), np.zeros(3))
    f = make()
    assert f(0.0) == 0.0
    assert invert(f, 0.0, 1e-10) == 0.0
    f = make()
    f(2.0)
    edges, cum, flat = f._table
    # P(edges[i]) == cum[i] bit for bit, so a table entry inverts exactly
    assert np.array_equal(f(edges), cum)
    assert np.array_equal(invert_array(f, cum, 1e-12), edges)
    assert invert(f, 0.0, 1e-12) == 0.0
    # a preimage past the table end grows the table; the held entries stay
    y = f.deriv_hi * 40.0
    x = InverseMap(f)(y)
    assert abs(f(x) - y) <= 1e-11
    edges2, cum2, flat2 = f._table
    assert edges2[-1] >= x
    i = int(np.searchsorted(edges2, edges[0]))
    assert np.array_equal(edges2[i:i + edges.size], edges)
    assert np.array_equal(cum2[i:i + edges.size], cum)
    # the held panels keep their flat row sums; the old last edge now starts
    # a panel
    assert np.array_equal(flat2[i:i + edges.size - 1], flat[:-1], equal_nan=True)
    assert np.isnan(flat[-1]) and np.isnan(flat2[-1])


def test_inversion_table_grows_near_the_preimages():
    # deriv_lo is about 4e-6 here, so going out by the missing height over
    # deriv_lo would ask for a table reaching |x| = 7e5
    g = IdentityPlusBump([BumpProfile(0.0, 0.5, 0.998 * 0.5 / BUMP_SLOPE_MAX)])
    f = PowerIntegral(g, 2.0)
    assert f.deriv_lo < 1e-5
    for y in (3.0, -3.0, 40.0):
        x = InverseMap(f)(y)
        assert abs(f(x) - y) <= 1e-11
    edges, _, _ = f._table
    assert -6.0 < edges[0] and edges[-1] < 60.0


def test_inversion_leaves_a_start_within_tol_on_an_affine_piece(monkeypatch):
    # past the bump the slope is exactly 1: the start at y is the root to
    # within one ulp, and its Newton step lands on the bracket end
    y = 1.9090909090909092
    f = PowerIntegral(bump_map(0.2, 1.1, 0.3), 0.5)
    passes = counted(monkeypatch, f, "_eval_with_slope")
    x = InverseMap(f)(y)
    assert len(passes) == 1
    assert abs(f(x) - y) <= 1e-11
    g = PowerIntegral(bump_map(0.2, 1.1, 0.3), 0.5)
    passes = counted(monkeypatch, g, "_eval_with_slope")
    ys = np.linspace(-3.0, 3.0, 100)
    xs = InverseMap(g)(ys)
    assert len(passes) == 4
    assert np.max(np.abs(g(xs) - ys)) <= 1e-11


def test_fresh_inversion_of_zero_evaluates_nothing_past_the_table_build(monkeypatch):
    base = bump_map(0.0, 1.0, 0.3)
    f = PowerIntegral(base, 0.5)
    slopes = counted(monkeypatch, base, "_deriv")
    build = f._build_table

    def build_then_forget(lo, hi):
        build(lo, hi)
        slopes.clear()

    monkeypatch.setattr(f, "_build_table", build_then_forget)
    assert invert(f, 0.0, 1e-10) == 0.0
    assert f._table is not None and slopes == []


def test_an_inversion_inside_the_table_checks_the_table_at_most_once(monkeypatch):
    # the iterates stay in the panels _inverse_start found, so no Newton
    # pass needs to look at the table's range again
    f = PowerIntegral(bump_map(0.2, 1.1, 0.3), 0.5)
    ys = f(np.linspace(-2.5, 2.5, 101)) + 1e-3
    ensure = counted(monkeypatch, f, "_ensure_table")
    passes = counted(monkeypatch, f, "_eval_with_slope")
    xs = InverseMap(f)(ys)
    assert len(passes) >= 3
    assert len(ensure) <= 1
    fresh = PowerIntegral(bump_map(0.2, 1.1, 0.3), 0.5)
    assert xs.tobytes() == InverseMap(fresh)(ys).tobytes()
    assert np.max(np.abs(f(xs) - ys)) <= realmap._VALUE_TOL


def test_inversion_of_empty_and_zero_d_inputs():
    for f in (PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5),
              bump_map(0.0, 1.0, 0.3)):
        inv = InverseMap(f)
        assert inv(np.empty(0)).shape == (0,)
        assert inv(np.empty((0, 3))).shape == (0, 3)
        assert _invert_array(f, np.empty(0)).shape == (0,)
        x = inv(np.float64(0.4))
        assert isinstance(x, float)
        assert x == inv(np.array([0.4]))[0]
        assert abs(f(x) - 0.4) <= realmap._VALUE_TOL


def test_inversion_round_trips_match_brentq():
    from scipy.optimize import brentq
    g = bump_map(0.2, 1.1, 0.3)
    for base in (g, Composition(Affine(1.3, -0.4), g)):
        for f in (base, PowerIntegral(base, 0.7)):
            xs = np.linspace(-3.0, 3.0, 23)
            got = invert_array(f, f(xs), 1e-12)
            for y, x in zip(f(xs), got):
                ref = brentq(lambda t: f(t) - y, -10.0, 10.0, xtol=1e-15)
                assert abs(x - ref) <= 2e-12 / f.deriv_lo
            assert np.max(np.abs(got - xs)) <= 2e-12 / f.deriv_lo


def test_inversion_raises_nonconvergence(monkeypatch):
    f = PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    with pytest.raises(NonConvergence, match=r"tol=1e-30 in 200 iterations"):
        invert_array(f, np.linspace(-0.9, 0.9, 101), 1e-30)
    y = f(np.array([0.37, -0.61]))
    monkeypatch.setattr(realmap, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match=r"in 1 iterations"):
        invert(f, float(y[0]), 1e-12)
    with pytest.raises(NonConvergence):
        invert(bump_map(0.0, 1.0, 0.3), 0.37, 1e-12)


def test_inversion_generic_path_inverts_an_inverse_map():
    g = bump_map(0.1, 1.0, 0.3)
    inv = InverseMap(g)
    for x in (-1.7, -0.4, 0.0, 0.55, 3.0):
        assert invert(inv, x, 1e-12) == pytest.approx(g(x), abs=1e-11)
    xs = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(InverseMap(inv)(xs) - g(xs))) <= 1e-10


def test_inversion_narrows_a_slope_bracket_past_the_float_range():
    # y / deriv_lo passes the float range, though the preimages lie inside it
    g = QuadraticWindowMap(3.0233959382799814e-232, 3.902506907615861e+133,
                           2.3270208426538043e+39)
    ys = np.array([0.0, -1.9e78, 1e300])
    xs = InverseMap(g)(ys)
    assert np.all(np.isfinite(xs)) and np.array_equal(g(xs), ys)
    lo, hi, x0 = g._inverse_start(ys)
    assert np.all((lo <= xs) & (xs <= hi)) and np.array_equal(x0, lo)
    assert np.all(np.nextafter(lo, math.inf) == hi)  # adjacent floats


@pytest.mark.parametrize("y", [-1e79, -1e300])
def test_inversion_refuses_a_y_past_the_image_of_the_float_range(y):
    # f at the lowest float is about -1.9e78, still above y: no preimage
    g = QuadraticWindowMap(3.0233959382799814e-232, 3.902506907615861e+133,
                           2.3270208426538043e+39)
    with pytest.raises(DomainError, match=re.escape(f"y={y!r} overflows in floating")):
        InverseMap(g)(y)


def test_non_finite_values_raise_domain_error():
    f = PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    with pytest.raises(DomainError, match="y=nan"):
        InverseMap(f)(math.nan)
    with pytest.raises(DomainError, match="y=inf"):
        InverseMap(f)(math.inf)
    with pytest.raises(DomainError, match="y=-inf"):
        InverseMap(bump_map(0.0, 1.0, 0.3))(-math.inf)
    with pytest.raises(DomainError, match="x=nan"):
        f(math.nan)
    # the first bad value in C order is named
    with pytest.raises(DomainError, match="x=inf"):
        f(np.array([[0.5, 1.0], [math.inf, math.nan]]))
    with pytest.raises(DomainError, match="y=nan"):
        InverseMap(f)(np.array([[0.5, math.nan], [-math.inf, 1.0]]))
    with pytest.raises(DomainError, match="x=nan"):
        Composition(f, Affine(2.0, 0.0))(np.array([1.0, math.nan]))


def test_power_integral_table_has_a_panel_budget():
    f = PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    with pytest.raises(QuadratureFailure,
                       match=r"over \[-0\.25, 1e\+06\] would need more than 65536 panels"):
        f(1e6)
    with pytest.raises(QuadratureFailure, match="panels"):
        InverseMap(f)(-1e300)
    # the distance to the preimage overflows to inf
    for y in (1.7e308, -1.7e308):
        with pytest.raises(QuadratureFailure, match="panels"):
            InverseMap(f)(y)
    assert f(3.0) == PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)(3.0)  # intact


# -- power integrals -------------------------------------------------------------

def test_power_integral_scaling():
    f = Affine(3.0, 0.0)
    for alpha in (-1.0, 0.5, 2.0):
        g = PowerIntegral(f, alpha)
        for x in (-2.0, 0.0, 1.7):
            assert g(x) == pytest.approx(3.0 ** alpha * x, rel=1e-12, abs=1e-12)


def test_power_integral_alpha_one_is_fundamental_theorem():
    f = Composition(Affine(1.4, 0.8), bump_map(0.2, 1.0, 0.25))
    g = PowerIntegral(f, 1.0)
    for x in (-3.0, 0.5, 2.0):
        assert g(x) == pytest.approx(f(x) - f(0.0), rel=1e-10, abs=1e-10)


def test_power_integral_against_scipy_oracle():
    from scipy.integrate import quad
    f = Composition(Affine(1.3, -0.4), bump_map(0.2, 1.1, 0.3))
    for alpha in (0.37, -0.8, 1.6):
        g = PowerIntegral(f, alpha)
        for x in (-2.3, 0.7, 3.1):
            ref, err = quad(lambda t: f.deriv(t) ** alpha, 0.0, x,
                            epsabs=1e-12, limit=200)
            assert g(x) == pytest.approx(ref, abs=1e-9 + 10 * err)


def test_power_integral_values_do_not_depend_on_history():
    make = lambda: PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    f = make()
    inv = InverseMap(f)
    before = (f(0.3), inv(0.3))
    f(50.0)
    assert (f(0.3), inv(0.3)) == before
    g = make()  # built far out first, then asked near 0
    g(-70.0)
    g(50.0)
    assert (g(0.3), InverseMap(g)(0.3)) == before
    # a point's value does not depend on the other points of the call
    xs = np.linspace(-6.0, 6.0, 97)
    assert np.array_equal(make()(xs), np.array([f(float(x)) for x in xs]))


def test_power_integral_refusals_do_not_depend_on_history():
    # the panel limit applies to the range a call asks for, never to its
    # union with what earlier calls built
    make = lambda: PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)
    f = make()
    f(13000.0)
    f(13100.0)
    assert f(16300.0) == make()(16300.0)
    g = make()
    g(9000.0)
    assert g(-9000.0) == make()(-9000.0)
    h = make()
    h(13000.0)
    h(13100.0)
    assert InverseMap(h)(-9000.0) == InverseMap(make())(-9000.0)
    # a call refused on a fresh map is refused, with the same message, after
    # any history
    with pytest.raises(QuadratureFailure) as fresh:
        make()(-16500.0)
    with pytest.raises(QuadratureFailure) as grown:
        g(-16500.0)
    assert str(grown.value) == str(fresh.value)
    assert "over [-16500, 0.25]" in str(fresh.value)


def test_second_derivatives_of_power_integrals_and_inverses():
    # against central differences of the slope, away from the bump edges
    g = bump_map(0.3, 1.2, 0.3)
    p, q = PowerIntegral(g, 0.6), PowerIntegral(g, 0.25)
    xs, h = np.linspace(-2.0, 2.0, 17) + 0.03, 1e-4
    for f in (p, InverseMap(q), Composition(p, InverseMap(q))):
        fd = (f.deriv(xs + h) - f.deriv(xs - h)) / (2.0 * h)
        assert np.max(np.abs(f.second_deriv(xs) - fd)) <= 1e-6
        for x, d in zip(xs.tolist(), fd.tolist()):
            assert abs(f.second_deriv(x) - d) <= 1e-6


def test_has_second_deriv_follows_the_parts():
    g = bump_map(0.3, 1.2, 0.3)
    t = Tapered(g, 2.0)
    s = SampledMonotone([0.0, 1.0, 2.0], [0.0, 1.2, 2.1])
    for f, c2 in ((g, True), (Affine(2.0, 1.0), True), (PowerIntegral(g, 0.5), True),
                  (InverseMap(g), True), (Composition(g, InverseMap(g)), True),
                  (t, False), (s, False), (PowerIntegral(t, 0.5), False),
                  (InverseMap(s), False), (Composition(g, t), False),
                  (Composition(t, g), False)):
        assert f.has_second_deriv is c2, f
        if not c2:
            with pytest.raises(DomainError, match="second derivative"):
                f.second_deriv(0.3)


def _kinked_bases():
    g = bump_map(0.3, 1.2, 0.3)
    return [g, Composition(Affine(1.4, -0.3), g),
            Tapered(Composition(Affine(1.05, 0.1), bump_map(0.0, 1.0, 0.15)), 1.5)]


def test_breakpoints_list_the_kinks():
    g = bump_map(0.3, 1.2, 0.3)
    assert np.allclose(g.breakpoints(), [-0.9, 1.5])
    assert np.array_equal(Composition(Affine(2.0, 1.0), g).breakpoints(), g.breakpoints())
    assert np.allclose(Composition(g, Affine(2.0, 1.0)).breakpoints(), [-0.95, 0.25])
    assert np.allclose(Tapered(g, 3.0).breakpoints(), [-0.9, 1.5, -6, -3, 3, 6])
    assert np.array_equal(PowerIntegral(g, 0.5).breakpoints(), g.breakpoints())
    assert np.array_equal(InverseMap(g).breakpoints(), g(g.breakpoints()))
    assert Affine(2.0, 1.0).breakpoints().size == 0
    assert SampledMonotone([0.0, 1.0, 2.0], [0.0, 1.2, 2.1]).breakpoints().size == 0


def test_power_integral_within_quad_tol_of_scipy_at_the_kinks():
    from scipy.integrate import quad
    xs = sampled = np.linspace(-3.0, 3.0, 25)
    bases = _kinked_bases() + [
        SampledMonotone(sampled, sampled + 0.3 * np.sin(sampled))]
    for base in bases:
        kinks = base.breakpoints() if base.breakpoints().size else sampled
        for alpha in (0.45, -0.9):
            g = PowerIntegral(base, alpha)
            for x in (-4.1, -1.3, -0.9, 0.2, 1.5, 2.6, 7.3):
                inside = [k for k in kinks if min(0.0, x) < k < max(0.0, x)]
                ref, err = quad(lambda t: base.deriv(t) ** alpha, 0.0, x,
                                points=inside or None, epsabs=1e-13,
                                epsrel=1e-13, limit=400)
                assert err <= 1e-2 * g.quad_tol
                assert abs(g(x) - ref) <= g.quad_tol


def test_breakpoint_hints_save_panel_calls(monkeypatch):
    rules = [counted(monkeypatch, realmap, name)
             for name in ("panel_integrals", "panel_samples")]
    g = bump_map(0.3, 1.2, 0.3)
    hinted = PowerIntegral(g, 0.5)
    hinted(np.array([-6.0, 6.0]))
    n_hinted = sum(map(len, rules))
    for calls in rules:
        calls.clear()
    blind = PowerIntegral(g, 0.5)
    monkeypatch.setattr(g, "breakpoints", lambda: np.empty(0))
    blind(np.array([-6.0, 6.0]))
    # one pass, order 16 and order 32; -6 and 6 are table edges, whose
    # values need no quadrature
    assert n_hinted == 2
    assert sum(map(len, rules)) > n_hinted
    assert abs(hinted(2.0) - blind(2.0)) <= hinted.quad_tol


def test_power_integral_needs_no_base_slope_at_edges_and_on_flat_panels(monkeypatch):
    for base in (bump_map(0.2, 1.1, 0.3),
                 Composition(Affine(1.4, -0.3), bump_map(0.3, 1.2, -0.2))):
        f = PowerIntegral(base, 0.5)
        f(np.array([-6.0, 6.0]))
        edges, cum, flat = f._table
        # the flat panels are those off the bump support, and only those
        k0, k1 = base.breakpoints()
        off_support = (edges[1:] <= k0) | (edges[:-1] >= k1)
        assert np.array_equal(~np.isnan(flat[:-1]), off_support)
        assert np.isnan(flat[-1])
        i = np.flatnonzero(~np.isnan(flat))
        xs = np.concatenate([edges, 0.5 * (edges[i] + edges[i + 1]),
                             np.nextafter(edges[i], np.inf),
                             np.nextafter(edges[i + 1], -np.inf)])
        slopes = counted(monkeypatch, base, "_deriv")
        assert np.array_equal(f(edges), cum)
        f(xs)
        assert slopes == []
        f(0.5 * (k0 + k1))  # on the support the rule samples the base
        assert len(slopes) == 1


def test_power_integral_bounds():
    f = bump_map(0.0, 1.0, 0.3)
    blo, bhi = f.deriv_bounds()
    g = PowerIntegral(f, 0.5)
    assert g.deriv_bounds() == (blo ** 0.5, bhi ** 0.5)
    h = PowerIntegral(f, -2.0)
    assert h.deriv_bounds() == (bhi ** -2.0, blo ** -2.0)


# -- taper -----------------------------------------------------------------------

def test_taper_identity_is_identity():
    t = Tapered(Affine(1.0), 1.0)
    xs = np.linspace(-5, 5, 41)
    assert np.max(np.abs(t(xs) - xs)) == 0.0


def test_taper_agrees_on_plateau_and_tail():
    f = Composition(Affine(1.2, 0.1), bump_map(0.0, 1.0, 0.2))
    t = Tapered(f, 2.0)
    for x in np.linspace(-2, 2, 9):
        assert t(float(x)) == pytest.approx(f(float(x)), abs=1e-15)
    for x in (4.0, -4.0, 17.0):
        assert t(x) == x


def test_taper_rejects_untamable_map():
    # slope-5 affine displaced far from the identity cannot be tapered at T=1
    with pytest.raises(DomainError):
        Tapered(Affine(5.0, 40.0), 1.0)


# -- sampled monotone --------------------------------------------------------------

def test_sampled_monotone_interpolates_and_extends():
    xs = np.linspace(-2, 2, 17)
    ys = xs + 0.2 * np.tanh(xs)
    f = SampledMonotone(xs, ys)
    for xi, yi in zip(xs, ys):
        assert f(float(xi)) == pytest.approx(yi, abs=1e-14)
    # affine continuation outside the window
    slope_r = f.deriv(10.0)
    assert f(10.0) == pytest.approx(ys[-1] + slope_r * (10.0 - xs[-1]), rel=1e-12)
    lo, hi = f.deriv_bounds()
    d = f.deriv(np.linspace(-6, 6, 2001))
    assert d.min() >= lo - 1e-12 and d.max() <= hi + 1e-12


def test_sampled_monotone_matches_scipy_pchip_bit_for_bit():
    # the parent design: scipy's PCHIP inside the window, the affine
    # continuation with its end slopes outside, the extrema of its derivative
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(7)
    accepted = 0
    for k in range(1200):
        n = (2, 3, 4, 7, 30)[k % 5]
        xs = np.cumsum(10.0 ** rng.uniform(-2, 1, n)) - rng.uniform(0, 5)
        ys = np.cumsum(10.0 ** rng.uniform(-1, 1, n)) - rng.uniform(0, 5)
        pp = PchipInterpolator(xs, ys, extrapolate=False)
        bounds = realmap.SampledMonotone._deriv_extrema(pp.c, np.diff(xs))
        try:
            f = SampledMonotone(xs, ys)
        except DomainError:
            assert not bounds[0] > 0  # rejected there too
            continue
        accepted += 1
        assert f.deriv_bounds() == bounds
        dpp = pp.derivative()
        x0, xn = xs[0], xs[-1]
        slopes = float(dpp(x0)), float(dpp(xn))
        pts = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:]), rng.uniform(x0, xn, 8),
                              [np.nextafter(x0, -1e9), np.nextafter(xn, 1e9),
                               x0 - 1.0, xn + 3.0, -1e6, 1e6]])
        inner = np.clip(pts, x0, xn)
        want_v = np.where(pts < x0, ys[0] + slopes[0] * (pts - x0),
                          np.where(pts > xn, ys[-1] + slopes[1] * (pts - xn), pp(inner)))
        want_d = np.where(pts < x0, slopes[0],
                          np.where(pts > xn, slopes[1], dpp(inner)))
        assert f(pts).tobytes() == want_v.tobytes()
        assert f.deriv(pts).tobytes() == want_d.tobytes()
        assert f(float(pts[-3])) == want_v[-3]
    assert accepted >= 500, accepted


def test_sampled_monotone_rejects_bad_data():
    with pytest.raises(DomainError):
        SampledMonotone([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        SampledMonotone([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


def test_power_integral_cache_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor
    f = PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.6)
    xs = np.linspace(-20.0, 20.0, 400)
    serial = f(xs)
    fresh = PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.6)
    chunks = np.array_split(xs, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parts = list(pool.map(fresh, chunks, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(np.concatenate(parts), serial)


SHARED_BASES = {
    "bump": lambda: bump_map(0.2, 1.1, 0.3),
    "affine-bump": lambda: Composition(Affine(1.3, -0.4), IdentityPlusBump(
        [BumpProfile(-0.5, 2.0, 0.2), BumpProfile(0.7, 1.5, -0.15)])),
    "sampled": lambda: SampledMonotone(np.linspace(-3.0, 3.0, 13),
                                       np.linspace(-3.0, 3.0, 13)
                                       + 0.3 * np.sin(np.linspace(-3.0, 3.0, 13))),
    "tapered": lambda: Tapered(Composition(Affine(1.05, 0.1),
                                           bump_map(0.0, 1.0, 0.2)), 2.0),
    "inverse": lambda: InverseMap(bump_map(0.3, 1.2, -0.25)),
}


def table_bits(f):
    return b"".join(part.tobytes() for part in f._table)


@pytest.mark.parametrize("kind", sorted(SHARED_BASES))
def test_power_integrals_on_one_base_have_the_bits_of_separate_bases(kind):
    make = SHARED_BASES[kind]
    shared = make()
    xs = np.linspace(-7.0, 7.0, 61)
    for exponent, lo, hi in ((0.5, -6.0, 4.0), (-1.3, -3.0, 7.0), (2.0, -6.5, 6.5)):
        f, alone = PowerIntegral(shared, exponent), PowerIntegral(make(), exponent)
        for g in (f, alone):
            g(np.array([lo, hi]))
        assert table_bits(f) == table_bits(alone)
        assert f(xs).tobytes() == alone(xs).tobytes()
        assert f.deriv(xs).tobytes() == alone.deriv(xs).tobytes()
        ys = alone(xs) + 1e-3
        assert InverseMap(f)(ys).tobytes() == InverseMap(alone)(ys).tobytes()


def test_a_second_build_samples_no_panel_of_the_first(monkeypatch):
    base = Composition(Affine(1.2, 0.1), bump_map(0.4, 1.5, 0.25))
    calls = counted(monkeypatch, base, "_deriv")
    PowerIntegral(base, 0.5)(np.array([-6.0, 6.0]))
    first = np.concatenate([t for t, in calls])
    calls.clear()
    PowerIntegral(base, -0.8)(np.array([-6.0, 6.0]))
    second = np.concatenate([t for t, in calls] or [np.empty(0)])
    # 48 coarse panels on [-6, 6], plus the two bump edges: every one of
    # them was sampled by the first build
    assert first.size >= 50 * 48
    assert np.intersect1d(first, second).size == 0
    assert second.size < first.size // 4


@pytest.mark.parametrize("exponent", [-1.3, 0.5, 1.0, 2.0, 1e-20])
@pytest.mark.parametrize("kind", ["bump", "affine-bump", "tapered", "sampled"])
def test_flat_panels_are_the_panels_the_slope_store_flags(kind, exponent):
    # the store's flag is the one flatness test: its base slopes at the
    # order-16 and order-32 nodes are one value, whatever the power makes
    # of them (at 1e-20 every power is 1.0)
    base = SHARED_BASES[kind]()
    f = PowerIntegral(base, exponent)
    f(np.linspace(-7.0, 7.0, 5))
    edges, _, flat = f._table
    a, b = edges[:-1], edges[1:]
    with f._slopes.lock:
        _, flagged = f._slopes.at(base, a, b)
    slopes = np.concatenate([panel_samples(base._deriv, a, b, n)[1] for n in (16, 32)],
                            axis=1)
    assert np.array_equal(flagged, (slopes == slopes[:, :1]).all(axis=1))
    assert flagged.any() and not flagged.all()
    assert np.array_equal(~np.isnan(flat), np.append(flagged, False))


def test_power_integral_builds_on_one_base_are_thread_safe():
    from concurrent.futures import ThreadPoolExecutor
    exponents = (0.3, 0.3, 0.7, -1.1, 1.6, 0.7, 2.0, -0.4)
    xs = np.linspace(-15.0, 15.0, 301)
    serial = [PowerIntegral(SHARED_BASES["affine-bump"](), e)(xs) for e in exponents]
    base = SHARED_BASES["affine-bump"]()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parts = list(pool.map(lambda e: PowerIntegral(base, e)(xs), exponents,
                                  timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(parts, serial):
        assert got.tobytes() == want.tobytes()


def test_power_integral_builds_on_nested_bases_are_thread_safe():
    # a build on the outer base holds its lock and takes the inner base's
    # (through the inverse's table) while other threads build on the inner one
    from concurrent.futures import ThreadPoolExecutor
    inner_exponents = (0.6, -1.2, 1.7, 0.35)
    outer_exponents = (0.5, -0.9, 2.0, 0.6)
    xs = np.linspace(-8.0, 8.0, 161)

    def nested(c):
        return Composition(Affine(1.1, 0.2), InverseMap(PowerIntegral(c, 0.6)))

    make = SHARED_BASES["affine-bump"]
    serial = ([PowerIntegral(make(), e)(xs) for e in inner_exponents]
              + [PowerIntegral(nested(make()), e)(xs) for e in outer_exponents])
    c = make()
    outer = nested(c)
    jobs = ([(c, e) for e in inner_exponents] + [(outer, e) for e in outer_exponents])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parts = list(pool.map(lambda job: PowerIntegral(*job)(xs), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(parts, serial):
        assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_a_table_build_far_from_zero_has_bounded_memory():
    # the child's own peak RSS: ru_maxrss would carry the parent's high-water
    # mark across fork and exec
    code = """if True:
        from qcext.realmap import PowerIntegral, bump_map

        def peak_mb():
            with open("/proc/self/status") as fh:
                line = next(l for l in fh if l.startswith("VmHWM:"))
            return int(line.split()[1]) / 1024

        before = peak_mb()
        PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)(16300.0)
        print(peak_mb() - before)
    """
    src = os.path.dirname(os.path.dirname(realmap.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert run.returncode == 0, run.stderr
    # 65200 coarse panels: about 14 MB in chunks, over 100 MB in one pass
    assert float(run.stdout) < 32.0


# -- serialization -----------------------------------------------------------------

def test_description_roundtrip(rng):
    from qcext.analysis import CubicMap, QuadraticWindowMap
    xs = np.linspace(-4, 4, 33)
    maps = sample_maps(rng) + [CubicMap(), QuadraticWindowMap(0.5, 3.0, 0.5)]
    registered = {k for k, (family, _, _) in realmap.KINDS.items() if family == "map"}
    assert {f.kind for f in maps} == registered
    for f in maps:
        d = f.to_dict()
        g = map_from_dict(d)
        assert g.to_dict() == d
        assert np.allclose(g(xs), f(xs), rtol=1e-12, atol=1e-10)
        assert g.deriv_bounds() == pytest.approx(f.deriv_bounds())


def test_same_map_agrees_with_description_equality(rng):
    from qcext.analysis import CubicMap, QuadraticWindowMap
    maps = sample_maps(rng) + [CubicMap(), QuadraticWindowMap(0.5, 3.0, 0.5)]
    copies = [map_from_dict(f.to_dict()) for f in maps]
    for f in maps:
        for g in maps + copies:
            assert realmap._same_map(f, g) == (f.to_dict() == g.to_dict()), (f, g)
    # two trees that differ only in one field of one bump, two levels down
    bumps = [{"center": 0.0, "halfwidth": 1.0, "amplitude": 0.3},
             {"center": 2.0, "halfwidth": 0.5, "amplitude": -0.05}]
    desc = {"kind": "power-integral", "exponent": 0.5, "base": {
        "kind": "composition", "maps": [{"kind": "affine", "slope": 1.5},
                                        {"kind": "identity-plus-bump", "bumps": bumps}]}}
    f = map_from_dict(desc)
    bumps[1]["halfwidth"] = 0.5000000000000001
    g = map_from_dict(desc)
    assert f.to_dict() != g.to_dict() and not realmap._same_map(f, g)
    bumps[1]["halfwidth"] = 0.5
    assert realmap._same_map(f, map_from_dict(desc))


def test_description_parts_are_shared_within_one_call_only():
    pi = {"kind": "power-integral", "exponent": 0.5, "base": {
        "kind": "identity-plus-bump",
        "bumps": [{"center": 0.2, "halfwidth": 1.1, "amplitude": 0.3}]}}
    c = map_from_dict({"kind": "composition", "maps": [pi, {"kind": "inverse", "base": pi}]})
    assert c.outer is c.inner.base  # one table for both
    assert map_from_dict(pi) is not map_from_dict(pi)
    assert map_from_dict(pi).base is not map_from_dict(pi).base
    affine = lambda b: {"kind": "affine", "slope": 2.0, "intercept": b}
    first, second, third = map_from_dict(
        {"kind": "composition", "maps": [affine(-0.0), affine(0.0), affine(0.0)]}).maps
    assert second is third and first is not second
    assert math.copysign(1.0, first.intercept) == -1.0
    assert math.copysign(1.0, second.intercept) == 1.0


def test_a_part_written_twice_is_checked_once(monkeypatch):
    bump = {"center": 0.2, "halfwidth": 1.1, "amplitude": 0.3}
    pi = {"kind": "power-integral", "exponent": 0.5,
          "base": {"kind": "identity-plus-bump", "bumps": [bump]}}
    # two equal texts, not one object written twice
    desc = {"kind": "composition",
            "maps": [pi, {"kind": "inverse", "base": json.loads(json.dumps(pi))}]}
    calls = counted(monkeypatch, realmap, "_checked")
    c = map_from_dict(desc)
    assert c.outer is c.inner.base
    assert [args[0] for args in calls].count(pi) == 1
    assert [args[0] for args in calls].count(bump) == 1
    assert len(calls) == 5  # composition, power integral, bump map, bump, inverse


def test_description_rejects_unknown_kind():
    with pytest.raises(DomainError):
        map_from_dict({"kind": "sorcery"})
    with pytest.raises(DomainError):
        map_from_dict({"no": "kind"})


def test_description_children_follow_the_fields():
    g = bump_map(0.0, 1.0, 0.3)
    p = PowerIntegral(g, 0.5)
    c = Composition(Affine(2.0, 0.0), Composition(g, Affine(1.0, 1.0)))
    assert p.children() == (g,) and g.children() == ()
    assert c.children() == (c.outer, c.inner)
    desc = c.to_dict()
    assert [m["kind"] for m in desc["maps"]] == ["affine", "composition"]
    reloaded = map_from_dict(desc)
    assert reloaded.to_dict() == desc and isinstance(reloaded.inner, Composition)


@pytest.mark.parametrize("nest", ["right", "left", "both"])
def test_a_composition_description_reloads_to_its_own_tree(nest):
    a, b = bump_map(0.2, 1.0, 0.3), bump_map(-0.5, 0.7, -0.2)
    c = Affine(1.3, 0.1)
    f = {"right": lambda: Composition(a, Composition(b, c)),
         "left": lambda: Composition(Composition(a, b), c),
         "both": lambda: Composition(Composition(c, a), Composition(b, c))}[nest]()
    g = map_from_dict(json.loads(json.dumps(f.to_dict())))
    assert g.to_dict() == f.to_dict()
    x = np.linspace(-3.0, 3.0, 2001)
    for op in ("__call__", "deriv", "second_deriv"):
        assert np.array_equal(getattr(f, op)(x), getattr(g, op)(x)), op
    assert g.deriv_bounds() == f.deriv_bounds()


@pytest.mark.parametrize("desc, words", [
    ([1, 2], ["'kind'"]),
    ({"kind": ["affine"]}, ["'kind'"]),
    ({"kind": "circle-identity"}, ["circle-identity"]),
    ({"kind": "affine", "slope": 10 ** 400}, ["affine", "'slope'"]),
    ({"kind": "affine"}, ["affine", "'slope'"]),
    ({"kind": "identity-plus-bump",
      "bumps": [{"center": 0.0, "halfwidth": 1.0, "amplitude": 0.1, "kind": "x"}]},
     ["identity-plus-bump", "'kind'"]),
    ({"kind": "identity-plus-bump", "bumps": [5]}, ["identity-plus-bump", "'bumps'"]),
    ({"kind": "composition", "maps": [{"kind": "cubic"}]}, ["composition", "'maps'"]),
    ({"kind": "power-integral", "base": {"kind": "cubic"}, "exponent": "x"},
     ["power-integral", "'exponent'"]),  # checked before the base is refused
    ({"kind": "inverse", "base": 7}, ["inverse", "'base'"]),
    ({"kind": "tapered", "base": {"kind": "affine", "slope": "s"}, "plateau": 1.0},
     ["affine", "'slope'"]),
])
def test_description_checks_every_field_before_building(desc, words):
    with pytest.raises(DomainError) as info:
        map_from_dict(desc)
    msg = str(info.value)
    assert "\n" not in msg
    assert all(w in msg for w in words), msg


def test_power_integral_bounds_past_the_float_range():
    for slope, exponent in ((2.0, 2000.0), (0.5, -2000.0)):
        with pytest.raises(DomainError, match="power-integral exponent"):
            PowerIntegral(Affine(slope), exponent)
    with pytest.raises(DomainError, match="exponent"):
        map_from_dict({"kind": "power-integral", "exponent": 2000,
                       "base": {"kind": "affine", "slope": 2}})


# -- properties ---------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(slope=st.floats(0.1, 10.0), intercept=st.floats(-5.0, 5.0),
       amp=st.floats(-0.5, 0.5), x=st.floats(-20.0, 20.0), dx=st.floats(1e-6, 5.0))
def test_property_strictly_increasing(slope, intercept, amp, x, dx):
    f = Composition(Affine(slope, intercept), bump_map(0.0, 1.0, amp))
    assert f(x) < f(x + dx)


@settings(max_examples=40, deadline=None)
@given(a1=st.floats(0.2, 5.0), a2=st.floats(0.2, 5.0), amp=st.floats(-0.4, 0.4))
def test_property_compose_bounds_contain_product(a1, a2, amp):
    f = Composition(Affine(a1, 0.0), bump_map(0.0, 1.0, amp))
    g = Affine(a2, 1.0)
    c = Composition(f, g)
    assert c.deriv_lo >= f.deriv_lo * g.deriv_lo - 1e-12
    assert c.deriv_hi <= f.deriv_hi * g.deriv_hi + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["bump", "affine", "taper"]),
       exponent=st.floats(-2.5, 2.5),
       us=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_property_power_integral_is_the_rule_from_the_edge_below(seed, kind, exponent, us):
    # edges and flat panels skip the quadrature; every value is still the
    # order-16 rule from the nearest edge at or below, bit for bit
    rng = np.random.default_rng(seed)
    if kind == "taper":
        base = Tapered(Composition(Affine(1.05, 0.1),
                                   make_bump_map(rng, affine_prob=0.0, slope_budget=0.3)),
                       float(rng.uniform(1.5, 4.0)))
    else:
        base = make_bump_map(rng, affine_prob=float(kind == "affine"))
    f = PowerIntegral(base, exponent)
    f(8.0 * np.asarray(us))
    edges = f._table[0]
    xs = np.concatenate([8.0 * np.asarray(us), edges, np.nextafter(edges, np.inf),
                         np.nextafter(edges, -np.inf), base.breakpoints()])
    got = f(xs)
    edges, cum, _ = f._table
    idx = np.searchsorted(edges, xs, side="right") - 1
    ref = cum[idx] + panel_integrals(f._deriv, edges[idx], xs, f._ORDER)
    assert np.array_equal(got, ref)
