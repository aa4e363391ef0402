"""Tests for the adaptive Gauss-Legendre core."""

import math

import numpy as np
import pytest

import qcext.quadrature as quadrature
from qcext.errors import DomainError, NonConvergence, QuadratureFailure
from qcext.quadrature import adaptive_integral, gauss_legendre, panel_integrals


def test_nodes_cached_and_exact_for_polynomials():
    x, w = gauss_legendre(8)
    assert gauss_legendre(8) is gauss_legendre(8)
    # order-8 rule integrates degree-15 polynomials exactly on [-1, 1]
    assert float(w @ x ** 14) == pytest.approx(2.0 / 15.0, rel=1e-13)


def test_panel_integrals_vectorized():
    lo = np.array([0.0, 1.0, -2.0])
    hi = np.array([1.0, 3.0, -1.0])
    vals = panel_integrals(lambda t: t ** 2, lo, hi, order=8)
    assert np.allclose(vals, (hi ** 3 - lo ** 3) / 3.0, rtol=1e-13)


def test_adaptive_matches_closed_forms():
    assert adaptive_integral(np.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)
    assert adaptive_integral(np.exp, -1.0, 2.0, 1e-12) == pytest.approx(
        math.e ** 2 - math.e ** -1, rel=1e-12)
    assert adaptive_integral(np.cos, 2.0, 2.0, 1e-12) == 0.0


def test_adaptive_orientation():
    forward = adaptive_integral(np.exp, 0.0, 1.0, 1e-12)
    assert adaptive_integral(np.exp, 1.0, 0.0, 1e-12) == pytest.approx(-forward)


def test_adaptive_handles_kinked_integrand():
    val = adaptive_integral(lambda t: np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-12)
    exact = ((1.0 / 3.0) ** 2 + (2.0 / 3.0) ** 2) / 2.0
    assert val == pytest.approx(exact, abs=1e-11)


def test_adaptive_raises_when_budget_exhausted(monkeypatch):
    # unresolvable oscillation keeps every panel's error estimate above its
    # share until the panel budget runs out
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 512)
    with pytest.raises(QuadratureFailure, match=r"\(budget 512,"):
        adaptive_integral(lambda t: np.sin(1e9 * t), 0.0, 1.0, 1e-12)


def test_adaptive_array_matches_scalar_calls():
    # mixed orientation, an empty interval and a kinked integrand in one call
    fun = lambda t: np.abs(t - 1.0 / 3.0) + np.sin(3.0 * t)
    a = np.array([[0.0, 1.0], [2.0, -1.0]])
    b = np.array([[1.0, 0.0], [2.0, 0.5]])
    tol = np.array([1e-12, 1e-9])
    got = adaptive_integral(fun, a, b, tol)
    assert got.shape == (2, 2)
    assert got[1, 0] == 0.0
    for i in range(2):
        for j in range(2):
            ref = adaptive_integral(fun, float(a[i, j]), float(b[i, j]), float(tol[j]))
            assert isinstance(ref, float)
            assert abs(got[i, j] - ref) <= 2 * tol[j]


def test_adaptive_array_failure_names_the_integral(monkeypatch):
    fun = lambda t: np.where(t > 5.0, np.sin(1e9 * t), t)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 512)
    with pytest.raises(QuadratureFailure, match=r"\[6\.0, 7\.0\].*panels") as info:
        adaptive_integral(fun, [0.0, 6.0, 1.0], [1.0, 7.0, 2.0], 1e-12)
    assert info.value.index == 1


def test_adaptive_stops_at_the_first_non_finite_panel():
    # inf on part of the second interval: refused on the first pass, by
    # name, instead of refining NaN error estimates to the panel budget
    fun = lambda t: np.where((t > 0.5) & (t < 0.75), np.inf, t)
    with pytest.raises(QuadratureFailure,
                       match=r"^integrand is not finite on \[0\.0, 1\.0\]$") as info:
        adaptive_integral(fun, [2.0, 0.0, 0.0], [3.0, 1.0, 0.4], 1e-10)
    assert info.value.index == 1


def test_adaptive_rejects_bad_tol():
    with pytest.raises(DomainError, match=r"^tol must be positive and finite, got 0\.0$"):
        adaptive_integral(np.sin, 0.0, 1.0, 0.0)
    # the first bad tolerance of a batch, in C order, is named
    with pytest.raises(DomainError, match=r"got inf$"):
        adaptive_integral(np.sin, 0.0, 1.0, [[1e-10, math.inf], [math.nan, 0.0]])


def test_disk_solver_reports_unreachable_tolerance(rng):
    from qcext.douady_earle import CircleMap, extend_de
    f = CircleMap.from_fourier(0.2, cos_amps=[0.05], sin_amps=[0.03])
    with pytest.raises(NonConvergence):
        extend_de(f, 0.2 + 0.1j, tol=1e-30)
