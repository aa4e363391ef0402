"""The two conventions every operator on point arrays shares: a bad point
raises DomainError naming the first one in C order, and a 0-d result is a
Python float or complex.  And a solver that runs out of budget raises a
typed error naming the point or the interval."""

import functools
import math

import numpy as np
import pytest

import qcext.douady_earle as douady_earle
import qcext.quadrature as quadrature
from qcext.analysis import (CubicMap, boundary_residual, compare_dilatation,
                            dilatation_analytic, dilatation_bound,
                            dilatation_numeric, dilatation_values, estimate_m,
                            m_ratio, pde_residual, sup_dilatation)
from qcext.beurling_ahlfors import ba_affine_naturality_residual, extend_ba
from qcext.cli import main
from qcext.douady_earle import (CircleMap, MobiusAutomorphism, de_defect,
                                de_naturality_residual, extend_de)
from qcext.errors import DomainError, NonConvergence, QuadratureFailure
from qcext.extensions import ExtParams, act, extend_family, extend_ns, shear
from qcext.quadrature import adaptive_integral
from qcext.realmap import (Affine, BumpProfile, InverseMap, PowerIntegral,
                           SampledMonotone, bump_map)

F = bump_map(0.0, 1.0, 0.3)
NS = ExtParams(1.0, 2.0)
DISK = MobiusAutomorphism(0.3, 0.2 + 0.1j).boundary()
NAN, INF = math.nan, math.inf


def _numeric(z):
    return dilatation_numeric(lambda w: extend_ns(F, w), z, 1e-3)


def _flat_left(z):  # a map constant for x < 0, so |d_z F| vanishes there
    return dilatation_numeric(lambda w: np.where(w.real < 0, 0.0, w), z, 1e-3)


# (operator, a good point, the first bad point, a later bad point, the message)
CASES = {
    "half-plane": (lambda z: extend_ns(F, z), 0.3 + 0.5j, complex(0.5, -0.0),
                   complex(NAN, 1.0),
                   "point must lie in the open upper half-plane, got z=(0.5-0j)"),
    "half-plane non-finite": (lambda z: extend_ns(F, z), 0.3 + 0.5j,
                              complex(NAN, 1.0), complex(0.5, -1.0),
                              "point must be finite, got z=(nan+1j)"),
    "disk z": (lambda z: extend_de(DISK, z), 0.1 + 0.2j, complex(-0.0, -1.0),
               complex(INF, 0.0),
               "z must lie strictly inside the unit disk, got z=(-0-1j)"),
    "disk z non-finite": (lambda z: extend_de(DISK, z), 0.1 + 0.2j,
                          complex(INF, 0.0), complex(-0.0, -1.0),
                          "z must be finite, got z=(inf+0j)"),
    "disk w": (lambda w: de_defect(DISK, w, 0.1j), 0.2 + 0j, complex(1.0, -0.0),
               complex(NAN, 0.0),
               "w must lie strictly inside the unit disk, got w=(1-0j)"),
    "power-integral x": (PowerIntegral(F, 0.5), 0.5, -INF, NAN,
                         "x must be finite, got x=-inf"),
    "inversion y": (InverseMap(F), -0.0, NAN, INF, "y must be finite, got y=nan"),
    "difference stencil": (_numeric, 0.3 + 0.5j, complex(-0.0, 0.002),
                           complex(NAN, NAN),
                           "need Im z > 2h for the difference stencil, "
                           "got z=(-0+0.002j)"),
    "Hessian stencil": (lambda z: pde_residual(F, NS, z, 1e-3), 0.3 + 0.5j,
                        complex(0.25, 0.0015), complex(NAN, NAN),
                        "need Im z > 2h for the Hessian stencil, "
                        "got z=(0.25+0.0015j)"),
    "degenerate stencil": (_flat_left, 0.5 + 1j, complex(-1.0, 1.0),
                           complex(-2.0, 1.0),
                           "degenerate point z=(-1+1j): |d_z F| below 1e-12"),
    "undefined dilatation": (lambda z: dilatation_analytic(CubicMap(), NS, z),
                             0.3 + 0.5j, complex(-0.5, 0.5), complex(-1.0, 1.0),
                             "derivative must be positive on evaluation points, "
                             "not at z=(-0.5+0.5j)"),
    "BA window": (lambda z: extend_ba(F, z), 0.3 + 0.5j, complex(1e300, 1e-300),
                  complex(-1e300, 1e-290),
                  "averaging window of z=(1e+300+1e-300j) vanishes in "
                  "floating point"),
}


@pytest.mark.parametrize("case", CASES)
def test_the_first_bad_point_is_named_exactly(case):
    op, good, bad, later, message = CASES[case]
    for points in (bad, np.array(bad), np.array([good, bad, later]),
                   np.array([[good, good], [bad, later]])):
        with pytest.raises(DomainError) as info:
            op(points)
        assert str(info.value) == message


ZERO_D = {
    "shear": (lambda: shear(0.5, 2.0, np.array(0.3 + 0.7j)), complex),
    "act": (lambda: act(NS, functools.partial(extend_family, ExtParams(0.0, 1.0)), F,
                        np.array(0.3 + 0.5j)), complex),
    "extend_family": (lambda: extend_family(ExtParams(-0.5, 1.5), F, np.array(0.3 + 0.5j)),
                      complex),
    "extend_ns": (lambda: extend_ns(F, np.array(0.3 + 0.5j)), complex),
    "map value": (lambda: F(0.3), float),
    "map slope": (lambda: F.deriv(np.float64(0.3)), float),
    "map second derivative": (lambda: F.second_deriv(np.array(0.3)), float),
    "power integral": (lambda: PowerIntegral(F, 0.5)(0.3), float),
    "inverse": (lambda: InverseMap(F)(0.3), float),
    "extend_ba": (lambda: extend_ba(F, 0.3 + 0.5j), complex),
    "ba naturality": (lambda: ba_affine_naturality_residual(
        F, Affine(2.0, 1.0), 0.3 + 0.5j), float),
    "extend_de": (lambda: extend_de(DISK, 0.1 + 0.2j), complex),
    "de_defect": (lambda: de_defect(DISK, 0.2, 0.1j), complex),
    "mobius": (lambda: MobiusAutomorphism(0.3, 0.2 + 0.1j)(0.1 + 0.2j), complex),
    "de naturality": (lambda: de_naturality_residual(
        DISK, MobiusAutomorphism(0.3, 0.2 + 0.1j), 0.1 + 0.2j), float),
    "analytic dilatation": (lambda: dilatation_analytic(F, NS, 0.3 + 0.5j).analytic,
                            float),
    "theta": (lambda: dilatation_analytic(F, NS, 0.3 + 0.5j).theta, float),
    "alpha 0 theta": (lambda: dilatation_analytic(F, ExtParams(0.0, 0.0),
                                                  0.3 + 0.5j).theta, float),
    "dilatation value": (lambda: dilatation_values(F, NS, 0.3 + 0.5j)[0], float),
    "dilatation value theta": (lambda: dilatation_values(F, NS, 0.3 + 0.5j)[1], float),
    "alpha 0 dilatation value": (lambda: dilatation_values(F, ExtParams(0.0, 0.0),
                                                           0.3 + 0.5j)[0], float),
    "numeric dilatation": (lambda: _numeric(0.3 + 0.5j), float),
    "dilatation gap": (lambda: compare_dilatation(F, NS, 0.3 + 0.5j, 1e-3).gap, float),
    "boundary residual": (lambda: boundary_residual(NS, F, y=0.1), float),
    "pde residual": (lambda: pde_residual(F, NS, 0.3 + 0.5j), float),
    "adaptive integral": (lambda: adaptive_integral(np.cos, 0.0, 1.0), float),
}


@pytest.mark.parametrize("case", ZERO_D)
def test_zero_d_results_are_python_scalars(case):
    call, kind = ZERO_D[case]
    # a numpy scalar would pass isinstance
    assert type(call()) is kind


# -- argument checks that no CLI input reaches ---------------------------------

LIBRARY_CHECKS = {
    "estimate_m grid_n": (lambda: estimate_m(F, grid_n=1), "grid_n must be >= 2"),
    "estimate_m t_range from 0": (lambda: estimate_m(F, t_range=(0.0, 1.0)),
                                  "t range must be positive and increasing"),
    "estimate_m t_range decreasing": (lambda: estimate_m(F, t_range=(2.0, 1.0)),
                                      "t range must be positive and increasing"),
    "estimate_m x_range NaN": (lambda: estimate_m(F, x_range=(-5.0, NAN)),
                               "x range must be finite, got nan"),
    "estimate_m t_range inf": (lambda: estimate_m(F, t_range=(1e-3, INF)),
                               "t range must be finite, got inf"),
    "m_ratio x NaN": (lambda: m_ratio(F, NAN, 1.0), "x must be finite, got x=nan"),
    "m_ratio x inf": (lambda: m_ratio(F, INF, 1.0), "x must be finite, got x=inf"),
    "m_ratio t inf": (lambda: m_ratio(F, 1.0, INF),
                      "t must be positive and finite, got t=inf"),
    "m_ratio first bad x": (lambda: m_ratio(F, np.array([0.5, -INF, NAN]), 1.0),
                            "x must be finite, got x=-inf"),
    "m_ratio t zero": (lambda: m_ratio(F, 0.0, np.array([1.0, 0.0])),
                       "t must be positive and finite, got t=0.0"),
    # x +- t and f(x +- t) past the floats, or rounded onto x and f(x)
    "m_ratio x + t overflows": (lambda: m_ratio(F, 1e308, 1e308),
                                "x + t or x - t overflows in floating point at x=1e+308"),
    "m_ratio x - t overflows": (lambda: m_ratio(F, -1e308, 1e308),
                                "x + t or x - t overflows in floating point at x=-1e+308"),
    "m_ratio first x that overflows": (
        lambda: m_ratio(F, np.array([0.0, 1e308, -1e308]), 1e308),
        "x + t or x - t overflows in floating point at x=1e+308"),
    "m_ratio x + t rounds to x": (lambda: m_ratio(F, 1e308, 5.0),
                                  "x + t or x - t rounds to x in floating point at x=1e+308"),
    "m_ratio first x that rounds": (
        lambda: m_ratio(F, np.array([1.0, 1e20, 1e308]), np.array([[1.0], [2.0]])),
        "x + t or x - t rounds to x in floating point at x=1e+20"),
    "m_ratio f overflows": (lambda: m_ratio(Affine(2.0), np.array([1.0, 1e308]), 1e300),
                            "f or its increments overflow in floating point at x=1e+308"),
    "m_ratio f flat in floats": (lambda: m_ratio(Affine(0.7), np.array([1.0, 1.6]), 2.0 ** -52),
                                 "f is not increasing in floating point at x=1.6"),
    "estimate_m x range too wide": (lambda: estimate_m(F, x_range=(-1e308, 1e308)),
                                    "x range [-1e+308, 1e+308] is wider than the floats"),
    "estimate_m x range past rounding": (
        lambda: estimate_m(F, x_range=(1e308, 1.7e308)),
        "x + t or x - t rounds to x in floating point at x=1e+308"),
    "sup_dilatation empty grid": (lambda: sup_dilatation(F, NS, np.empty(0, complex)),
                                  "grid must be nonempty"),
    "dilatation_bound": (lambda: dilatation_bound(NS, 2.0, 1.0),
                         "need 0 < deriv_lo <= deriv_hi"),
    "boundary_residual y": (lambda: boundary_residual(NS, F, y=[0.1, 0.0]),
                            "y must be positive"),
    "de_naturality_residual mode": (lambda: de_naturality_residual(
        DISK, MobiusAutomorphism(0.3, 0.2 + 0.1j), 0.1j, mode="both"),
        "mode must be 'pre' or 'post', got 'both'"),
    # a number a description would refuse, refused by the constructor too
    "affine intercept NaN": (lambda: Affine(1.0, NAN),
                             "affine intercept must be finite, got nan"),
    "bump center inf": (lambda: bump_map(INF, 1.0, 0.3),
                        "bump center must be finite, got inf"),
    "bump halfwidth inf": (lambda: BumpProfile(0.0, INF, 0.3),
                           "bump halfwidth must be finite, got inf"),
    "bump amplitude NaN": (lambda: bump_map(0.0, 1.0, NAN),
                           "bump amplitude must be finite, got nan"),
    "power-integral exponent NaN": (lambda: PowerIntegral(Affine(1.0), NAN),
                                    "power-integral exponent must be finite, got nan"),
    # accepted, not refused: no point in, no point out
    "power integral of no points": (lambda: PowerIntegral(F, 0.5)(np.empty(0)), None),
}


@pytest.mark.parametrize("case", LIBRARY_CHECKS)
def test_library_argument_checks(case):
    call, message = LIBRARY_CHECKS[case]
    if message is None:
        out = call()
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        return
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# -- solver refusals: each budget cut to what one input cannot meet ------------

FOURIER = CircleMap.from_fourier(0.1, [0.05, 0.02], [0.03])


def test_disk_solve_out_of_iterations_names_the_point(monkeypatch):
    monkeypatch.setattr(douady_earle, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match=r"^disk solve at z=\(0\.3\+0\.2j\) "
                       r"did not reach tol=1e-10 in 1 iterations"):
        extend_de(FOURIER, 0.3 + 0.2j)


def test_disk_solve_singular_jacobian_names_the_point(monkeypatch):
    monkeypatch.setattr(douady_earle, "_de_jacobian",
                        lambda w, fv, kernel: (np.ones_like(w), np.ones_like(w)))
    with pytest.raises(NonConvergence, match=r"^singular Jacobian in the disk "
                       r"solve at z=\(0\.3\+0\.2j\)"):
        extend_de(FOURIER, 0.3 + 0.2j)


def test_power_integral_table_out_of_passes_names_the_panel(monkeypatch):
    xs = np.linspace(-1.03, 0.97, 12)
    f = PowerIntegral(SampledMonotone(xs, xs + 0.1 * np.sin(3.0 * xs)), 0.5)
    monkeypatch.setattr(PowerIntegral, "_MAX_PASSES", 1)
    with pytest.raises(QuadratureFailure, match=r"could not reach the quadrature "
                       r"tolerance on \[-0\.25, 0\.5\] in 1 passes"):
        f(0.3)


def test_adaptive_integral_out_of_depth_names_the_interval(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 1)
    with pytest.raises(QuadratureFailure, match=r"^depth limit 1 exceeded "
                       r"integrating over \[0\.0, 1\.0\]") as info:
        adaptive_integral(lambda t: np.abs(t - 0.3), 0.0, 1.0, 1e-12)
    assert info.value.index == 0


def test_solver_refusal_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text('{"kind": "circle-fourier", "rotation": 0.1, '
                      '"cos": [0.05, 0.02], "sin": [0.03]}')
    monkeypatch.setattr(douady_earle, "_MAX_ITER", 1)
    assert main(["extend", "--map", str(circle), "--method", "de",
                 "--x-min", "-0.3", "--x-max", "0.3", "--y-min", "0.1",
                 "--y-max", "0.4", "--nx", "2", "--ny", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: disk solve at z=")
    assert "did not reach tol=1e-10 in 1 iterations" in err
    assert err.count("\n") == 1 and err.endswith("\n")
