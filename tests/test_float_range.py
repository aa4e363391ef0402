"""Points and parameters at the edges of the float range: every half-plane
operator and check returns finite values or refuses by name, and no numpy
warning escapes (``qcext.errors`` owns both refusals)."""

import functools
import math
import warnings

import numpy as np
import pytest

from qcext.analysis import (CubicMap, boundary_constant, boundary_residual,
                            characteristic_dilatation, compare_dilatation,
                            dilatation_analytic, dilatation_bound,
                            dilatation_numeric, dilatation_values,
                            homomorphism_residual, pde_matrix, pde_residual,
                            sigma_factor, sup_dilatation)
from qcext.beurling_ahlfors import ba_affine_naturality_residual, extend_ba
from qcext.errors import DomainError, QuadratureFailure
from qcext.extensions import ExtParams, act, extend_family, extend_ns, shear
from qcext.realmap import Affine, InverseMap, bump_map

BIG = 1.7976931348623157e308  # the largest float
BUMP = bump_map(0.0, 1.0, 0.3)
POINTS = [0.3 + 0.5j, complex(1e308, 1.0), complex(-1e308, 1.0),
          complex(BIG, 1e308), complex(-BIG, 1e308), complex(1.0, 1e308),
          complex(1.0, BIG), complex(0.0, 1e-300), complex(1e-300, 1e-300),
          complex(-1e308, 1e-300), complex(1e300, 1e-300)]
PARAMS = [ExtParams(1.0, 2.0), ExtParams(1e308, 1.0), ExtParams(-1e308, 1e308),
          ExtParams(1.0, 1e-300), ExtParams(0.5, 1e308), ExtParams(1e308, 0.0),
          ExtParams(-1e-300, 0.0)]
E01 = functools.partial(extend_family, ExtParams(0.0, 1.0))

# name -> (operator (f, p, z), whether it reads p, the refusals it may raise)
OPERATORS = {
    "shear": (lambda f, p, z: shear(p.a, p.alpha, z), True, DomainError),
    "extend_family": (lambda f, p, z: extend_family(p, f, z), True, DomainError),
    "extend_ns": (lambda f, p, z: extend_ns(f, z), False, DomainError),
    "act": (lambda f, p, z: act(p, E01, f, z), True, DomainError),
    # theta is read only where the dilatation is defined
    "dilatation_values": (lambda f, p, z: dilatation_values(f, p, z)[0], True,
                          DomainError),
    "dilatation_analytic": (lambda f, p, z: dilatation_analytic(f, p, z).analytic,
                            True, DomainError),
    "characteristic_dilatation": (
        lambda f, p, z: characteristic_dilatation(f, p, p.a, z.real, z.imag)[0],
        True, DomainError),
    "dilatation_numeric": (lambda f, p, z: dilatation_numeric(
        lambda w: extend_family(p, f, w), z, None), True, DomainError),
    "compare_dilatation": (lambda f, p, z: compare_dilatation(f, p, z, None).gap,
                           True, DomainError),
    "sup_dilatation": (lambda f, p, z: sup_dilatation(f, p, np.array([z])),
                       True, DomainError),
    "homomorphism_residual": (lambda f, p, z: homomorphism_residual(
        p, f, f, np.array([z])), True, DomainError),
    "boundary_residual": (lambda f, p, z: boundary_residual(
        p, f, (min(z.real, 0.0), max(z.real, 0.0)), z.imag), True, DomainError),
    "pde_residual": (lambda f, p, z: pde_residual(f, p, z), True, DomainError),
    # an average whose integral leaves the floats, though its mean would
    # not, is a QuadratureFailure ("integrand is not finite"): ROADMAP item 11
    "extend_ba": (lambda f, p, z: extend_ba(f, z), False,
                  (DomainError, QuadratureFailure)),
    "ba_affine_naturality_residual": (lambda f, p, z: ba_affine_naturality_residual(
        f, Affine(2.0, 1.0), z), False, (DomainError, QuadratureFailure)),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_edges_of_the_float_range_give_a_finite_value_or_a_refusal(name):
    op, reads_params, refusals = OPERATORS[name]
    for f in (BUMP, CubicMap()) if "dilatation" in name else (BUMP,):
        for p in PARAMS if reads_params else PARAMS[:1]:
            for z in POINTS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        out = op(f, p, z)
                    except refusals:
                        continue
                # NaN marks a point where the cubic's closed form is undefined
                finite = np.isfinite(out) | (np.isnan(out) & isinstance(f, CubicMap))
                assert np.all(finite), (name, f, p, z, out)


# the first point whose result leaves the floats: (call, its refusal)
PAST_THE_FLOATS = {
    "shear": (lambda: shear(-1e300, 1e300, 1e308j), "shear at z=1e+308j"),
    "PDE residual": (lambda: pde_residual(BUMP, ExtParams(1.0, 2.0), 1e308 + 1j),
                     "PDE residual at z=(1e+308+1j)"),
    "PDE residual, h * h = 0": (lambda: pde_residual(BUMP, ExtParams(1.0, 2.0), 1e-300j),
                                "PDE residual at z=1e-300j"),
    "Hessian stencil": (lambda: pde_residual(BUMP, ExtParams(1.0, 2.0),
                                             np.array([1j, complex(-BIG, 1e308)])),
                        "Hessian stencil at z=(-1.7976931348623157e+308+1e+308j)"),
    "difference stencil": (lambda: dilatation_numeric(
        E01, np.array([1j, complex(BIG, 1e308)]), None),
        "difference stencil at z=(1.7976931348623157e+308+1e+308j)"),
}


@pytest.mark.parametrize("case", PAST_THE_FLOATS)
def test_a_result_past_the_floats_is_refused_naming_the_point(case):
    call, message = PAST_THE_FLOATS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message + " overflows in floating point"


def test_numeric_dilatation_of_a_steep_linear_extension_is_zero():
    # d_z F = 1e308 overflows in its own sum, but the quotient is finite
    steep = Affine(1e308)
    assert dilatation_numeric(lambda w: extend_ns(steep, w), 0.1 + 0.5j, None) == 0.0


# the functions of the parameters alone: (call, its reference arithmetic)
def sigma(a, al):
    return (-1j + a) * (1j + a - al) / ((1j + a) * (-1j + a - al))


ENDS = np.array([0.25, 4.0])  # the slope ratios of certified bounds [0.5, 2]
PARAMETER_FUNCTIONS = {
    "sigma factor": (sigma_factor, sigma),
    "dilatation bound": (lambda p: dilatation_bound(p, 0.5, 2.0), lambda a, al: float(
        np.max(np.abs(1.0 - ENDS) / np.abs(1.0 - sigma(a, al) * ENDS)))),
    "boundary constant": (lambda p: boundary_constant(p, 2.0), lambda a, al: 2.0 * (
        abs(a) * math.hypot(1.0, al - a) + abs(al - a) * math.hypot(1.0, a)) / al),
    "PDE matrix": (pde_matrix, lambda a, al: np.array(
        [[(al - a) * a, 0.5 * (2.0 * a - al)], [0.5 * (2.0 * a - al), -1.0]])),
}


@pytest.mark.parametrize("name", PARAMETER_FUNCTIONS)
def test_a_function_of_the_parameters_is_finite_or_refused_naming_them(name):
    call, reference = PARAMETER_FUNCTIONS[name]
    names = {"dilatation bound": "(a, alpha, deriv_lo, deriv_hi)",
             "boundary constant": "(a, alpha, deriv_hi)"}.get(name, "(a, alpha)")
    extra = {"dilatation bound": (0.5, 2.0), "boundary constant": (2.0,)}.get(name, ())
    for p in PARAMS + [ExtParams(1e308, 1e-300), ExtParams(-0.3, 1.7)]:
        if p.alpha == 0 and extra:
            continue  # the group functions refuse alpha = 0 first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(p)
            except DomainError as exc:
                assert str(exc) == (f"{name} at {names}={(p.a, p.alpha, *extra)} "
                                    "overflows in floating point")
                continue
        # a finite result keeps the bits of the arithmetic it always had
        want = reference(p.a, p.alpha)
        assert np.isfinite(out).all() and np.array_equal(out, want), (name, p)


def test_refused_parameters_name_every_argument():
    p = ExtParams(1e308, 1e-300)
    for call, message in (
            (lambda: sigma_factor(p), "sigma factor at (a, alpha)=(1e+308, 1e-300)"),
            (lambda: dilatation_bound(p, 1.0, 2.0), "dilatation bound at "
             "(a, alpha, deriv_lo, deriv_hi)=(1e+308, 1e-300, 1.0, 2.0)"),
            (lambda: boundary_constant(p, 2.0),
             "boundary constant at (a, alpha, deriv_hi)=(1e+308, 1e-300, 2.0)"),
            (lambda: pde_matrix(p), "PDE matrix at (a, alpha)=(1e+308, 1e-300)")):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message + " overflows in floating point"


@pytest.mark.parametrize("center, halfwidth, x", [
    (BIG, 1.0, -BIG),       # x - center leaves the floats
    (0.0, 1e-300, 1e10),    # (x - center) / halfwidth does
    (0.0, 1e-10, 1e300)])
def test_a_bump_across_the_float_range_is_the_identity_with_no_warning(center, halfwidth,
                                                                       x):
    f = bump_map(center, halfwidth, 0.5 * halfwidth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (f(x), f.deriv(x), f.second_deriv(x)) == (x, 1.0, 0.0)
        assert InverseMap(f)(x) == x
