"""Beurling-Ahlfors averaged extension by adaptive quadrature.

    E(f)(z) = (1/2) int_{-1}^{1} f(x + t y) dt
              + i (im_scale/2) int_{-1}^{1} f(x + t y) sgn(t) dt

The printed classical formula has im_scale = 1, under which the identity map
extends to x + i y/2, so the operator does not fix affine maps.  With
im_scale = 2 every affine map is fixed and the operator commutes with affine
pre- and post-composition; that is the default here.  Both normalizations
are kept and tested, selected through ``extend_ba``'s ``im_scale``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DomainError, QuadratureFailure, raise_at_first,
                     scalar_or_array)
from .extensions import require_upper_half
from .quadrature import adaptive_integral
from .realmap import Affine, Composition, RealMap

QUAD_TOL = 1e-10  # default absolute tolerance per unit of window width
IM_SCALE = 2.0    # default normalization: fixes every affine map


def extend_ba(f: RealMap, z, quad_tol: float = QUAD_TOL,
              im_scale: float = IM_SCALE):
    """Evaluate the averaged extension of f at half-plane points ``z``; a
    complex for a scalar ``z``, else an array of its shape.

    In u = x + t y the two integrals are the means of f over the half-windows
    [x - y, x] and [x, x + y].  The integrand has a kink only at t = 0, the
    shared endpoint of the two, so it is a fixed breakpoint.  The
    half-windows of all points go to one ``adaptive_integral`` call, each
    with the tolerance ``quad_tol`` times its width.  All points are
    validated before any is integrated; the first bad one, in C order,
    raises DomainError: first a window whose tolerance rounds to 0, then
    one past the float range.  A ``quad_tol`` or ``im_scale`` that is not
    positive and finite raises DomainError before any point is checked.
    An integrand value that is not finite raises QuadratureFailure naming
    the point; a result that overflows raises DomainError naming it.
    """
    for name, value in (("quad_tol", quad_tol), ("im_scale", im_scale)):
        raise_at_first(not 0 < value < math.inf, value,
                       f"{name} must be positive and finite, got {{}}")
    z = require_upper_half(np.asarray(z, dtype=complex))
    x, y = z.real, z.imag
    with np.errstate(over="ignore"):  # an overflowed window is refused below
        lo = np.stack([x - y, x])
        hi = np.stack([x, x + y])
        span = hi - lo
        tol = quad_tol * span
    for ok, what in ((tol > 0, "vanishes"), (tol < np.inf, "overflows")):
        raise_at_first(~ok, np.broadcast_to(z, span.shape),
                       f"averaging window of z={{}} {what} in floating point")
    try:
        # overflow or NaN in f is refused by the integral's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            i_minus, i_plus = adaptive_integral(f, lo, hi, tol) / span
    except QuadratureFailure as exc:
        if exc.index is None:  # raised by f, e.g. by a power-integral table
            raise
        at = complex(z.flat[exc.index % z.size])
        raise QuadratureFailure(f"averaged extension at z={at}: {exc}",
                                index=exc.index) from exc
    with np.errstate(over="ignore"):  # an overflowed value is refused below
        out = 0.5 * (i_plus + i_minus) + 0.5j * im_scale * (i_plus - i_minus)
    raise_at_first(~np.isfinite(out), z,
                   "averaged extension at z={} overflows in floating point")
    return scalar_or_array(out)


def ba_affine_naturality_residual(f: RealMap, g_affine: RealMap, z,
                                  quad_tol: float = QUAD_TOL,
                                  im_scale: float = IM_SCALE):
    """| E(f o g)(z) - E(f)(E(g)(z)) | for affine g at each point of z; a
    float, with the bits of the array element, for a scalar point.

    Zero (up to quadrature error) at im_scale = 2; bounded away from zero for
    non-affine f at im_scale = 1, which pins the normalization discrepancy.
    """
    if not isinstance(g_affine, Affine):
        raise DomainError("the pre-composed map must be affine")
    lhs = extend_ba(Composition(f, g_affine), z, quad_tol, im_scale)
    rhs = extend_ba(f, extend_ba(g_affine, z, quad_tol, im_scale),
                    quad_tol, im_scale)
    d = lhs - rhs
    return scalar_or_array(np.hypot(np.real(d), np.imag(d)))  # as abs(complex)
