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

import numpy as np

from .errors import (DomainError, QuadratureFailure, blocks, raise_at_first,
                     refuse_overflow, require_positive, scalar_or_array,
                     silenced)
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
    half-windows of a block of points (``errors.blocks``) go to one
    ``adaptive_integral`` call, each with the tolerance ``quad_tol`` times
    its width; an integral does not depend on the others of its call.  All
    points are validated before any is integrated; the first bad one, in C
    order, raises DomainError: first a window whose tolerance rounds to 0,
    then one past the float range.  A ``quad_tol`` or ``im_scale`` that is
    not positive and finite raises DomainError before any point is checked.
    An integrand value that is not finite raises QuadratureFailure naming
    the point, in the first block that fails, with ``index`` the flat index
    of its window among the stacked windows (minus, then plus) of all
    points; a result that overflows raises DomainError naming it.
    """
    require_positive("quad_tol", quad_tol)
    require_positive("im_scale", im_scale)
    z = require_upper_half(np.asarray(z, dtype=complex))
    flat = z.ravel()
    x, y = flat.real, flat.imag
    with silenced():  # an overflowed window is refused below
        lo = np.stack([x - y, x])
        hi = np.stack([x, x + y])
        span = hi - lo
        tol = quad_tol * span
    for ok, what in ((tol > 0, "vanishes"), (tol < np.inf, "overflows")):
        raise_at_first(~ok, np.broadcast_to(flat, span.shape),
                       f"averaging window of z={{}} {what} in floating point")
    mean = np.empty_like(span)
    # a point's two windows take a 16-node panel of 8-byte samples each
    for rows in blocks(flat.size, 2 * 16 * 8):
        try:
            # overflow or NaN in f is refused by the integral's finiteness check
            with silenced():
                mean[:, rows] = adaptive_integral(
                    f, lo[:, rows], hi[:, rows], tol[:, rows]) / span[:, rows]
        except QuadratureFailure as exc:
            if exc.index is None:  # raised by f, e.g. by a power-integral table
                raise
            side, k = divmod(exc.index, len(flat[rows]))
            at = complex(flat[rows.start + k])
            raise QuadratureFailure(f"averaged extension at z={at}: {exc}",
                                    index=side * flat.size + rows.start + k) from exc
    i_minus, i_plus = mean.reshape(2, *z.shape)
    with silenced():
        out = 0.5 * (i_plus + i_minus) + 0.5j * im_scale * (i_plus - i_minus)
    return scalar_or_array(refuse_overflow("averaged extension", z, out))


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
