"""Beurling-Ahlfors averaged extension by adaptive quadrature.

    E(f)(z) = (1/2) int_{-1}^{1} f(x + t y) dt
              + i (im_scale/2) int_{-1}^{1} f(x + t y) sgn(t) dt

The printed classical formula has im_scale = 1, under which the identity map
extends to x + i y/2, so the operator does not fix affine maps.  With
im_scale = 2 every affine map is fixed and the operator commutes with affine
pre- and post-composition; that is the default here.  Both normalizations
are kept and tested, selected through ``BAConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure
from .extensions import require_upper_half
from .quadrature import adaptive_integral
from .realmap import Affine, RealMap, compose


@dataclass(frozen=True)
class BAConfig:
    quad_tol: float = 1e-10
    im_scale: float = 2.0

    def __post_init__(self):
        if not 0 < self.quad_tol < math.inf:
            raise DomainError(
                f"quad_tol must be positive and finite, got {self.quad_tol}")
        if not 0 < self.im_scale < math.inf:
            raise DomainError(
                f"im_scale must be positive and finite, got {self.im_scale}")


DEFAULT_BA = BAConfig()


def extend_ba(f: RealMap, z, cfg: BAConfig = DEFAULT_BA):
    """Evaluate the averaged extension of f at half-plane points ``z``; a
    complex for a scalar ``z``, else an array of its shape.

    In u = x + t y the two integrals are the means of f over the half-windows
    [x - y, x] and [x, x + y].  The integrand has a kink only at t = 0, the
    shared endpoint of the two, so it is a fixed breakpoint.  The
    half-windows of all points go to one ``adaptive_integral`` call, each
    with its own tolerance.  All points are validated before any is
    integrated; the first bad one, in C order, raises DomainError.
    """
    z = require_upper_half(np.asarray(z, dtype=complex))
    x, y = z.real, z.imag
    lo = np.stack([x - y, x])
    hi = np.stack([x, x + y])
    span = hi - lo
    empty = ~(span > 0)
    if empty.any():
        first = complex(np.broadcast_to(z, span.shape)[empty][0])
        raise DomainError(
            f"averaging window of z={first} vanishes in floating point")
    try:
        i_minus, i_plus = adaptive_integral(f, lo, hi,
                                            cfg.quad_tol * span) / span
    except QuadratureFailure as exc:
        if exc.index is None:  # raised by f, e.g. by a power-integral table
            raise
        at = complex(z.flat[exc.index % z.size])
        raise QuadratureFailure(f"averaged extension at z={at}: {exc}",
                                index=exc.index) from exc
    out = 0.5 * (i_plus + i_minus) + 0.5j * cfg.im_scale * (i_plus - i_minus)
    return complex(out) if out.ndim == 0 else out


def ba_affine_naturality_residual(f: RealMap, g_affine: RealMap, z,
                                  cfg: BAConfig = DEFAULT_BA):
    """| E(f o g)(z) - E(f)(E(g)(z)) | for affine g at each point of z; a
    float, with the bits of the array element, for a scalar point.

    Zero (up to quadrature error) at im_scale = 2; bounded away from zero for
    non-affine f at im_scale = 1, which pins the normalization discrepancy.
    """
    if not isinstance(g_affine, Affine):
        raise DomainError("the pre-composed map must be affine")
    lhs = extend_ba(compose(f, g_affine), z, cfg)
    rhs = extend_ba(f, extend_ba(g_affine, z, cfg), cfg)
    r = np.hypot(np.real(lhs - rhs), np.imag(lhs - rhs))  # as abs(complex)
    return float(r) if r.ndim == 0 else r
