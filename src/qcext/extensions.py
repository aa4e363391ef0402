"""The two-parameter shear-extension family on the upper half-plane.

``extend_family`` evaluates the operator with parameters (a, alpha): for
alpha > 0 it averages f at x + t*y, t = a and a - alpha, with complex
weights; alpha = 0 is the limiting first-order form using f'.  The
parameter pairs with alpha > 0 form a group under
(a, alpha) . (b, beta) = (a + alpha*b, alpha*beta), acting on any extension
operator by conjugation with the shears S(z) = x + a*y + i*alpha*y; the
whole family is the orbit of the (0, 1) member under this action.

Points of the upper half-plane are plain complex numbers (or complex
ndarrays) with positive imaginary part; values are returned exactly as
computed, with no clamping, so verification code can see violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, raise_at_first, refuse_overflow,
                     scalar_or_array, silenced)
from .realmap import RealMap


def require_upper_half(z):
    """Validate that every point is finite with Im z > 0; returns z as given.
    The first bad point, in C order, is named in the DomainError."""
    w = np.asarray(z, dtype=complex)
    raise_at_first(~(np.isfinite(w) & (w.imag > 0)), w,
                   "point must lie in the open upper half-plane, got z={}",
                   "point must be finite, got z={}")
    return z


@dataclass(frozen=True)
class ExtParams:
    """Extension parameters (a, alpha), alpha >= 0.

    With alpha > 0 the pair doubles as a group element; the group operations
    reject alpha = 0, while the extension formula accepts it as the limiting
    member of the family.
    """

    a: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.alpha)):
            raise DomainError("parameters must be finite")
        if self.alpha < 0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")

    @property
    def nodes(self) -> tuple[float, float]:
        """The nodes t = a and a - alpha: the member samples f at x + t*y,
        at one point twice when alpha = 0."""
        return (self.a, self.a - self.alpha)

    def require_group(self) -> None:
        if not self.alpha > 0:
            raise DomainError("group operations require alpha > 0")


def shear(a: float, alpha: float, z):
    """S(z) = (x + a*y) + i*alpha*y; preserves the upper half-plane.  The
    first point, in C order, whose image overflows raises DomainError."""
    if not alpha > 0:
        raise DomainError(f"shear requires alpha > 0, got {alpha}")
    w = np.asarray(require_upper_half(z))
    with silenced():
        out = _shear_value(a, alpha, w)
    return scalar_or_array(refuse_overflow("shear", w, out))


def _shear_value(a: float, alpha: float, w):
    x, y = np.real(w), np.imag(w)
    return x + a * y + 1j * alpha * y


def group_mul(g1: ExtParams, g2: ExtParams) -> ExtParams:
    g1.require_group()
    g2.require_group()
    return ExtParams(g1.a + g1.alpha * g2.a, g1.alpha * g2.alpha)


def group_inv(g: ExtParams) -> ExtParams:
    g.require_group()
    return ExtParams(-g.a / g.alpha, 1.0 / g.alpha)


def extend_family(p: ExtParams, f: RealMap, z):
    """Evaluate the (a, alpha) extension of f at z (scalar or ndarray).

    alpha > 0, at the nodes (a, a - alpha):
        (1 - a/alpha) f(x + a y) + (a/alpha) f(x + (a - alpha) y)
        + (i/alpha) [f(x + a y) - f(x + (a - alpha) y)]
    alpha = 0 (limiting case):
        f(x + a y) - a y f'(x + a y) + i y f'(x + a y)

    The imaginary part is divided by alpha in real arithmetic, so a scalar
    call and the matching element of an array call agree bit for bit.  The
    first point, in C order, where a sample point x + t y or the value
    overflows raises DomainError; f is never asked for a sample past the
    floats.
    """
    require_upper_half(z)
    x, y = np.real(z), np.imag(z)
    a, alpha = p.a, p.alpha
    with silenced():
        if alpha > 0:
            u1, u2 = (x + t * y for t in p.nodes)
            _refuse_samples(p, f, z, u1, u2)
            fu1, fu2 = f(u1), f(u2)
            re = (1.0 - a / alpha) * fu1 + (a / alpha) * fu2
            out = re + 1j * ((fu1 - fu2) / alpha)
        else:
            u = x + a * y
            _refuse_samples(p, f, z, u)
            d = f.deriv(u)
            out = f(u) - a * y * d + 1j * y * d
    return refuse_overflow("extension", z, out)


def _refuse_samples(p: ExtParams, f: RealMap, z, *samples):
    """Nothing while every sample point is finite.  Else, with z_k the first
    point, in C order, where one is not: the extension at the points before
    z_k, which raises at the first of them that it refuses, then the
    refusal of z_k."""
    if all(np.isfinite(u).all() for u in samples):
        return
    samples = np.stack(samples)
    extend_family(p, f, np.ravel(z)[:np.argmin(np.isfinite(samples).all(axis=0))])
    refuse_overflow("extension", z, samples)


def extend_ns(f: RealMap, z):
    """The (1, 2) member: [f(x+y) + f(x-y)]/2 + i [f(x+y) - f(x-y)]/2."""
    return extend_family(ExtParams(1.0, 2.0), f, z)


def act(g: ExtParams, base_extension, f: RealMap, z):
    """Group action on extension operators:

        (g E) f = S_{-a/alpha}^{1/alpha} o (E f) o S_a^alpha .

    ``base_extension`` is any callable (f, z) -> complex taking values in the
    closed upper half-plane; a DomainError is raised if the intermediate
    value escapes it, and for the first point, in C order, whose shear or
    value overflows.
    """
    g.require_group()
    with silenced():
        sheared = _shear_value(g.a, g.alpha, np.asarray(require_upper_half(z)))
        w = base_extension(f, scalar_or_array(refuse_overflow("extension", z, sheared)))
        if np.any(np.imag(w) < 0):
            raise DomainError("base extension left the closed upper half-plane")
        out = _shear_value(-g.a / g.alpha, 1.0 / g.alpha, w)
    return refuse_overflow("extension", z, out)
