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

from .errors import DomainError, raise_at_first, scalar_or_array
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
    """S(z) = (x + a*y) + i*alpha*y; preserves the upper half-plane."""
    if not alpha > 0:
        raise DomainError(f"shear requires alpha > 0, got {alpha}")
    return scalar_or_array(_shear_value(a, alpha, np.asarray(require_upper_half(z))))


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
    first point, in C order, whose value overflows raises DomainError.
    """
    require_upper_half(z)
    x, y = np.real(z), np.imag(z)
    a, alpha = p.a, p.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if alpha > 0:
            fu1, fu2 = (f(x + t * y) for t in p.nodes)
            re = (1.0 - a / alpha) * fu1 + (a / alpha) * fu2
            out = re + 1j * ((fu1 - fu2) / alpha)
        else:
            u = x + a * y
            d = f.deriv(u)
            out = f(u) - a * y * d + 1j * y * d
    _require_finite(out, z)
    return out


def _require_finite(out, z):
    raise_at_first(~np.isfinite(out), np.asarray(z, dtype=complex),
                   "extension at z={} overflows in floating point")


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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        sheared = shear(g.a, g.alpha, z)
        _require_finite(sheared, z)
        w = base_extension(f, sheared)
        if np.any(np.imag(w) < 0):
            raise DomainError("base extension left the closed upper half-plane")
        out = _shear_value(-g.a / g.alpha, 1.0 / g.alpha, w)
    _require_finite(out, z)
    return out
