"""Verification mathematics for the extension operators.

Quasisymmetry ratios, the closed-form dilatation of the shear family and its
sigma phase factor, numeric Beltrami quotients by centered differences,
homomorphism and boundary-limit residuals, and the second-order PDE
characterization Tr(A Hess F) = 0 of the family members.

Every check takes arrays of points; a scalar point is the 0-d case, a float
with the bits of the array element (the stencils divide by the real step
componentwise and take moduli by hypot, as Python's complex arithmetic does).

For alpha > 0 the modulus of the Beltrami quotient of F = E_{a,alpha} f is

    |1 - theta| / |1 - e^{i sigma} theta|,
    theta = f'(x - (alpha - a) y) / f'(x + a y),

with the unit-modulus factor e^{i sigma} depending only on (a, alpha).  At
alpha = 0 the quotient degenerates to the limiting closed form

    (1 + a^2) |y f''(u)| / |2 f'(u) + i (1 + a^2) y f''(u)|,  u = x + a y,

whose supremum over the half-plane equals 1 for every non-affine C^2 map:
the alpha = 0 member is a diffeomorphism but never quasiconformal.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, raise_at_first, scalar_or_array
from .extensions import ExtParams, extend_family, require_upper_half
from .realmap import NUMBER, Composition, RealMap, register


# -- grids -------------------------------------------------------------------

# The most points a grid may hold (1000 x 1000).
MAX_GRID_POINTS = 10 ** 6


def half_plane_grid(x_min: float = -2.0, x_max: float = 2.0,
                    y_min: float = 1e-2, y_max: float = 2.0,
                    nx: int = 20, ny: int = 20) -> np.ndarray:
    """Flat complex grid, linear in x and logarithmic in y (default 20x20
    over [-2, 2] x [1e-2, 2], covering boundary approach and bulk).  The
    bounds and the x range must be finite, y_min positive, both ranges
    increasing, nx, ny >= 2 and nx*ny <= MAX_GRID_POINTS."""
    if not all(map(math.isfinite, (x_min, x_max, y_min, y_max, x_max - x_min))):
        raise DomainError("grid bounds and the x range must be finite")
    if not y_min > 0:
        raise DomainError("grid y_min must be positive")
    if nx < 2 or ny < 2:
        raise DomainError("grid needs nx, ny >= 2")
    if nx * ny > MAX_GRID_POINTS:
        raise DomainError(f"grid of nx*ny = {nx * ny} points is larger than "
                          f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    if not (x_max > x_min and y_max > y_min):
        raise DomainError("grid ranges must be increasing")
    xs = np.linspace(x_min, x_max, nx)
    ys = np.geomspace(y_min, y_max, ny)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


# -- quasisymmetry -----------------------------------------------------------

def m_ratio(f: RealMap, x, t):
    """The two-sided quasisymmetry ratio (f(x+t) - f(x)) / (f(x) - f(x-t));
    x and t broadcast.  DomainError names the first bad x, or t, in C order:
    an x that is not finite, a t that is not positive and finite, then an
    x where x + t or x - t overflows, or rounds to x, where f or its
    increments overflow, and where f does not increase in floats."""
    raise_at_first(~np.isfinite(x), x, "x must be finite, got x={}")
    raise_at_first(~(np.greater(t, 0.0) & np.isfinite(t)), t,
                   "t must be positive and finite, got t={}")
    with np.errstate(over="ignore"):  # refused below
        right, left = np.add(x, t), np.subtract(x, t)
    at = np.broadcast_to(x, np.shape(right))
    raise_at_first(~(np.isfinite(right) & np.isfinite(left)), at,
                   "x + t or x - t overflows in floating point at x={}")
    raise_at_first((right == at) | (left == at), at,
                   "x + t or x - t rounds to x in floating point at x={}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        fx = f(x)
        num, den = f(right) - fx, fx - f(left)
    raise_at_first(~(np.isfinite(num) & np.isfinite(den)), at,
                   "f or its increments overflow in floating point at x={}")
    raise_at_first((num <= 0) | (den <= 0), at,
                   "f is not increasing in floating point at x={}")
    return num / den


def estimate_m(f: RealMap, x_range=(-5.0, 5.0), t_range=(1e-3, 5.0),
               grid_n: int = 40) -> float:
    """Grid supremum of max(ratio, 1/ratio); always >= 1.

    For a map with certified slope bounds (b, B) the estimate never exceeds
    B/b (mean-value bound on both increments).  A range end that is not
    finite raises DomainError naming the first one, and so does an x range
    whose width overflows; ``m_ratio`` names a grid point it cannot take.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    for name, ends in (("x", x_range), ("t", t_range)):
        raise_at_first(~np.isfinite(ends), ends, f"{name} range must be finite, got {{}}")
    if not math.isfinite(x_range[1] - x_range[0]):
        raise DomainError(f"x range [{x_range[0]:g}, {x_range[1]:g}] is wider "
                          "than the floats")
    if not 0 < t_range[0] <= t_range[1]:
        raise DomainError("t range must be positive and increasing")
    xs = np.linspace(x_range[0], x_range[1], grid_n)
    ts = np.geomspace(t_range[0], t_range[1], grid_n)
    r = m_ratio(f, xs[:, None], ts[None, :])
    return float(np.max(np.maximum(r, 1.0 / r)))


# -- dilatation --------------------------------------------------------------

def sigma_factor(p: ExtParams) -> complex:
    """Unit-modulus phase (-i + a)(i + a - alpha) / ((i + a)(-i + a - alpha));
    equals 1 exactly when alpha = 0."""
    a, al = p.a, p.alpha
    num = (-1j + a) * (1j + a - al)
    den = (1j + a) * (-1j + a - al)
    return num / den


def _over(c: np.ndarray, d):
    """c / d for complex c and real d, componentwise as Python divides a
    complex by a float (numpy's complex division multiplies by 1/d)."""
    return c.real / d + 1j * (c.imag / d)


def dilatation_values(f: RealMap, p: ExtParams, z):
    """Vectorized closed-form dilatation over points z (alpha >= 0), with
    theta.  A point where the closed form is undefined, because f' is not
    positive there, gets NaN rather than failing the whole call; the first
    point, in C order, where it is defined but overflows raises DomainError."""
    require_upper_half(z)
    x, y = np.real(z), np.imag(z)
    a, al = p.a, p.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if al > 0:
            d1 = f.deriv(x + a * y)
            d2 = f.deriv(x - (al - a) * y)
            ok = (d1 > 0) & (d2 >= 0)
            theta = d2 / np.where(ok, d1, 1.0)
            sig = sigma_factor(p)
            val = np.abs(1.0 - theta) / np.abs(1.0 - sig * theta)
        else:
            u = x + a * y
            d1 = f.deriv(u)
            ok = d1 > 0
            d2 = f.second_deriv(u)
            scale = 1.0 + a * a
            val = (scale * np.abs(y * d2)
                   / np.abs(2.0 * np.where(ok, d1, 1.0) + 1j * scale * y * d2))
            theta = np.ones_like(val)
    raise_at_first(ok & ~np.isfinite(val), np.asarray(z, dtype=complex),
                   "dilatation at z={} overflows in floating point")
    return np.where(ok, val, np.nan), theta


def dilatation_analytic(f: RealMap, p: ExtParams, z) -> SimpleNamespace:
    """Closed-form Beltrami modulus and theta at each point of z, as the
    record (analytic, theta); the first point, in C order, where the closed
    form is undefined raises DomainError."""
    val, theta = dilatation_values(f, p, z)
    raise_at_first(np.isnan(val), np.asarray(z, dtype=complex),
                   "derivative must be positive on evaluation points, not at z={}")
    return SimpleNamespace(analytic=scalar_or_array(val), theta=scalar_or_array(theta))


def _stencil_points(z, h, what: str):
    """z and h (default 1e-3 Im z) broadcast to arrays, checked for a
    centered-difference stencil in the half-plane: h > 0 and Im z > 2h."""
    z = np.asarray(z, dtype=complex)
    z, h = np.broadcast_arrays(z, 1e-3 * z.imag if h is None
                               else np.asarray(h, dtype=float))
    if not np.all(h > 0):
        raise DomainError("h must be positive")
    raise_at_first(~(z.imag > 2 * h), z,
                   f"need Im z > 2h for the {what} stencil, got z={{}}")
    return z, h


def dilatation_numeric(F, z, h):
    """|d_zbar F / d_z F| by centered differences at step h (broadcast with
    z) at each point of z, with d_zbar = (d_x + i d_y)/2 and
    d_z = (d_x - i d_y)/2.  The four stencil points of every z go to F in
    one call, stacked along a new first axis.  The first point, in C order,
    with Im z <= 2h or |d_z F| below 1e-12 raises DomainError."""
    z, h = _stencil_points(z, h, "difference")
    east, west, north, south = F(np.stack([z + h, z - h, z + 1j * h, z - 1j * h]))
    fx = _over(east - west, 2.0 * h)
    fy = _over(north - south, 2.0 * h)
    dz, dzbar = 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)
    dz = np.hypot(dz.real, dz.imag)
    raise_at_first(dz < 1e-12, z, "degenerate point z={}: |d_z F| below 1e-12")
    return scalar_or_array(np.hypot(dzbar.real, dzbar.imag) / dz)


def compare_dilatation(f: RealMap, p: ExtParams, z, h) -> SimpleNamespace:
    """The record of ``dilatation_analytic`` with the centered-difference
    dilatation at step h and the gap between the two (numeric, gap)."""
    report = dilatation_analytic(f, p, z)
    report.numeric = dilatation_numeric(lambda w: extend_family(p, f, w), z, h)
    report.gap = scalar_or_array(np.abs(report.analytic - report.numeric))
    return report


def sup_dilatation(f: RealMap, p: ExtParams, grid) -> float:
    """Maximum of the closed-form dilatation over a grid of points."""
    if np.size(grid) == 0:
        raise DomainError("grid must be nonempty")
    return float(np.max(dilatation_analytic(f, p, grid).analytic))


def dilatation_bound(p: ExtParams, deriv_lo: float, deriv_hi: float) -> float:
    """Closed-form bound on the dilatation when f' is certified in
    [deriv_lo, deriv_hi]: theta ranges over [lo/hi, hi/lo] and the quotient
    is monotone away from theta = 1, so the endpoints dominate."""
    p.require_group()
    if not 0 < deriv_lo <= deriv_hi:
        raise DomainError("need 0 < deriv_lo <= deriv_hi")
    sig = sigma_factor(p)
    ends = np.array([deriv_lo / deriv_hi, deriv_hi / deriv_lo])
    return float(np.max(np.abs(1.0 - ends) / np.abs(1.0 - sig * ends)))


# -- admissibility residuals ---------------------------------------------------

def homomorphism_residual(p: ExtParams, f: RealMap, g: RealMap, grid) -> float:
    """max over the grid of |E(f o g)(z) - E(f)(E(g)(z))|; exact algebra for
    alpha > 0, so only float noise survives."""
    p.require_group()
    grid = np.asarray(grid)
    lhs = extend_family(p, Composition(f, g), grid)
    rhs = extend_family(p, f, extend_family(p, g, grid))
    return float(np.max(np.abs(lhs - rhs)))


def boundary_residual(p: ExtParams, f: RealMap, interval=(-1.0, 1.0), y=1e-2):
    """sup over 201 sampled x in the interval of |E f(x + i y) - f(x)|, at
    each height of y in one call; a float for a scalar y."""
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0):
        raise DomainError("y must be positive")
    xs = np.linspace(interval[0], interval[1], 201)
    vals = extend_family(p, f, xs + 1j * y[..., None])
    return scalar_or_array(np.max(np.abs(vals - f(xs)), axis=-1))


def boundary_constant(p: ExtParams, deriv_hi: float) -> float:
    """Lipschitz constant C with |E f(x + iy) - f(x)| <= C y, alpha > 0:
    C = B (|a| sqrt(1 + (alpha-a)^2) + |alpha-a| sqrt(1 + a^2)) / alpha."""
    p.require_group()
    a, al = p.a, p.alpha
    return deriv_hi * (abs(a) * math.hypot(1.0, al - a)
                       + abs(al - a) * math.hypot(1.0, a)) / al


# -- PDE characterization ------------------------------------------------------

def pde_matrix(p: ExtParams) -> np.ndarray:
    """Symmetric coefficient matrix A of the characteristic equation
    Tr(A Hess F) = 0; A = [[(alpha-a) a, (2a-alpha)/2], [(2a-alpha)/2, -1]]."""
    a, al = p.a, p.alpha
    off = 0.5 * (2.0 * a - al)
    return np.array([[(al - a) * a, off], [off, -1.0]])


def pde_residual(f: RealMap, p: ExtParams, z, h=None):
    """|Tr(A Hess F)(z)| at each point of z, with Hessian entries by centered
    second differences at step h (broadcast with z; 1e-3 Im z by default)
    applied to the complex values.  The nine stencil points of every z go to
    ``extend_family`` in one call.  Requires a C^2 map; the first point, in
    C order, with Im z <= 2h raises DomainError."""
    if not f.has_second_deriv:
        raise DomainError("PDE residual requires a C^2 map kind")
    z, h = _stencil_points(z, h, "Hessian")
    c, e, w, n, s, ne, se, nw, sw = extend_family(p, f, np.stack([
        z, z + h, z - h, z + 1j * h, z - 1j * h,
        z + h + 1j * h, z + h - 1j * h, z - h + 1j * h, z - h - 1j * h]))
    fxx = _over(e - 2.0 * c + w, h * h)
    fyy = _over(n - 2.0 * c + s, h * h)
    fxy = _over(ne - se - nw + sw, 4.0 * (h * h))
    mat = pde_matrix(p)
    r = mat[0, 0] * fxx + 2.0 * mat[0, 1] * fxy + mat[1, 1] * fyy
    return scalar_or_array(np.hypot(r.real, r.imag))


# -- special analytic maps -----------------------------------------------------

class CubicMap(RealMap):
    """f(x) = x^3: increasing and C^2 but not bi-Lipschitz (f'(0) = 0).

    The classical witness that the family does not stay quasiconformal off
    the bi-Lipschitz class; admitted by the dilatation and supremum
    operations only.  Construction-gated everywhere a certified positive
    lower slope bound is required.
    """

    kind = "cubic"

    def __init__(self):
        super().__init__(0.0, math.inf, bilipschitz=False)

    def _eval(self, x):
        return x ** 3

    def _deriv(self, x):
        return 3.0 * x ** 2

    def _second(self, x):
        return 6.0 * x


class QuadraticWindowMap(RealMap):
    """Equals x^2 on [window_lo + ramp, window_hi - ramp], with the slope
    ramped C^1-continuously to constants outside, so the map is a C^2
    increasing bi-Lipschitz map that is exactly quadratic on the window.

    Under the (1, 2) member the extension of a quadratic is
    (x^2 + y^2) + 2 i x y, an exact solution of the wave equation, which
    makes this the reference map for the PDE residual.
    """

    kind = "quadratic-window"

    def __init__(self, window_lo: float = 1.0, window_hi: float = 4.0,
                 ramp: float = 0.25):
        if not window_lo > 0:
            raise DomainError("window_lo must be positive")
        if not ramp > 0:
            raise DomainError("ramp must be positive")
        if not window_hi - window_lo > 2 * ramp:
            raise DomainError("window too narrow for the requested ramp")
        try:  # the largest constants of the ramps, in Python floats
            top = (window_hi + ramp) ** 2 + 8.0 * ramp ** 3
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise DomainError(f"quadratic window with window_hi {window_hi:g} and "
                              f"ramp {ramp:g} overflows in floating point")
        super().__init__(2.0 * window_lo, 2.0 * window_hi)
        self.window_lo = float(window_lo)
        self.window_hi = float(window_hi)
        self.ramp = float(ramp)

    @property
    def window(self) -> tuple[float, float]:
        """Interval on which the map is exactly x -> x^2."""
        return (self.window_lo + self.ramp, self.window_hi - self.ramp)

    def _piecewise(self, x, order):
        """The ``order``-th derivative (0, 1 or 2) of the map: each of its
        five piece formulas on its own points alone (off its interval a piece
        may overflow), and 0 where x is NaN."""
        l, r, s = self.window_lo, self.window_hi, self.ramp
        f_lm = (l - s) ** 2 - 4.0 * s * s / 3.0  # value at l - s
        f_rp = (r + s) ** 2 - 4.0 * s * s / 3.0  # value at r + s
        pieces = [
            [lambda x: f_lm + 2.0 * l * (x - (l - s)),
             lambda x: (l + s) ** 2 - 2.0 * l * (l + s - x)
             - (8.0 * s ** 3 - (x - l + s) ** 3) / (6.0 * s),
             lambda x: x * x,
             lambda x: (r - s) ** 2 + 2.0 * r * (x - r + s)
             - (8.0 * s ** 3 - (r + s - x) ** 3) / (6.0 * s),
             lambda x: f_rp + 2.0 * r * (x - (r + s))],
            [lambda x: 2.0 * l,
             lambda x: 2.0 * l + (x - l + s) ** 2 / (2.0 * s),
             lambda x: 2.0 * x,
             lambda x: 2.0 * r - (r + s - x) ** 2 / (2.0 * s),
             lambda x: 2.0 * r],
            [lambda x: 0.0,
             lambda x: (x - l + s) / s,
             lambda x: 2.0,
             lambda x: (r + s - x) / s,
             lambda x: 0.0],
        ][order]
        ons = [x <= l - s, (x > l - s) & (x < l + s), (x >= l + s) & (x <= r - s),
               (x > r - s) & (x < r + s), x >= r + s]
        out = np.zeros_like(x)
        for on, piece in zip(ons, pieces):
            out[on] = piece(x[on])
        return out

    def _eval(self, x):
        return self._piecewise(x, 0)

    def _deriv(self, x):
        return self._piecewise(x, 1)

    def _second(self, x):
        return self._piecewise(x, 2)


register("map", "cubic", CubicMap)
register("map", "quadratic-window", QuadraticWindowMap, window_lo=(NUMBER, 1.0),
         window_hi=(NUMBER, 4.0), ramp=(NUMBER, 0.25))
