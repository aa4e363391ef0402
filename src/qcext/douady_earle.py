"""Douady-Earle (barycentric) extension on the unit disk.

The extension of a circle homeomorphism f evaluated at z is the unique w in
the disk at which the conformal barycenter defect

    int_S (w - f(zeta)) / (1 - conj(w) f(zeta)) |dzeta| / |zeta - z|^2

vanishes.  The defect is discretized by the periodic trapezoid rule (spectral
accuracy for smooth lifts) and the two-real-variable system is solved by a
damped Newton iteration seeded at the Poisson-weighted barycenter of the
boundary values, with the closed-form Wirtinger derivatives of the integrand
as its Jacobian.  A solve samples f once per call and builds the Poisson
rows 1/|zeta_k - z|^2 once per block of points, and every sum reuses them.
A point's rows are n_nodes complex numbers, 16 bytes each, so a block's
points x nodes temporaries take ``errors.BLOCK_BYTES`` each (unblocked, a
200 x 200 grid at 512 nodes would need about 330 MB per temporary).
Every function here takes arrays of points and solves them together; a
scalar point is the 0-d case of the same code.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (DomainError, NonConvergence, blocks, on_flat,
                     raise_at_first, require_positive, scalar_or_array)
from .realmap import NUMBER, NUMBERS, PAIR, map_from_dict, register

_TWO_PI = 2.0 * math.pi


def _principal(angle: float) -> float:
    """``angle`` when |angle| <= 2 pi or it is not finite, else the angle in
    (-pi, pi] with its sine and cosine, which libm reduces exactly: added to
    t, a larger angle would round t away."""
    if abs(angle) <= _TWO_PI or not math.isfinite(angle):
        return angle
    return math.atan2(math.sin(angle), math.cos(angle))


class CircleMap:
    """Orientation-preserving circle homeomorphism given by an increasing
    lift L with L(t + 2 pi) = L(t) + 2 pi.

    ``lift`` must be vectorized over 1-d ndarrays.  Monotonicity and
    periodicity are checked on a dense sample at construction.
    """

    def __init__(self, lift, check: bool = True):
        self.lift = lift
        if check:
            self._validate()

    def _validate(self, periodic: bool = False):
        """Check monotonicity, and periodicity unless known ``periodic``, on
        2048 points of [0, 2 pi)."""
        t = np.linspace(0.0, _TWO_PI, 2048, endpoint=False)
        lt = np.asarray(self.lift(t), dtype=float)
        if not (np.diff(lt) > 0).all():
            raise DomainError("circle map lift is not strictly increasing")
        if not periodic:
            per = np.asarray(self.lift(t + _TWO_PI), dtype=float) - lt
            if np.max(np.abs(per - _TWO_PI)) > 1e-12:
                raise DomainError("circle map lift is not 2*pi-periodic")

    def __call__(self, theta):
        """The lift L(theta); a float for a scalar ``theta``."""
        return on_flat(lambda t: np.asarray(self.lift(t), dtype=float), theta)

    def values(self, theta):
        """Boundary values f(e^{i theta}) = e^{i L(theta)}; a complex for a
        scalar ``theta``."""
        return on_flat(lambda t: np.exp(1j * np.asarray(self.lift(t), dtype=float)),
                       theta)

    @classmethod
    def from_fourier(cls, rotation: float = 0.0, cos_amps=(), sin_amps=()) -> "CircleMap":
        """L(t) = t + rotation + sum_k a_k cos(k t) + b_k sin(k t), summed in
        each point's own row (einsum, no BLAS), whatever the batch."""
        rotation = _principal(rotation)
        ca = np.asarray(cos_amps, dtype=float)
        sa = np.asarray(sin_amps, dtype=float)
        kc = np.arange(1, ca.size + 1)
        ks = np.arange(1, sa.size + 1)

        def lift(t):
            t = np.asarray(t, dtype=float)
            out = t + rotation
            if ca.size:
                out = out + np.einsum("...k,k->...", np.cos(t[..., None] * kc), ca)
            if sa.size:
                out = out + np.einsum("...k,k->...", np.sin(t[..., None] * ks), sa)
            return out

        fourier = cls(lift, check=False)
        fourier._validate(periodic=True)
        return fourier


def compose_circle(outer: CircleMap, inner: CircleMap) -> CircleMap:
    """Circle map with lift L_outer o L_inner (i.e. outer(inner(zeta)))."""
    return CircleMap(lambda t: outer.lift(inner.lift(t)), check=False)


class MobiusAutomorphism:
    """Disk automorphism w -> e^{i phi} (w - c) / (1 - conj(c) w), |c| < 1."""

    __slots__ = ("phi", "c")

    def __init__(self, phi: float, c: complex):
        c = complex(c)
        if not abs(c) < 1:
            raise DomainError(f"Mobius center must satisfy |c| < 1, got |c|={abs(c):g}")
        self.phi = float(phi)
        self.c = c

    def __call__(self, w):
        """m at each point of ``w``; a complex for a scalar ``w``, with the
        bits of the array element."""
        rot, c = cmath.exp(1j * self.phi), self.c
        return on_flat(lambda u: rot * (u - c) / (1.0 - np.conj(c) * u), w, complex)

    def inverse(self) -> "MobiusAutomorphism":
        return MobiusAutomorphism(-self.phi, -self.c * cmath.exp(1j * self.phi))

    def boundary(self) -> CircleMap:
        """Boundary values as a circle map.

        On |zeta| = 1 the image is e^{i(phi + t - 2 arg(1 - conj(c) e^{it}))};
        the argument stays in (-pi/2, pi/2) because Re(1 - conj(c) e^{it}) > 0,
        so the principal branch gives a continuous monotone lift.
        """
        phi, cbar = _principal(self.phi), np.conj(self.c)

        def lift(t):
            t = np.asarray(t, dtype=float)
            return phi + t - 2.0 * np.angle(1.0 - cbar * np.exp(1j * t))

        return CircleMap(lift, check=False)

    def __repr__(self):
        return f"MobiusAutomorphism(phi={self.phi:.6g}, c={self.c:.6g})"


def _disk_points(w, name: str) -> np.ndarray:
    """``w`` as a complex array; the first point (in C order) that is not
    finite or not strictly inside the unit disk raises DomainError."""
    w = np.asarray(w, dtype=complex)
    raise_at_first(
        ~(np.abs(w) < 1), w,
        f"{name} must lie strictly inside the unit disk, got {name}={{}}",
        f"{name} must be finite, got {name}={{}}")
    return w


N_NODES = 512  # default trapezoid nodes per point
TOL = 1e-10    # default bound on the defect at the returned point
# The most trapezoid nodes a solve may use per point (1 MiB of samples a row).
MAX_NODES = 1 << 16


def _check_nodes(n_nodes: int):
    if n_nodes < 16:
        raise DomainError("need at least 16 quadrature nodes")
    if n_nodes > MAX_NODES:
        raise DomainError(f"need at most MAX_NODES = {MAX_NODES} quadrature "
                          f"nodes, got {n_nodes}")


def _samples(f: CircleMap, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes zeta_k = e^{2 pi i k / n} and the values f(zeta_k)."""
    theta = np.arange(n_nodes) * (_TWO_PI / n_nodes)
    return np.exp(1j * theta), f.values(theta)


def _kernel(zeta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Poisson kernel 1/|zeta - z|^2, one row per point of ``z``."""
    z = z[..., None]
    dx = zeta.real - z.real
    dy = zeta.imag - z.imag
    return 1.0 / (dx * dx + dy * dy)


def _defect(w: np.ndarray, fv: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The trapezoid sum of the defect integrand, one row per point."""
    w = w[..., None]
    integrand = (w - fv) / (1.0 - np.conj(w) * fv) * kernel
    return integrand.sum(axis=-1) * (_TWO_PI / fv.shape[-1])


def de_defect(f: CircleMap, w, z, n_nodes: int = N_NODES):
    """Trapezoidal discretization of the barycenter defect integral at each
    pair of broadcast points ``w``, ``z``; a complex for scalar inputs.

    The sum over the nodes of a point is a row sum of its own row, so a
    point's defect does not depend on the other points passed with it.
    """
    w = _disk_points(w, "w")
    z = _disk_points(z, "z")
    _check_nodes(n_nodes)
    w, z = np.broadcast_arrays(w, z)
    flat_w, flat_z = w.ravel(), z.ravel()
    zeta, fv = _samples(f, n_nodes)
    g = np.empty_like(flat_z)
    for rows in blocks(flat_z.size, 16 * n_nodes):
        g[rows] = _defect(flat_w[rows], fv, _kernel(zeta, flat_z[rows]))
    return scalar_or_array(g.reshape(z.shape))


def _de_jacobian(w: np.ndarray, fv: np.ndarray, kernel: np.ndarray):
    """Wirtinger derivatives (d/dw, d/dconj(w)) of the defect at each point,
    from those of (w - a)/(1 - conj(w) a): 1/(1 - conj(w) a) and
    a (w - a)/(1 - conj(w) a)^2."""
    w = w[..., None]
    inv = 1.0 / (1.0 - np.conj(w) * fv)
    k_inv = kernel * inv
    d_w = k_inv.sum(axis=-1)
    d_wbar = (k_inv * inv * fv * (w - fv)).sum(axis=-1)
    h = _TWO_PI / fv.shape[-1]
    return d_w * h, d_wbar * h


def _poisson_seed(fv: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    return (fv * kernel).sum(axis=-1) / kernel.sum(axis=-1)


_MAX_ITER = 50  # Newton steps of one point's solve


def extend_de(f: CircleMap, z, tol: float = TOL, n_nodes: int = N_NODES):
    """Solve the defect equation for w at each point of ``z``; a complex for
    a scalar ``z``, else an array of its shape.

    Damped Newton with the closed-form Jacobian, run on blocks of points
    with a mask of the points still iterating.  Every point follows the
    rules of a solve of its own and gets the same bits as one: the
    returned point satisfies |de_defect(f, w, z)| <= tol (the defect at the
    accepted iterate is always the re-evaluated one).  A ``tol`` that is
    not positive and finite raises DomainError, as does the first point
    outside the disk, in C order; all points are validated before any is
    solved.
    """
    require_positive("tol", tol)
    _check_nodes(n_nodes)
    z = _disk_points(z, "z")
    flat = z.ravel()
    zeta, fv = _samples(f, n_nodes)
    w = np.empty_like(flat)
    for rows in blocks(flat.size, 16 * n_nodes):
        w[rows] = _solve_block(fv, _kernel(zeta, flat[rows]), flat[rows], tol)
    return scalar_or_array(w.reshape(z.shape))


def _solve_block(fv, kernel, z, tol):
    w = _poisson_seed(fv, kernel)
    r = np.abs(w)
    degenerate = r >= 1.0 - 1e-9  # seed on the circle: retreat toward 0
    w[degenerate] *= (1.0 - 1e-6) / r[degenerate]
    g = _defect(w, fv, kernel)
    for it in range(_MAX_ITER + 1):
        act = np.flatnonzero(~(np.abs(g) <= tol))
        if act.size == 0:
            return w
        wa, za, ka, ga = w[act], z[act], kernel[act], g[act]
        if it == _MAX_ITER:
            raise NonConvergence(
                f"disk solve at z={complex(za[0])} did not reach tol={tol:g} in "
                f"{_MAX_ITER} iterations (final defect {abs(ga[0]):.3g})")
        d_w, d_wbar = _de_jacobian(wa, fv, ka)
        # g + d_w s + d_wbar conj(s) = 0, solved with its conjugate equation
        det = np.abs(d_w) ** 2 - np.abs(d_wbar) ** 2
        singular = ~(np.isfinite(det) & (det != 0))
        if singular.any():
            i = int(np.argmax(singular))
            raise NonConvergence(
                f"singular Jacobian in the disk solve at z={complex(za[i])} "
                f"(defect {abs(ga[i]):.3g})")
        step = (d_wbar * np.conj(ga) - np.conj(d_w) * ga) / det
        # backtracking: halve each step until the trial is inside the disk and
        # lowers |g|; a trial outside is not evaluated (g = nan is never lower)
        lam = np.ones(act.size)
        todo = np.arange(act.size)
        while todo.size:
            stalled = lam[todo] < 1e-12
            if stalled.any():
                i = todo[np.argmax(stalled)]
                raise NonConvergence(
                    f"damped Newton stalled at z={complex(za[i])} with defect "
                    f"{abs(ga[i]):.3g} (tol {tol:g})")
            w_try = wa[todo] + lam[todo] * step[todo]
            inside = np.abs(w_try) < 1.0 - 1e-12
            g_try = np.full(todo.size, np.nan, dtype=complex)
            g_try[inside] = _defect(w_try[inside], fv, ka[todo[inside]])
            better = np.abs(g_try) < np.abs(ga[todo])
            done = todo[better]
            w[act[done]] = w_try[better]
            g[act[done]] = g_try[better]
            todo = todo[~better]
            lam[todo] *= 0.5


def de_naturality_residual(f: CircleMap, m: MobiusAutomorphism, z,
                           mode: str = "post"):
    """Conformal-naturality residual against a Mobius automorphism at each
    point of z, with ``extend_de`` at its defaults; a float, with the bits
    of the array element, for a scalar point.

    mode="post": | E(m o f)(z) - m(E(f)(z)) |
    mode="pre":  | E(f o m)(z) - E(f)(m(z)) |
    """
    if mode == "post":
        lhs = extend_de(compose_circle(m.boundary(), f), z)
        rhs = m(extend_de(f, z))
    elif mode == "pre":
        lhs = extend_de(compose_circle(f, m.boundary()), z)
        rhs = extend_de(f, m(z))
    else:
        raise DomainError(f"mode must be 'pre' or 'post', got {mode!r}")
    d = lhs - rhs
    return scalar_or_array(np.hypot(np.real(d), np.imag(d)))  # as abs(complex)


def circle_map_from_dict(d: dict) -> CircleMap:
    """Circle-map description format used by the CLI (see README)."""
    return map_from_dict(d, "circle-map")


register("circle-map", "circle-identity", CircleMap.from_fourier)
register("circle-map", "circle-rotation", lambda angle: CircleMap.from_fourier(angle),
         angle=NUMBER)
register("circle-map", "circle-fourier",
         lambda rotation, cos, sin: CircleMap.from_fourier(rotation, cos, sin),
         rotation=(NUMBER, 0.0), cos=(NUMBERS, ()), sin=(NUMBERS, ()))
register("circle-map", "circle-mobius",
         lambda angle, center: MobiusAutomorphism(angle, complex(*center)).boundary(),
         angle=(NUMBER, 0.0), center=PAIR)
