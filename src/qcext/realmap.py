"""Certified-monotone C^1 function algebra on the real line.

Maps are built from a closed set of constructors -- affine maps, compactly
supported bump perturbations of the identity, power integrals, compositions,
tapers, monotone inverses and monotone samples -- rather than arbitrary
callables.  Every map carries certified two-sided derivative bounds
``[deriv_lo, deriv_hi]`` that propagate through the algebra by interval
arithmetic, which is what makes bi-Lipschitz certification (and hence the
factorization routine) possible.

All maps are immutable after construction; evaluation accepts scalars or
ndarrays and is safe to share across threads.  The only internal mutable
state is the power-integral breakpoint cache, which is guarded by a lock
and idempotent.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np

from .errors import DomainError, NonConvergence, QuadratureFailure
from .quadrature import gauss_legendre, panel_integrals

# sup |p'| for the bump profile p(t) = (1 - t^2)^3, attained at t = 1/sqrt(5)
BUMP_SLOPE_MAX = 96.0 * math.sqrt(5.0) / 125.0


def _interval_power(lo: float, hi: float, exponent: float) -> tuple[float, float]:
    """Image of the interval [lo, hi], lo > 0, under t -> t**exponent."""
    a, b = lo ** exponent, hi ** exponent
    return (a, b) if a <= b else (b, a)


def _same_map(f: "RealMap", g: "RealMap") -> bool:
    """Whether two nodes denote the same map: object identity or identical
    construction parameters (the algebra is deterministic, so an equal
    description is an equal map)."""
    if f is g:
        return True
    try:
        return f.to_dict() == g.to_dict()
    except NotImplementedError:  # pragma: no cover
        return False


class RealMap:
    """Base class: a strictly increasing C^1 map with certified slope bounds."""

    kind = "abstract"

    def __init__(self, deriv_lo: float, deriv_hi: float, bilipschitz: bool = True):
        if bilipschitz and not deriv_lo > 0:
            raise DomainError(
                f"certified derivative lower bound must be positive, got {deriv_lo}")
        if deriv_hi < deriv_lo:
            raise DomainError("derivative bounds are out of order")
        self.deriv_lo = float(deriv_lo)
        self.deriv_hi = float(deriv_hi)
        self.bilipschitz = bool(bilipschitz)

    # -- evaluation ------------------------------------------------------

    def _eval(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _deriv(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._eval(arr.ravel()).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    def deriv(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._deriv(arr.ravel()).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    @property
    def has_second_deriv(self) -> bool:
        return False

    def _second(self, x: np.ndarray) -> np.ndarray:
        raise DomainError(f"map of kind '{self.kind}' does not expose a "
                          "continuous second derivative")

    def second_deriv(self, x):
        if not self.has_second_deriv:
            raise DomainError(f"map of kind '{self.kind}' does not expose a "
                              "continuous second derivative")
        arr = np.asarray(x, dtype=float)
        out = self._second(arr.ravel()).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    def deriv_bounds(self) -> tuple[float, float]:
        return (self.deriv_lo, self.deriv_hi)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:  # pragma: no cover
        raise NotImplementedError

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def __repr__(self):
        return (f"<{type(self).__name__} kind={self.kind!r} "
                f"deriv in [{self.deriv_lo:.6g}, {self.deriv_hi:.6g}]>")


class Affine(RealMap):
    """x -> slope * x + intercept with slope > 0."""

    kind = "affine"

    def __init__(self, slope: float, intercept: float = 0.0):
        if not slope > 0:
            raise DomainError(f"affine slope must be positive, got {slope}")
        super().__init__(slope, slope)
        self.slope = float(slope)
        self.intercept = float(intercept)

    def _eval(self, x):
        return self.slope * x + self.intercept

    def _deriv(self, x):
        return np.full_like(x, self.slope)

    @property
    def has_second_deriv(self):
        return True

    def _second(self, x):
        return np.zeros_like(x)

    def to_dict(self):
        return {"kind": self.kind, "slope": self.slope, "intercept": self.intercept}


def identity() -> Affine:
    return Affine(1.0, 0.0)


class BumpProfile:
    """amplitude * p((x - center)/halfwidth) with p(t) = (1 - t^2)^3 on [-1, 1].

    p is C^2 with p'' vanishing at the support edges; sup |p'| is attained at
    t = 1/sqrt(5) and equals BUMP_SLOPE_MAX, so ``sup_abs_slope`` is exact.
    """

    __slots__ = ("center", "halfwidth", "amplitude")

    def __init__(self, center: float, halfwidth: float, amplitude: float):
        if not halfwidth > 0:
            raise DomainError(f"bump halfwidth must be positive, got {halfwidth}")
        self.center = float(center)
        self.halfwidth = float(halfwidth)
        self.amplitude = float(amplitude)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    @property
    def sup_abs_slope(self) -> float:
        return abs(self.amplitude) / self.halfwidth * BUMP_SLOPE_MAX

    def _on_support(self, x, poly):
        """poly(t, 1 - t^2) where |t| < 1, t = (x - center)/halfwidth; 0 off."""
        t = (x - self.center) / self.halfwidth
        out = np.zeros_like(t)
        m = np.abs(t) < 1.0
        tm = t[m]
        out[m] = poly(tm, 1.0 - tm * tm)
        return out

    def value(self, x):
        return self._on_support(x, lambda t, u: self.amplitude * u * u * u)

    def d1(self, x):
        return self._on_support(
            x, lambda t, u: self.amplitude / self.halfwidth * (-6.0) * t * u * u)

    def d2(self, x):
        return self._on_support(
            x, lambda t, u: (self.amplitude / self.halfwidth ** 2
                             * 6.0 * u * (5.0 * t * t - 1.0)))

    def to_dict(self):
        return {"center": self.center, "halfwidth": self.halfwidth,
                "amplitude": self.amplitude}


class IdentityPlusBump(RealMap):
    """Identity plus a finite sum of bump profiles; equals Id off the supports.

    Certified bounds: 1 +/- S where S is the max of the per-bump slope sups
    for pairwise disjoint supports, and their sum otherwise.
    """

    kind = "identity-plus-bump"

    def __init__(self, bumps):
        bumps = [b if isinstance(b, BumpProfile) else BumpProfile(**b) for b in bumps]
        if not bumps:
            raise DomainError("identity-plus-bump needs at least one bump")
        sups = [b.sup_abs_slope for b in bumps]
        intervals = sorted(b.support for b in bumps)
        disjoint = all(intervals[i][1] <= intervals[i + 1][0]
                       for i in range(len(intervals) - 1))
        s = max(sups) if disjoint else sum(sups)
        if s >= 1.0:
            raise DomainError(
                f"bump slopes sum to {s:.6g} >= 1; map would not be increasing")
        super().__init__(1.0 - s, 1.0 + s)
        self.bumps = tuple(bumps)

    @property
    def support(self) -> tuple[float, float]:
        los, his = zip(*(b.support for b in self.bumps))
        return (min(los), max(his))

    def _eval(self, x):
        out = x.copy()
        for b in self.bumps:
            out = out + b.value(x)
        return out

    def _deriv(self, x):
        out = np.ones_like(x)
        for b in self.bumps:
            out = out + b.d1(x)
        return out

    @property
    def has_second_deriv(self):
        return True

    def _second(self, x):
        out = np.zeros_like(x)
        for b in self.bumps:
            out = out + b.d2(x)
        return out

    def to_dict(self):
        return {"kind": self.kind, "bumps": [b.to_dict() for b in self.bumps]}


def bump_map(center: float, halfwidth: float, amplitude: float) -> IdentityPlusBump:
    """Id + one bump; the workhorse perturbation of the identity."""
    return IdentityPlusBump([BumpProfile(center, halfwidth, amplitude)])


class PowerIntegral(RealMap):
    """x -> integral_0^x base'(t)**exponent dt.

    Values are produced by composite Gauss-Legendre quadrature over a cached
    table of breakpoints anchored at 0; the table is extended lazily to cover
    requested ranges and refined until the embedded error estimate meets
    ``quad_tol``.  Certified bounds are the interval power of the base bounds.
    """

    kind = "power-integral"

    _PANEL = 0.25          # nominal breakpoint spacing
    _ORDER = 16

    def __init__(self, base: RealMap, exponent: float, quad_tol: float = 1e-10):
        if not base.bilipschitz:
            raise DomainError("power integral requires a bi-Lipschitz base map")
        lo, hi = _interval_power(base.deriv_lo, base.deriv_hi, exponent)
        super().__init__(lo, hi)
        self.base = base
        self.exponent = float(exponent)
        self.quad_tol = float(quad_tol)
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    def _integrand(self, t):
        return self.base.deriv(t) ** self.exponent

    def _build_table(self, lo: float, hi: float):
        n_left = max(1, int(math.ceil(-lo / self._PANEL)))
        n_right = max(1, int(math.ceil(hi / self._PANEL)))
        edges = np.concatenate([
            np.linspace(-n_left * self._PANEL, 0.0, n_left + 1),
            np.linspace(0.0, n_right * self._PANEL, n_right + 1)[1:],
        ])
        a, b = edges[:-1], edges[1:]
        vals = panel_integrals(self._integrand, a, b, self._ORDER)
        check = panel_integrals(self._integrand, a, b, self._ORDER * 2)
        for _ in range(40):
            err = np.abs(vals - check)
            bad = err > self.quad_tol * np.maximum(b - a, 1e-3) / max(hi - lo, 1.0)
            if not bad.any():
                break
            mid = 0.5 * (a[bad] + b[bad])
            a = np.sort(np.concatenate([a, mid]))
            b = np.sort(np.concatenate([b[~bad], mid, b[bad]]))
            vals = panel_integrals(self._integrand, a, b, self._ORDER)
            check = panel_integrals(self._integrand, a, b, self._ORDER * 2)
        else:
            raise QuadratureFailure(
                "breakpoint refinement could not reach the quadrature tolerance")
        edges = np.concatenate([a, b[-1:]])
        cum = np.concatenate([[0.0], np.cumsum(check)])
        zero_idx = int(np.searchsorted(edges, 0.0))
        cum = cum - cum[zero_idx]
        self._table = (edges, cum)

    def _ensure_table(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        lo = min(lo, 0.0) - 1.0
        hi = max(hi, 0.0) + 1.0
        table = self._table
        if table is not None and table[0][0] <= lo and table[0][-1] >= hi:
            return table
        with self._lock:
            table = self._table
            if table is not None and table[0][0] <= lo and table[0][-1] >= hi:
                return table
            if table is not None:
                lo = min(lo, float(table[0][0]))
                hi = max(hi, float(table[0][-1]))
            span = hi - lo
            self._build_table(lo - 0.25 * span, hi + 0.25 * span)
            return self._table

    def _eval(self, x):
        if x.size == 0:
            return x.copy()
        edges, cum = self._ensure_table(float(x.min()), float(x.max()))
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)
        anchors = edges[idx]
        nodes, weights = gauss_legendre(self._ORDER)
        mid = 0.5 * (anchors + x)
        half = 0.5 * (x - anchors)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = self._integrand(pts.ravel()).reshape(pts.shape)
        return cum[idx] + half * (vals @ weights)

    def _deriv(self, x):
        return self._integrand(x)

    @property
    def has_second_deriv(self):
        return self.base.has_second_deriv

    def _second(self, x):
        d = self.base.deriv(x)
        return self.exponent * d ** (self.exponent - 1.0) * self.base.second_deriv(x)

    def to_dict(self):
        return {"kind": self.kind, "base": self.base.to_dict(),
                "exponent": self.exponent}


def power_integral_map(f: RealMap, alpha: float, quad_tol: float = 1e-10) -> RealMap:
    """The map x -> integral_0^x f'(t)**alpha dt with certified power bounds."""
    if alpha == 0.0:
        return identity()
    return PowerIntegral(f, alpha, quad_tol)


class InverseMap(RealMap):
    """Lazy monotone inverse; values are produced by bracketed root-finding.

    The certified bracket comes from the base bounds: if d = y - base(0) then
    the preimage lies between d/deriv_hi and d/deriv_lo.
    """

    kind = "inverse"

    def __init__(self, base: RealMap, value_tol: float = 1e-11):
        if not base.bilipschitz:
            raise DomainError("only bi-Lipschitz maps have certified inverses")
        super().__init__(1.0 / base.deriv_hi, 1.0 / base.deriv_lo)
        self.base = base
        self.value_tol = float(value_tol)

    def _eval(self, y):
        return _invert_array(self.base, y, self.value_tol)

    def _deriv(self, y):
        return 1.0 / self.base.deriv(self._eval(y))

    @property
    def has_second_deriv(self):
        return self.base.has_second_deriv

    def _second(self, y):
        u = self._eval(y)
        d = self.base.deriv(u)
        return -self.base.second_deriv(u) / d ** 3

    def to_dict(self):
        return {"kind": self.kind, "base": self.base.to_dict()}


def inverse_map(f: RealMap, value_tol: float = 1e-11) -> InverseMap:
    return InverseMap(f, value_tol)


class Composition(RealMap):
    """outer(inner(x)); bounds by interval product, tightened when the pair
    is a power integral composed with the inverse of a power integral of the
    same base (the chain rule cancels to a single power of the base slope).
    """

    kind = "composition"

    def __init__(self, outer: RealMap, inner: RealMap):
        tight = self._power_cancellation(outer, inner)
        if tight is None:
            lo = outer.deriv_lo * inner.deriv_lo
            hi = outer.deriv_hi * inner.deriv_hi
        else:
            lo, hi = tight
        super().__init__(lo, hi, bilipschitz=outer.bilipschitz and inner.bilipschitz)
        self.outer = outer
        self.inner = inner

    @staticmethod
    def _power_cancellation(outer, inner):
        if not (isinstance(inner, InverseMap) and isinstance(inner.base, PowerIntegral)):
            return None
        pi = inner.base
        if isinstance(outer, PowerIntegral) and _same_map(outer.base, pi.base):
            delta = outer.exponent - pi.exponent
        elif _same_map(outer, pi.base):
            delta = 1.0 - pi.exponent
        else:
            return None
        return _interval_power(pi.base.deriv_lo, pi.base.deriv_hi, delta)

    def _eval(self, x):
        return self.outer._eval(self.inner._eval(x))

    def _deriv(self, x):
        di = self.inner._deriv(x)
        if self.outer.deriv_lo == self.outer.deriv_hi:
            return self.outer.deriv_lo * di  # constant outer slope
        return self.outer._deriv(self.inner._eval(x)) * di

    @property
    def has_second_deriv(self):
        return self.outer.has_second_deriv and self.inner.has_second_deriv

    def _second(self, x):
        u = self.inner._eval(x)
        di = self.inner._deriv(x)
        return (self.outer._second(u) * di * di
                + self.outer._deriv(u) * self.inner._second(x))

    def to_dict(self):
        maps = []
        for part in (self.outer, self.inner):
            if isinstance(part, Composition):
                maps.extend(part.to_dict()["maps"])
            else:
                maps.append(part.to_dict())
        return {"kind": self.kind, "maps": maps}


def compose(f: RealMap, g: RealMap) -> RealMap:
    """The composition x -> f(g(x))."""
    return Composition(f, g)


class Tapered(RealMap):
    """Id + (base - Id) * psi, with psi a C^1 cutoff: 1 on [-T, T], 0 outside
    [-2T, 2T], |psi'| <= 1.5/T on the smoothstep transitions.
    """

    kind = "tapered"

    def __init__(self, base: RealMap, plateau: float):
        if not plateau > 0:
            raise DomainError(f"taper radius must be positive, got {plateau}")
        if not base.bilipschitz:
            raise DomainError("taper requires a bi-Lipschitz base map")
        T = float(plateau)
        b, B = base.deriv_bounds()
        m = max(B - 1.0, 1.0 - b, 0.0)
        # certified sup of |base(x) - x| over the transition bands: max over
        # dense anchors plus the derivative drift to the nearest anchor
        anchors = np.concatenate([np.linspace(-2.0 * T, -T, 129),
                                  np.linspace(T, 2.0 * T, 129)])
        half_gap = 0.5 * (T / 128.0)
        disp = float(np.max(np.abs(base(anchors) - anchors))) + m * half_gap
        lo = min(1.0, b) - 1.5 * disp / T
        hi = max(1.0, B) + 1.5 * disp / T
        if not lo > 0:
            raise DomainError(
                f"tapered map is not certifiably increasing (lower bound {lo:.4g}); "
                "increase the plateau radius")
        super().__init__(lo, hi)
        self.base = base
        self.plateau = T

    def _psi(self, x):
        T = self.plateau
        u = np.clip((2.0 * T - np.abs(x)) / T, 0.0, 1.0)
        return u * u * (3.0 - 2.0 * u)

    def _psi_d1(self, x):
        T = self.plateau
        ax = np.abs(x)
        u = (2.0 * T - ax) / T
        on_ramp = (ax > T) & (ax < 2.0 * T)
        slope = 6.0 * u * (1.0 - u) / T
        return np.where(on_ramp, -np.sign(x) * slope, 0.0)

    def _eval(self, x):
        return x + (self.base._eval(x) - x) * self._psi(x)

    def _deriv(self, x):
        return (1.0 + (self.base._deriv(x) - 1.0) * self._psi(x)
                + (self.base._eval(x) - x) * self._psi_d1(x))

    def to_dict(self):
        return {"kind": self.kind, "base": self.base.to_dict(),
                "plateau": self.plateau}


def taper(f: RealMap, T: float) -> Tapered:
    """Agrees with f on [-T, T] and with the identity outside [-2T, 2T]."""
    return Tapered(f, T)


class SampledMonotone(RealMap):
    """Monotone C^1 interpolation of strictly increasing samples.

    Fritsch-Carlson (PCHIP) inside the sample window, affine continuation
    with the end slopes outside.  Certified bounds are the exact extrema of
    the piecewise-cubic derivative, computed from the polynomial
    coefficients, together with the end slopes.
    """

    kind = "sampled-monotone"

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
            raise DomainError("need matching 1-d sample arrays with >= 2 points")
        if not (np.diff(xs) > 0).all() or not (np.diff(ys) > 0).all():
            raise DomainError("samples must be strictly increasing in x and y")
        from scipy.interpolate import PchipInterpolator  # only this kind needs scipy
        pp = PchipInterpolator(xs, ys, extrapolate=False)
        dmin, dmax = self._deriv_extrema(pp, xs)
        super().__init__(dmin, dmax)
        self._pp = pp
        self._dpp = pp.derivative()
        self.xs, self.ys = xs, ys
        self._slope_left = float(self._dpp(xs[0]))
        self._slope_right = float(self._dpp(xs[-1]))

    @staticmethod
    def _deriv_extrema(pp, xs):
        c = pp.c  # (4, n-1): local cubics sum c[m] * s**(3-m), s = x - x_i
        h = np.diff(xs)
        c3, c2, c1 = c[0], c[1], c[2]
        cands = [c1, 3.0 * c3 * h * h + 2.0 * c2 * h + c1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s_star = np.where(c3 != 0.0, -c2 / (3.0 * c3), np.nan)
        valid = np.isfinite(s_star) & (s_star > 0.0) & (s_star < h)
        vertex = np.where(valid, 3.0 * c3 * s_star ** 2 + 2.0 * c2 * s_star + c1,
                          cands[0])
        cands.append(vertex)
        allc = np.concatenate(cands)
        return float(allc.min()), float(allc.max())

    def _eval(self, x):
        x0, xN = self.xs[0], self.xs[-1]
        inner = self._pp(np.clip(x, x0, xN))
        out = np.where(x < x0, self.ys[0] + self._slope_left * (x - x0), inner)
        return np.where(x > xN, self.ys[-1] + self._slope_right * (x - xN), out)

    def _deriv(self, x):
        x0, xN = self.xs[0], self.xs[-1]
        inner = self._dpp(np.clip(x, x0, xN))
        out = np.where(x < x0, self._slope_left, inner)
        return np.where(x > xN, self._slope_right, out)

    def to_dict(self):
        return {"kind": self.kind, "xs": self.xs.tolist(), "ys": self.ys.tolist()}


def sampled_monotone(xs, ys) -> SampledMonotone:
    return SampledMonotone(xs, ys)


# -- inversion -------------------------------------------------------------

def _invert_array(f: RealMap, y: np.ndarray, tol: float,
                  max_iter: int = 200) -> np.ndarray:
    if not f.bilipschitz:
        raise DomainError("inversion requires certified positive slope bounds")
    if y.size == 0:
        return y.copy()
    b, B = f.deriv_bounds()
    d = y - f(0.0)
    lo = np.where(d >= 0.0, d / B, d / b) - 1e-9
    hi = np.where(d >= 0.0, d / b, d / B) + 1e-9
    width = float(np.max(hi - lo))
    n_bisect = min(80, max(0, int(math.ceil(math.log2(max(width, 1e-30) / 1e-3)))))
    used = 0
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        below = np.asarray(f(mid)) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        used += 1
    x = 0.5 * (lo + hi)
    while used < max_iter:
        r = np.asarray(f(x)) - y
        if np.all(np.abs(r) <= tol):
            return x
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r < 0.0, hi, x)
        x = np.clip(x - r / np.asarray(f.deriv(x)), lo, hi)
        used += 1
    r = np.abs(np.asarray(f(x)) - y)
    if np.all(r <= tol):
        return x
    raise NonConvergence(
        f"inversion did not reach tol={tol:g} in {max_iter} iterations "
        f"(worst residual {float(r.max()):.3g}); map may be malformed")


def invert_at(f: RealMap, y: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Solve f(x) = y to |f(x) - y| <= tol; bracketed bisection then Newton."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    return float(_invert_array(f, np.asarray([y], dtype=float), tol, max_iter)[0])


# -- map-description format -------------------------------------------------

def map_from_dict(d: dict) -> RealMap:
    """Build a map from its JSON-style description (see README for schema)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise DomainError("map description must be an object with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "affine":
            return Affine(d["slope"], d.get("intercept", 0.0))
        if kind == "identity-plus-bump":
            return IdentityPlusBump(d["bumps"])
        if kind == "power-integral":
            return PowerIntegral(map_from_dict(d["base"]), d["exponent"])
        if kind == "composition":
            maps = [map_from_dict(m) for m in d["maps"]]
            if len(maps) < 2:
                raise DomainError("composition needs at least two maps")
            # left-associative fold, so a trailing inverse factor sees the
            # whole prefix as its outer map (keeps cancellation bounds tight)
            out = maps[0]
            for m in maps[1:]:
                out = Composition(out, m)
            return out
        if kind == "tapered":
            return Tapered(map_from_dict(d["base"]), d["plateau"])
        if kind == "sampled-monotone":
            return SampledMonotone(d["xs"], d["ys"])
        if kind == "inverse":
            return InverseMap(map_from_dict(d["base"]))
        if kind == "cubic":
            from .analysis import cubic_map
            return cubic_map()
        if kind == "quadratic-window":
            from .analysis import quadratic_window_map
            return quadratic_window_map(d.get("window_lo", 1.0),
                                        d.get("window_hi", 4.0),
                                        d.get("ramp", 0.25))
    except KeyError as exc:
        raise DomainError(f"map description for kind '{kind}' is missing {exc}") from exc
    raise DomainError(f"unknown map kind '{kind}'")


def map_from_json(text: str) -> RealMap:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON map description: {exc}") from exc
    return map_from_dict(payload)


def map_from_file(path) -> RealMap:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_json(fh.read())
