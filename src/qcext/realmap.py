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
state is the power-integral table, which grows by appending panels and
never changes an entry it holds, so neither a value nor a refusal depends
on what was evaluated before, and the store of a base map's slopes at the
table nodes (``_NodeSlopes``), kept on the base object for as long as it
lives and shared by every power integral on it, which likewise only adds
entries.  One lock per base object, kept with its store, guards the store
and the tables of every power integral on that base.  A point at a table
edge, or on a panel the store flags flat, is evaluated from the table
alone.  Maps may list the points where their derivative is not smooth
(``breakpoints``); tables put panel edges there.  Monotone inversion
is one safeguarded Newton loop that starts from a bracket the map supplies:
the certified slope bracket, or one table panel for a power integral.  A
Newton pass (``_eval_with_slope``) is only made on finite points inside
those brackets, so a power integral reads its table there unchecked.
``map_from_dict`` keys every part of a description by its text, the whole
too, and builds one object for equal texts, so a power integral written
twice in it, as in a reloaded factorization, has one table.  Each map lists
its own factors (``maps``), so every description reloads to its tree.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import reprlib
import sys
import threading
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, NonConvergence, QuadratureFailure, on_flat,
                     raise_at_first)
from .quadrature import panel_integrals, panel_samples, panel_sums

# sup |p'| for the bump profile p(t) = (1 - t^2)^3, attained at t = 1/sqrt(5)
BUMP_SLOPE_MAX = 96.0 * math.sqrt(5.0) / 125.0


def _interval_power(lo: float, hi: float, exponent: float, what: str):
    """Image of the interval [lo, hi], lo > 0, under t -> t**exponent; a
    power past the float range raises DomainError naming ``what``."""
    try:
        return tuple(sorted((lo ** exponent, hi ** exponent)))
    except OverflowError:
        raise DomainError(f"{what} {exponent:g} overflows the certified slope "
                          f"bounds [{lo:.6g}, {hi:.6g}]") from None


def _same_map(f: "RealMap", g: "RealMap") -> bool:
    """Whether two nodes denote the same map: object identity or identical
    construction parameters (the algebra is deterministic, so an equal
    description is an equal map)."""
    return f is g or f.to_dict() == g.to_dict()


class RealMap:
    """Base class: a strictly increasing C^1 map with certified slope bounds."""

    kind = "abstract"

    def __init__(self, deriv_lo: float, deriv_hi: float, bilipschitz: bool = True):
        if bilipschitz and not deriv_lo > 0:
            raise DomainError(
                f"certified derivative lower bound must be positive, got {deriv_lo}")
        if bilipschitz and not math.isfinite(deriv_hi):
            raise DomainError(
                f"certified derivative upper bound must be finite, got {deriv_hi}")
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
        return on_flat(self._eval, x)

    def deriv(self, x):
        return on_flat(self._deriv, x)

    @property
    def has_second_deriv(self) -> bool:
        """Whether the map exposes a continuous second derivative: its kind
        defines ``_second`` and every map it is built from has one."""
        return hasattr(self, "_second") and all(
            m.has_second_deriv for m in self.children())

    def second_deriv(self, x):
        if not self.has_second_deriv:
            raise DomainError(f"map of kind '{self.kind}' does not expose a "
                              "continuous second derivative")
        return on_flat(self._second, x)

    def deriv_bounds(self) -> tuple[float, float]:
        return (self.deriv_lo, self.deriv_hi)

    def breakpoints(self) -> np.ndarray:
        """Points where the derivative may fail to be smooth.

        A hint for power-integral tables, which put panel edges there; it may
        be incomplete, since refinement still meets the tolerance (a missing
        point costs time, never accuracy).  The default lists none.
        """
        return np.empty(0)

    def _eval_with_slope(self, x):
        """One Newton pass of ``_invert_array``: (f(x), f'(x)), or (f(x),
        None) where the value pass samples no slope (here: always).  The
        points are finite and lie in the brackets ``_inverse_start``
        returned, so a kind may skip the checks those brackets passed."""
        return self._eval(x), None

    def _inverse_start(self, y: np.ndarray):
        """(lo, hi, x0) for a flat finite y: a certified bracket
        lo <= f^{-1}(y) <= hi and a start point inside it.

        With d = y - f(0) the preimage lies between d/deriv_hi and d/deriv_lo.
        Where that midpoint overflows, ``_bisect_floats`` narrows the bracket
        and the start is its lower end.
        """
        b, B = self.deriv_bounds()
        f0 = self(0.0)
        with np.errstate(over="ignore"):  # a start past the float range: below
            d = y - f0
            lo = np.where(d >= 0.0, d / B, d / b) - 1e-9
            hi = np.where(d >= 0.0, d / b, d / B) + 1e-9
            x0 = 0.5 * (lo + hi)
        wide = np.isinf(x0)
        if wide.any():
            lo[wide], hi[wide] = _bisect_floats(self, y[wide], lo[wide], hi[wide])
            x0[wide] = lo[wide]
        return lo, hi, x0

    # -- description -----------------------------------------------------

    def to_dict(self) -> dict:
        """The description of this map: its kind, then each field its entry
        in ``KINDS`` declares, read from the attribute of the same name."""
        out = {"kind": self.kind}
        for name, (field, _) in KINDS[self.kind][1].items():
            out[name] = field.encode(getattr(self, name))
        return out

    @property
    def maps(self) -> list:
        """The factors a ``composition`` description lists for this map."""
        return [self]

    def children(self) -> tuple:
        """The maps this one is built from, in the order of its fields."""
        return tuple(getattr(self, name)
                     for name, (field, _) in KINDS[self.kind][1].items()
                     if field is MAP)

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

    def _second(self, x):
        return np.zeros_like(x)


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

    @property
    def factors(self) -> tuple[float, float, float]:
        """The factors of p, p' and p'' in the terms of ``IdentityPlusBump``:
        amplitude, amplitude/halfwidth * (-6) and amplitude/halfwidth^2 * 6."""
        try:
            k = self.amplitude / self.halfwidth ** 2
        except (OverflowError, ZeroDivisionError):  # the square leaves the floats
            k = self.amplitude / self.halfwidth / self.halfwidth
        return (self.amplitude, self.amplitude / self.halfwidth * (-6.0), k * 6.0)


class IdentityPlusBump(RealMap):
    """Identity plus a finite sum of bump profiles; equals Id off the supports.

    Certified bounds: 1 +/- S where S is the max of the per-bump slope sups
    for pairwise disjoint supports, and their sum otherwise.
    """

    kind = "identity-plus-bump"

    def __init__(self, bumps):
        bumps = tuple(bumps)
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
        self.bumps = bumps
        # one row per bump, so a term below takes one numpy call for all bumps
        self._center, self._halfwidth, self._value, self._d1, self._d2 = np.array(
            [(b.center, b.halfwidth, *b.factors) for b in bumps]).T[:, :, None]

    def breakpoints(self):
        return np.array([e for b in self.bumps for e in b.support])

    def _on_support(self, x):
        """(t, u), one row per bump: t = (x - center)/halfwidth clamped to
        [-1, 1] and u = 1 - t^2.  Where the clamp moves t (NaN goes to -1),
        u is 0, and so is the bump's term: the terms vanish off the
        supports."""
        t = x - self._center
        t /= self._halfwidth
        np.fmax(t, -1.0, out=t)
        np.fmin(t, 1.0, out=t)
        u = t * t
        np.subtract(1.0, u, out=u)
        return t, u

    @staticmethod
    def _plus_bumps(start, terms):
        """``start`` plus the rows of ``terms``, one per bump, added in
        order (addition commutes, so the first row is added to ``start``).
        Adding a bump's 0 off its support changes no bit of a sum that holds
        no -0.0."""
        out = terms[0] + start
        for row in terms[1:]:
            out += row
        return out

    def _eval(self, x):
        _, u = self._on_support(x)
        v = self._value * u
        v *= u
        v *= u
        # x + 0.0 turns -0.0 into 0.0, as adding a bump's 0 off its support does
        return self._plus_bumps(x + 0.0, v)

    def _deriv(self, x):
        t, u = self._on_support(x)
        t *= self._d1
        t *= u
        t *= u
        return self._plus_bumps(1.0, t)

    def _second(self, x):
        t, u = self._on_support(x)
        # a factor may overflow for a tiny halfwidth: 0 stays 0 off the support
        np.multiply(u, self._d2, out=u, where=u > 0.0)
        t *= 5.0 * t
        t -= 1.0
        u *= t
        return self._plus_bumps(0.0, u)


def bump_map(center: float, halfwidth: float, amplitude: float) -> IdentityPlusBump:
    """Id + one bump; the workhorse perturbation of the identity."""
    return IdentityPlusBump([BumpProfile(center, halfwidth, amplitude)])


class _NodeSlopes:
    """A base map's slopes at the Gauss-Legendre nodes of each power-integral
    panel sampled on it, one row per order (``PowerIntegral._ORDER`` and
    twice it), flagged flat where all are one value (the base is affine
    there, as off the supports of a bump), and the lock of the base.  Flat
    panels sampled one after another with one same value share one row, so
    the store grows with the base's non-affine panels, not a table's range.

    It is kept on the base object, so it lives as long as the base does and
    every power integral on the base shares it: a panel is sampled once for
    all exponents.  Entries are keyed by the panel's edges and never change
    once held.  ``lock`` guards the store and the table of every power
    integral on the base, so one build on the base runs at a time.
    """

    def __init__(self):
        n = PowerIntegral._ORDER
        self.lock = threading.Lock()
        # the keys a + b*1j, sorted and ending in one past every finite key,
        # the row of each key, the rows of each order and the flag of each row
        self._held = (np.array([complex(np.inf, np.inf)]), np.zeros(1, dtype=np.intp),
                      (np.zeros((1, n)), np.zeros((1, 2 * n))), np.zeros(1, dtype=bool))

    def at(self, base, a: np.ndarray, b: np.ndarray):
        """``base._deriv`` at the nodes of the panels [a_i, b_i], one array
        per order with one row per panel, and the panels' flat flags; only
        panels not held are sampled, and stored.  The caller holds ``lock``."""
        key = a + 1j * b  # exact for finite edges
        keys, row, rows, flat = self._held
        at = keys.searchsorted(key)
        new = keys[at] != key
        if np.count_nonzero(new):
            samples = [panel_samples(base._deriv, a[new], b[new], held.shape[1])[1]
                       for held in rows]
            bits = np.concatenate(samples, axis=1).view(np.int64)
            first = bits[:, 0]
            one = np.logical_and.reduce(bits == first[:, None], axis=1)
            # a panel of one value equal to the one before it shares its row
            shared = np.zeros(first.size, dtype=bool)
            shared[1:] = one[1:] & one[:-1] & (first[1:] == first[:-1])
            keys = np.concatenate([keys, key[new]])
            order = np.argsort(keys, kind="stable")  # merges two sorted runs
            self._held = (
                keys[order],
                np.concatenate([row, flat.size + np.cumsum(~shared) - 1])[order],
                tuple(np.concatenate([h, s[~shared]]) for h, s in zip(rows, samples)),
                np.concatenate([flat, one[~shared]]))
            keys, row, rows, flat = self._held
            at = keys.searchsorted(key)
        r = row[at]
        return [held[r] for held in rows], flat[r]


class PowerIntegral(RealMap):
    """x -> integral_0^x base'(t)**exponent dt.

    Values come from a cached table ``(edges, cum, flat)`` with ``cum[i]``
    the integral from 0 to ``edges[i]``, plus one order-16 Gauss-Legendre
    rule from the nearest edge at or below x.  ``flat[i]`` is the rule's
    weighted node sum on the panel ``[edges[i], edges[i+1]]`` when the
    base's slope store flags that panel flat (its base slopes at the build's
    order-16 and order-32 nodes are all one value), and NaN otherwise and
    at the last edge.  A point at an edge then costs no quadrature (the rule
    adds 0 there), nor does a point x on a flat panel, whose rule from the
    edge a adds ``0.5 * (x - a) * flat[i]``; both are the rule's bits.

    The coarse edges are the multiples of ``_PANEL`` and the base's
    breakpoints; a panel is halved until its order-16 and order-32 values
    differ by at most ``quad_tol * max(width, 1e-3) / _TOL_SPAN``, a budget
    that depends only on the panel, so the table is accurate to ``quad_tol``
    on ``[-_TOL_SPAN, _TOL_SPAN]``.  The table starts as the one edge
    ``P(0) = 0``; from its first build it holds at least one coarse panel
    on each side of 0, and it grows outward on demand by appending panels
    and accumulating ``cum`` outward from 0, so growing never changes an
    entry it holds and a value does not depend on what was evaluated before.
    A call grows it to the coarse edges around the range the call asks for,
    and the ``_MAX_PANELS`` limit applies to that range alone, so what was
    evaluated before does not decide whether a call is refused either.
    ``P(edges[i]) == cum[i]`` bit for bit, which lets inversion bracket a
    preimage to one panel by ``searchsorted`` on ``cum``.  A build samples
    the base through the base's ``_NodeSlopes``, so each panel is sampled
    once for every exponent on that base object, and holds the store's
    lock, so the builds on one base run one at a time.  A Newton pass of
    an inversion (``_eval_with_slope``), whose points lie in the panels
    ``_inverse_start`` found, reads the table without checking their range
    or finiteness again.
    Certified bounds are the interval power of the base bounds.
    """

    kind = "power-integral"

    _PANEL = 0.25          # coarse panel width; 0 and its multiples are edges
    _ORDER = 16            # the embedded check rule has twice this order
    _TOL_SPAN = 128.0      # per-panel budget: quad_tol * width / _TOL_SPAN
    _MAX_PASSES = 40       # halvings of one coarse panel
    _MAX_PANELS = 1 << 16  # coarse panels of a table, or panels of one pass
    _CHUNK = 2048          # panels sampled at once: bounds a build's memory
    quad_tol = 1e-10       # accuracy of the table on [-_TOL_SPAN, _TOL_SPAN]

    def __init__(self, base: RealMap, exponent: float):
        if not base.bilipschitz:
            raise DomainError("power integral requires a bi-Lipschitz base map")
        lo, hi = _interval_power(base.deriv_lo, base.deriv_hi, exponent,
                                 "power-integral exponent")
        super().__init__(lo, hi)
        self.base = base
        self.exponent = float(exponent)
        self._table = (np.zeros(1), np.zeros(1), np.full(1, np.nan))
        # the base's slopes at the table nodes and the lock of its tables,
        # shared with every power integral on the same base object; one is
        # made only for a base that has none (setdefault is atomic, so two
        # racing first power integrals still share one)
        self._slopes = vars(base).get("_node_slopes")
        if self._slopes is None:
            self._slopes = vars(base).setdefault("_node_slopes", _NodeSlopes())

    def _rules(self, a: np.ndarray, b: np.ndarray):
        """``(value, check, flat)`` of the panels [a_i, b_i]: the order-16
        and order-32 values, and the order-16 node sum on the panels the
        slope store flags flat (NaN elsewhere).  The integrand is the stored
        base slopes at the nodes raised to the exponent, sampled ``_CHUNK``
        panels at a time, so a call holds the node samples of one chunk
        only."""
        if a.size > self._CHUNK:
            return [np.concatenate(part) for part in zip(*(
                self._rules(a[i:i + self._CHUNK], b[i:i + self._CHUNK])
                for i in range(0, a.size, self._CHUNK)))]
        half = 0.5 * (b - a)
        (d16, d32), flat = self._slopes.at(self.base, a, b)
        sum16 = panel_sums(d16 ** self.exponent)
        check = half * panel_sums(d32 ** self.exponent)
        return half * sum16, check, np.where(flat, sum16, np.nan)

    def _refine(self, a: np.ndarray, b: np.ndarray):
        """Halve the sorted panels [a_i, b_i] until each meets its budget;
        returns the refined panels ``(a, b, value, flat)`` sorted by ``a``,
        with the order-32 values and the ``flat`` sums of ``_rules``.  Only
        the new halves are integrated on each pass."""
        kept = []
        for _ in range(self._MAX_PASSES):
            v, check, flat = self._rules(a, b)
            budget = self.quad_tol * np.maximum(b - a, 1e-3) / self._TOL_SPAN
            good = np.abs(v - check) <= budget  # False for NaN
            if np.count_nonzero(good) == good.size:
                kept.append((a, b, check, flat))
                break
            kept.append((a[good], b[good], check[good], flat[good]))
            bad = ~good
            a, b = a[bad], b[bad]
            if 2 * a.size > self._MAX_PANELS:
                raise QuadratureFailure(
                    f"power-integral table refinement on [{a.min():.17g}, "
                    f"{b.max():.17g}] would need more than {self._MAX_PANELS} "
                    f"panels in one pass")
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        else:
            raise QuadratureFailure(
                f"power-integral table refinement could not reach the quadrature "
                f"tolerance on [{a.min():.17g}, {b.max():.17g}] in "
                f"{self._MAX_PASSES} passes")
        if len(kept) == 1:  # the panels as given: sorted
            return kept[0]
        a, b, v, flat = (np.concatenate(part) for part in zip(*kept))
        order = np.argsort(a)
        return a[order], b[order], v[order], flat[order]

    def _build_table(self, lo: float, hi: float):
        """Grow the table outward until it covers [lo, hi], lo < 0 < hi, to
        the coarse edges around it; both new sides are refined together.
        The panel limit applies to that range alone, as on a fresh map, not
        to its union with the table held."""
        if not hi - lo <= self._MAX_PANELS * self._PANEL:  # inf and nan too
            raise QuadratureFailure(
                f"a power-integral table over [{lo:.6g}, {hi:.6g}] would need "
                f"more than {self._MAX_PANELS} panels")
        edges, cum, flat = self._table
        e0, e1 = float(edges[0]), float(edges[-1])  # multiples of _PANEL
        lo, hi = min(lo, e0), max(hi, e1)
        k_lo, k_hi = math.floor(lo / self._PANEL), math.ceil(hi / self._PANEL)
        lo, hi = k_lo * self._PANEL, k_hi * self._PANEL
        kinks = np.asarray(self.base.breakpoints(), dtype=float)
        # the coarse edges, sorted: the grid multiples in [lo, e0] and in
        # [e1, hi], and the kinks inside those ranges; a panel between two
        # of them is new if it is not empty and lies outside (e0, e1)
        edge = np.concatenate([
            np.arange(k_lo, round(e0 / self._PANEL) + 1) * self._PANEL,
            np.arange(round(e1 / self._PANEL), k_hi + 1) * self._PANEL,
            kinks[((kinks > lo) & (kinks < e0)) | ((kinks > e1) & (kinks < hi))]])
        edge.sort()
        a, b = edge[:-1], edge[1:]
        new = (a < b) & ((b <= e0) | (a >= e1))
        a, b, v, sums = self._refine(a[new], b[new])
        n = int(a.searchsorted(e0))  # the panels left of the table
        # cum is accumulated outward from 0 one panel at a time, so a fresh
        # build and any sequence of growths give the same bits (on the left
        # the running sum subtracts: a - b == -((-a) + b) exactly)
        left = np.concatenate([cum[:1], -v[:n][::-1]]).cumsum()[1:]
        right = np.concatenate([cum[-1:], v[n:]]).cumsum()[1:]
        self._table = (
            np.concatenate([a[:n], edges, b[n:]]),
            np.concatenate([left[::-1], cum, right]),
            np.concatenate([sums[:n], flat[:-1], sums[n:], flat[-1:]]))

    def _ensure_table(self, lo: float, hi: float):
        """The table, grown if needed to cover [lo, hi] with [-_PANEL, _PANEL],
        the one place that widens a request; a fresh table's one edge, 0,
        lies inside, so its first call builds.  ``_build_table`` rounds the
        range out to the coarse edges."""
        lo, hi = float(min(lo, -self._PANEL)), float(max(hi, self._PANEL))
        with self._slopes.lock:
            edges = self._table[0]
            if edges[0] > lo or edges[-1] < hi:
                self._build_table(lo, hi)
            return self._table

    def _eval(self, x):
        return self._values(x, False)[0]

    def _eval_with_slope(self, x):
        return self._values(x, True)

    def _values(self, x, newton: bool):
        """The values at x, and for a Newton pass (``newton``) the slopes at
        every point where the rule samples the integrand at all: the points
        ride along in its one call.  Where no point needs the rule (each is
        at a table edge or on a flat panel) nothing is sampled and the
        slopes are None.  A Newton pass's points are finite and lie in the
        panels ``_inverse_start`` found, inside the table held, so neither
        is checked; any other x is checked and the table grown to cover it."""
        if newton:
            edges, cum, flat = self._table
        else:
            if x.size == 0:
                return x.copy(), None
            lo, hi = float(np.minimum.reduce(x)), float(np.maximum.reduce(x))
            if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN if any x is
                raise_at_first(~np.isfinite(x), x, "x must be finite, got x={}")
            edges, cum, flat = self._ensure_table(lo, hi)
        idx = edges[1:].searchsorted(x, side="right")  # edges[0] <= x
        a, c = edges[idx], cum[idx]
        out = c + np.where(x == a, 0.0, 0.5 * (x - a) * flat[idx])
        rest = np.isnan(out).nonzero()[0]  # off the edges and flat panels
        if not rest.size:
            return out, None
        at_points = []

        def nodes_then_points(t):
            v = self._deriv(np.concatenate([t, x]) if newton else t)
            at_points.append(v[t.size:])
            return v[:t.size]

        out[rest] = c[rest] + panel_integrals(
            nodes_then_points, a[rest], x[rest], self._ORDER)
        return out, at_points[0] if newton else None

    def _deriv(self, x):
        return self.base._deriv(x) ** self.exponent

    def breakpoints(self):
        return self.base.breakpoints()

    def _inverse_start(self, y):
        """One table panel per point: grow the table until ``cum`` brackets y,
        find the panel by ``searchsorted`` and start at its secant point.

        Each round asks only for the sides that do not bracket y yet (0 for
        a side that does), so the panel limit applies to what the preimages
        need, not to the table held.  A short side is extended by the
        missing height over the mean slope of its outermost panel (1 before
        the first build), clamped to the certified bounds, and by at least
        one coarse panel.  Going by deriv_lo would take one round but may
        ask for a table far past the preimages when deriv_lo is far below
        the slope there."""
        def reach(gap, panel):  # x distance to add for a missing height gap > 0
            slope = 1.0
            if cum.size > 1:
                slope = float((cum[panel + 1] - cum[panel])
                              / (edges[panel + 1] - edges[panel]))
            slope = min(max(slope, self.deriv_lo), self.deriv_hi)
            return max(gap / slope, self._PANEL)

        y0, y1 = float(np.minimum.reduce(y)), float(np.maximum.reduce(y))
        edges, cum, _ = self._table
        while cum.size < 2 or cum[0] > y0 or cum[-1] < y1:
            lo = edges[0] - reach(float(cum[0]) - y0, 0) if cum[0] > y0 else 0.0
            hi = edges[-1] + reach(y1 - float(cum[-1]), -2) if cum[-1] < y1 else 0.0
            edges, cum, _ = self._ensure_table(lo, hi)
        # the panel [edges[i], edges[i + 1]] with cum[i] <= y < cum[i + 1],
        # the last one for y == cum[-1]
        i = cum[1:-1].searchsorted(y, side="right")
        lo, hi, c0 = edges[i], edges[1:][i], cum[i]
        rise = cum[1:][i] - c0  # 0 where a panel's increment underflows
        t = np.divide(y - c0, rise, out=np.zeros(y.shape), where=rise > 0)
        return lo, hi, np.minimum(np.maximum(lo + t * (hi - lo), lo), hi)

    def _second(self, x):
        d = self.base._deriv(x)
        return self.exponent * d ** (self.exponent - 1.0) * self.base._second(x)


class InverseMap(RealMap):
    """Lazy monotone inverse: ``_invert_array`` on the base, to its one
    residual ``_VALUE_TOL``, from the bracket the base supplies (one table
    panel for a power integral, the certified slope bracket otherwise).
    Like every kind, it is fixed by its description.
    """

    kind = "inverse"

    def __init__(self, base: RealMap):
        if not base.bilipschitz:
            raise DomainError("only bi-Lipschitz maps have certified inverses")
        super().__init__(1.0 / base.deriv_hi, 1.0 / base.deriv_lo)
        self.base = base

    def _eval(self, y):
        return _invert_array(self.base, y)

    def _deriv(self, y):
        return 1.0 / self.base._deriv(self._eval(y))

    def breakpoints(self):
        return self.base(self.base.breakpoints())

    def _second(self, y):
        u = self._eval(y)
        d = self.base._deriv(u)
        return -self.base._second(u) / d ** 3


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
        return _interval_power(pi.base.deriv_lo, pi.base.deriv_hi, delta,
                               "composition slope power")

    def _eval(self, x):
        return self.outer._eval(self.inner._eval(x))

    def breakpoints(self):
        """The inner map's, or the outer map's pulled back through an affine
        inner map; an outer kink behind a non-affine inner map is not listed."""
        if isinstance(self.inner, Affine):
            return (self.outer.breakpoints() - self.inner.intercept) / self.inner.slope
        return self.inner.breakpoints()

    def _deriv(self, x):
        di = self.inner._deriv(x)
        if self.outer.deriv_lo == self.outer.deriv_hi:
            return self.outer.deriv_lo * di  # constant outer slope
        return self.outer._deriv(self.inner._eval(x)) * di

    def _second(self, x):
        u = self.inner._eval(x)
        di = self.inner._deriv(x)
        return (self.outer._second(u) * di * di
                + self.outer._deriv(u) * self.inner._second(x))

    @property
    def maps(self) -> list:
        """The factors, outermost first: the outer map's, then the inner map,
        whose left fold is this tree, so a description reloads to it."""
        return [*self.outer.maps, self.inner]

    def children(self):
        return (self.outer, self.inner)


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
        with np.errstate(all="ignore"):  # refused below
            anchors = np.concatenate([np.linspace(-2.0 * T, -T, 129),
                                      np.linspace(T, 2.0 * T, 129)])
            half_gap = 0.5 * (T / 128.0)
            disp = float(np.max(np.abs(base(anchors) - anchors))) + m * half_gap
        if not math.isfinite(disp):
            raise DomainError(f"tapered map with plateau {T:g}: the displacement "
                              "on its transition bands overflows in floating point")
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
        with np.errstate(over="ignore"):  # -inf far outside a tiny plateau: 0
            u = np.clip((2.0 * T - np.abs(x)) / T, 0.0, 1.0)
        return u * u * (3.0 - 2.0 * u)

    def _psi_d1(self, x):
        T = self.plateau
        ax = np.abs(x)
        on_ramp = (ax > T) & (ax < 2.0 * T)
        with np.errstate(over="ignore"):  # only off the ramp, dropped below
            u = (2.0 * T - ax) / T
            slope = 6.0 * u * (1.0 - u) / T
        return np.where(on_ramp, -np.sign(x) * slope, 0.0)

    def breakpoints(self):
        T = self.plateau
        return np.concatenate([self.base.breakpoints(), [-2.0 * T, -T, T, 2.0 * T]])

    def _eval(self, x):
        return x + (self.base._eval(x) - x) * self._psi(x)

    def _deriv(self, x):
        return (1.0 + (self.base._deriv(x) - 1.0) * self._psi(x)
                + (self.base._eval(x) - x) * self._psi_d1(x))


class SampledMonotone(RealMap):
    """Monotone C^1 interpolation of strictly increasing samples.

    PCHIP inside the sample window (Fritsch-Carlson slopes, SIAM J. Numer.
    Anal. 1980, and cubic Hermite cells, in the arithmetic of scipy's
    ``PchipInterpolator`` bit for bit), affine continuation with the end
    slopes outside.  Certified bounds are the exact extrema of the
    piecewise-cubic derivative, computed from its coefficients.
    """

    kind = "sampled-monotone"

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
            raise DomainError("need matching 1-d sample arrays with >= 2 points")
        with np.errstate(all="ignore"):  # a cell past the float range is refused below
            h, dy = np.diff(xs), np.diff(ys)
            if not (h > 0).all() or not (dy > 0).all():
                raise DomainError("samples must be strictly increasing in x and y")
            m = dy / h
            d = np.full(xs.size, m[0])  # two samples: both slopes are the secant
            if xs.size > 2:
                # interior: weighted harmonic mean of the secants (0 where one
                # underflows); ends: one-sided three-point estimate, or 0
                w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = 1.0 / whmean
                h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
                ends = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
                d[[0, -1]] = np.where(ends > 0, ends, 0.0)
            t = (d[:-1] + d[1:] - 2 * m) / h
            # local cubics sum c[k] * s**(3-k), s = x - xs[i]
            self._c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]])
            self._dc = self._c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]
            dmin, dmax = self._deriv_extrema(self._c, h)
        raise_at_first(~(np.isfinite(self._c).all(axis=0) & np.isfinite(h)), xs[:-1],
                       "sampled-monotone slopes of the cell from x={} overflow in "
                       "floating point")
        super().__init__(dmin, dmax)
        self.xs, self.ys = xs, ys
        self._slopes = self._cubic(self._dc, xs[[0, -1]])  # left, right

    def _cubic(self, c, x):
        """The polynomials ``c`` at x clipped to the window, each x in its
        cell (the last is closed), summed in ascending powers as PPoly does."""
        xs = self.xs
        x = np.clip(x, xs[0], xs[-1])
        i = np.minimum(np.searchsorted(xs, x, side="right") - 1, xs.size - 2)
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as in scipy
            s = x - xs[i]
            out, power = 0.0 + c[-1, i], s
            for row in c[-2::-1]:
                out = out + row[i] * power
                power = power * s
        return out

    @staticmethod
    def _deriv_extrema(c, h):
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

    def _tails(self, x, c, left, right):
        """The polynomials ``c`` in the window, ``left`` and ``right`` past its ends."""
        out = np.where(x < self.xs[0], left, self._cubic(c, x))
        return np.where(x > self.xs[-1], right, out)

    def _eval(self, x):
        x0, xN = self.xs[0], self.xs[-1]
        return self._tails(x, self._c, self.ys[0] + self._slopes[0] * (x - x0),
                           self.ys[-1] + self._slopes[1] * (x - xN))

    def _deriv(self, x):
        return self._tails(x, self._dc, *self._slopes)


# -- inversion -------------------------------------------------------------

def _float_order(v: np.ndarray) -> np.ndarray:
    """float64 bit patterns as int64 keys in the order of the floats, and
    back: the map is its own inverse."""
    i = v.view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _bisect_floats(f: RealMap, y: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Brackets [lo, hi] of f^{-1}(y), clamped to the float range and
    narrowed to adjacent floats by 64 bisections of the floats' order.  A
    value of f that is not finite counts as past y on its own side of 0,
    since f(0) is finite.  A y that f does not reach at either end of the
    float range has no preimage in it and raises DomainError."""
    big = np.finfo(float).max
    a, b = _float_order(np.clip(lo, -big, big)), _float_order(np.clip(hi, -big, big))
    for _ in range(64):
        m = (a >> 1) + (b >> 1) + (a & b & 1)  # floor((a + b) / 2), no overflow
        x = _float_order(m).view(float)
        with np.errstate(all="ignore"):  # overflow in f is handled below
            v = np.asarray(f(x))
        above = np.where(np.isfinite(v), v > y, x > 0.0)
        a, b = np.where(above, a, m), np.where(above, m, b)
    lo, hi = _float_order(a).view(float), _float_order(b).view(float)
    with np.errstate(all="ignore"):  # a non-finite f at an end is beyond y
        past = ((lo == -big) & (f(lo) > y)) | ((hi == big) & (f(hi) < y))
    raise_at_first(past, y, "the preimage of y={} overflows in floating point")
    return lo, hi


_MAX_ITER = 200     # passes of one inversion
_VALUE_TOL = 1e-11  # residual |f(x) - y| of an inverse map's values


def _invert_array(f: RealMap, y: np.ndarray) -> np.ndarray:
    """Solve f(x) = y for a flat y to |f(x) - y| <= tol by safeguarded
    Newton, where tol is the one inversion residual ``_VALUE_TOL``.

    ``f._inverse_start`` supplies a certified bracket of each preimage and a
    start point.  Each pass evaluates f on the points still active, and the
    residual's sign shrinks their brackets.  The iterates are finite and
    never leave their brackets, which is the contract of a Newton pass,
    ``f._eval_with_slope``: a power integral then reads the table it grew
    for the start without checking the points again.  A point
    leaves the active set when its residual r is 0, or within tol and its
    previous pass took a Newton step with slope s that certifies one more
    step: the chord step x - r/s needs no evaluation, and its residual
    r (1 - f'/s), with f' in the certified bounds [b, B], is within half of
    tol (the other half is left for the error of evaluating f) when
    |r| max(B/s - 1, 1 - b/s) is.  That step brings the residual far below
    tol.  The other points take f' from the value pass where that pass
    samples it (a power integral's rule does, with the points in its call),
    or evaluate it, and take the Newton step if it lands strictly inside
    the bracket and is at most half as long as their previous step; the
    length test breaks the two-cycles Newton can fall into where the slope
    varies by a large factor.  A point whose step is refused leaves with
    the clipped chord step if it is within tol and its own slope certifies
    that step (where f is affine, a start one ulp from the root has a
    Newton step that lands on the bracket end, and bisection would not
    end); the others bisect.
    """
    raise_at_first(~np.isfinite(y), y, "y must be finite, got y={}")
    if y.size == 0:
        return y.copy()
    b, B = f.deriv_bounds()
    tol = _VALUE_TOL

    def certified(r, s):  # |r| <= tol, and the chord step with slope s is good
        ar = np.abs(r)
        return (ar <= tol) & (ar * np.maximum(B / s - 1.0, 1.0 - b / s) <= 0.5 * tol)

    lo, hi, x = f._inverse_start(y)
    x = x.copy()
    # the state of the active points act: iterate, target, bracket, the
    # slope of the last Newton step (NaN after a bisection: no chord,
    # another pass; None before the first step) and the length of the last
    # step (np.count_nonzero and integer indices cost fewer numpy calls per
    # pass than .any() and a mask per array)
    act, xa, ya, la, ha = np.arange(y.size), x, y, lo, hi
    s, dx = None, hi - lo
    for _ in range(_MAX_ITER):
        fx, d = f._eval_with_slope(xa)
        r = fx - ya
        below = r < 0.0
        la, ha = np.where(below, xa, la), np.where(below, ha, xa)
        done = r == 0.0
        if s is not None:
            chord = certified(r, s)
            done |= chord
        if np.count_nonzero(done):
            xd = xa[done]
            if s is not None:
                # a chord clipped to the bracket lies between x and the chord
                # point, where f is monotone, so the bound still holds
                step = np.minimum(np.maximum(xd - r[done] / s[done], la[done]), ha[done])
                xd = np.where(chord[done], step, xd)
            x[act[done]] = xd
            keep = (~done).nonzero()[0]
            if not keep.size:
                return x
            act, xa, ya, r, la, ha, dx = (v[keep] for v in (act, xa, ya, r, la, ha, dx))
            d = None if d is None else d[keep]
        if d is None:
            d = f._deriv(xa)
        step = r / d
        xn = xa - step
        newton = (xn > la) & (xn < ha) & (np.abs(step) <= 0.5 * dx)
        if np.count_nonzero(newton) == newton.size:
            xa, dx, s = xn, np.abs(step), d
            continue
        done = ~newton & certified(r, d)
        if np.count_nonzero(done):
            x[act[done]] = np.minimum(np.maximum(xn[done], la[done]), ha[done])
            keep = (~done).nonzero()[0]
            if not keep.size:
                return x
            act, xa, ya, la, ha, d, step, xn, newton = (
                v[keep] for v in (act, xa, ya, la, ha, d, step, xn, newton))
        xa = np.where(newton, xn, 0.5 * (la + ha))
        dx = np.where(newton, np.abs(step), 0.5 * (ha - la))
        s = np.where(newton, d, np.nan)
    x[act] = xa
    r = np.abs(f._eval(xa) - ya)
    if np.all(r <= tol):
        return x
    raise NonConvergence(
        f"inversion did not reach tol={tol:g} in {_MAX_ITER} iterations "
        f"(worst residual {float(r.max()):.3g}); map may be malformed")


# -- map-description format -------------------------------------------------

class Field(NamedTuple):
    """A field type: ``check`` turns a JSON value into a constructor argument,
    or gives None for an unfit value; ``encode`` turns the attribute of the
    same name back into JSON (None for fields that are never encoded)."""
    expect: str
    check: Callable
    encode: Callable | None


REQUIRED = object()
KINDS: dict[str, tuple[str, dict, Callable]] = {}


def register(family: str, kind: str, build: Callable, **fields):
    """Enter ``kind`` in KINDS as (family, fields, build).  The family is
    "map" or "circle-map"; each field is a Field, or (Field, default) when it
    may be left out; ``build`` takes the checked fields by name."""
    KINDS[kind] = (family, {name: (f, REQUIRED) if isinstance(f, Field) else f
                            for name, f in fields.items()}, build)


def _number(v):
    # the bound is False for NaN, inf and ints past the float range
    if isinstance(v, (int, float)) and not isinstance(v, bool) \
            and abs(v) <= sys.float_info.max:
        return float(v)


def _list(item: Callable, n_min: int = 0, n_max: float = math.inf) -> Callable:
    def check(v):
        if isinstance(v, (list, tuple)) and n_min <= len(v) <= n_max:
            out = [item(x) for x in v]
            return None if None in out else out
    return check


NUMBER = Field("a finite number", _number, float)
NUMBERS = Field("a list of finite numbers", _list(_number), np.ndarray.tolist)
PAIR = Field("a list [re, im] of two finite numbers", _list(_number, 2, 2), None)
MAP = Field("a map description",
            lambda v: map_from_dict(v) if isinstance(v, dict) else None, RealMap.to_dict)
MAPS = Field("a list of at least two map descriptions", _list(MAP.check, 2),
             lambda maps: [m.to_dict() for m in maps])
_BUMP = dict.fromkeys(("center", "halfwidth", "amplitude"), (NUMBER, REQUIRED))
BUMPS = Field("a list of bump objects", _list(lambda v: BumpProfile(**_checked(
    v, _BUMP, "map kind 'identity-plus-bump' bump", ())) if isinstance(v, dict) else None),
    lambda bumps: [{name: getattr(b, name) for name in _BUMP} for b in bumps])


def _checked(d: dict, fields: dict, what: str, other=("kind",)) -> dict:
    """The fields of description ``d``, checked, with defaults filled in; a
    key that is neither a field nor in ``other`` is an error."""
    for key in d:
        if key not in fields and key not in other:
            raise DomainError(f"{what}: unknown field {key!r}")
    out = {}
    for name, (field, default) in fields.items():
        if name not in d and default is REQUIRED:
            raise DomainError(f"{what}: missing field {name!r}")
        out[name] = field.check(d[name]) if name in d else default
        if out[name] is None:
            raise DomainError(f"{what}: field {name!r} must be {field.expect}, "
                              f"got {reprlib.repr(d[name])}")
    return out


# the memo of the outermost map_from_dict call: the maps built so far, by
# family and text key, and the numbers of the texts and of the objects
_PARSED: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "qcext_parsed", default=None)


def map_from_dict(d: dict, family: str = "map"):
    """Build a map from its JSON-style description (see README for schema);
    ``family`` "circle-map" takes the circle-map kinds instead.

    Every part of one call, the whole description too, is keyed by its
    text (the same ``repr``, so -0.0 is not 0.0); parts of equal text are
    checked and built once and give one object, so a power integral
    written in several places (as in a reloaded factorization) builds one
    table.  Nothing is kept from one call to the next."""
    parsed, token = _PARSED.get(), None
    if parsed is None:  # the outermost call: it opens the memo and closes it
        token = _PARSED.set(parsed := ({}, {}, {}))
    try:
        maps, texts, seen = parsed
        key = (family, _text(d, texts, seen))
        if key not in maps:
            kind = d.get("kind") if isinstance(d, dict) else None
            entry = KINDS.get(kind) if isinstance(kind, str) else None
            if entry is None or entry[0] != family:
                raise DomainError(
                    f"{family} description needs a known 'kind', got {kind!r}")
            maps[key] = entry[2](**_checked(d, entry[1], f"{family} kind {kind!r}"))
        return maps[key]
    finally:
        if token is not None:
            _PARSED.reset(token)


def _text(v, texts: dict, seen: dict):
    """The text of the JSON value ``v`` (its ``repr``) as a key: the repr
    itself where ``v`` holds no dict or list, else a number that is equal
    for equal text.  That number is made from the keys of the items, once
    per object (by ``id`` in ``seen``), so a part is spelled once however
    deeply it is nested."""
    is_dict = type(v) is dict
    if not (is_dict or type(v) is list) or _LEAVES.issuperset(
            map(type, v.values() if is_dict else v)):
        return repr(v)
    n = seen.get(id(v))
    if n is None:  # a dict starts with the repr of its keys, a list with "["
        parts = [repr(tuple(v)) if is_dict else "["]
        parts += [_text(w, texts, seen) for w in (v.values() if is_dict else v)]
        n = seen[id(v)] = texts.setdefault(tuple(parts), len(texts))
    return n


# the types of the JSON values other than dict and list
_LEAVES = frozenset((str, int, float, bool, type(None)))


def description_from_file(path):
    """The JSON value in the map description file ``path``, for
    ``map_from_dict`` or ``circle_map_from_dict``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON map description: {exc}") from exc


def map_from_file(path) -> RealMap:
    return map_from_dict(description_from_file(path))


register("map", "affine", Affine, slope=NUMBER, intercept=(NUMBER, 0.0))
register("map", "identity-plus-bump", IdentityPlusBump, bumps=BUMPS)
register("map", "power-integral", PowerIntegral, base=MAP, exponent=NUMBER)
# a left-associative fold, so a trailing inverse factor sees the whole
# prefix as its outer map (keeps cancellation bounds tight)
register("map", "composition", lambda maps: functools.reduce(Composition, maps),
         maps=MAPS)
register("map", "tapered", Tapered, base=MAP, plateau=NUMBER)
register("map", "sampled-monotone", SampledMonotone, xs=NUMBERS, ys=NUMBERS)
register("map", "inverse", InverseMap, base=MAP)
