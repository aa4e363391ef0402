"""Adaptive composite Gauss-Legendre quadrature.

Two entry points: ``adaptive_integral`` for smooth(ish) integrals of one
function over one or many intervals, and ``panel_integrals`` as the
vectorized building block reused by it and by the memoizing power-integral
maps, which also sample their base at the nodes through ``panel_samples``
and sum their rows by ``panel_sums``.  Error estimates come from comparing
each panel against an embedded lower-order rule; failing panels are halved.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureFailure, require_positive, scalar_or_array


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    return np.polynomial.legendre.leggauss(order)


def panel_samples(fun, lo, hi, order: int = 16):
    """``(half, vals)`` for the panels [lo_i, hi_i]: their half-widths and
    ``fun`` at their order-``order`` Gauss-Legendre nodes (one row per
    panel).  ``fun`` must accept a flat ndarray and return values
    elementwise."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x, _ = gauss_legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    return half, np.asarray(fun(pts.ravel()), dtype=float).reshape(pts.shape)


def panel_sums(vals):
    """Each row's weighted sum by the Gauss-Legendre rule with one node per
    column, taken in its own row (einsum), not by a BLAS matrix-vector
    product whose rounding depends on a row's place in the batch, so a
    panel's sum is a function of its samples alone."""
    return np.einsum("ij,j->i", vals, gauss_legendre(vals.shape[1])[1])


def panel_integrals(fun, lo, hi, order: int = 16) -> np.ndarray:
    """Fixed-order Gauss-Legendre integral of ``fun`` over each [lo_i, hi_i]:
    the half-width times the ``panel_sums`` of the ``panel_samples``, so a
    panel's integral is a function of its interval alone."""
    half, vals = panel_samples(fun, lo, hi, order)
    return half * panel_sums(vals)


_MAX_DEPTH = 52  # refinement passes, each halving the panels that fail
_ORDER = 16  # nodes of the panel rule; its embedded estimate takes half
_MAX_PANELS = 4096  # panels of one integral


def adaptive_integral(fun, a, b, tol=1e-10):
    """Integrate ``fun`` over each [a_i, b_i] to absolute accuracy ``tol_i``.

    ``a``, ``b`` and ``tol`` broadcast; a float for scalar inputs, else an
    array of the broadcast shape.  Interval-halving on panels whose embedded
    error estimate exceeds the length-proportional share of their integral's
    ``tol``; the panels of all integrals are refined together, with one
    ``panel_integrals`` call per order and pass.  A ``tol`` that is not
    positive and finite raises DomainError naming the first one.  Raises
    QuadratureFailure, whose ``index`` is the flat index of the failing
    integral, when one integral exceeds the panel budget or the depth limit
    is exhausted, or on the first pass where a panel value is not finite.
    """
    a, b, tol = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                      for v in (a, b, tol)))
    require_positive("tol", tol)
    shape = a.shape
    a, b, tol = a.ravel(), b.ravel(), tol.ravel()
    lo0, hi0 = np.minimum(a, b), np.maximum(a, b)
    span = hi0 - lo0
    total = np.zeros(a.size)
    owner = np.flatnonzero(a != b)  # an empty interval integrates to 0
    lo, hi = lo0[owner], hi0[owner]
    for _ in range(_MAX_DEPTH):
        if not owner.size:
            break
        i_hi = panel_integrals(fun, lo, hi, _ORDER)
        i_lo = panel_integrals(fun, lo, hi, _ORDER // 2)
        bad = ~(np.isfinite(i_hi) & np.isfinite(i_lo))
        if bad.any():
            j = int(owner[bad].min())
            raise QuadratureFailure(
                f"integrand is not finite on [{a[j]}, {b[j]}]", index=j)
        err = np.abs(i_hi - i_lo)
        share = tol[owner] * (hi - lo) / span[owner]
        done = err <= share
        np.add.at(total, owner[done], i_hi[done])
        more = ~done
        lo, hi, owner = lo[more], hi[more], owner[more]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
        panels = np.bincount(owner, minlength=a.size)
        if (panels > _MAX_PANELS).any():
            j = int(np.argmax(panels > _MAX_PANELS))
            raise QuadratureFailure(
                f"panel budget exceeded integrating over [{a[j]}, {b[j]}]: "
                f"{panels[j]} panels (budget {_MAX_PANELS}, tol {tol[j]:g})",
                index=j)
    if owner.size:
        j = int(owner.min())
        raise QuadratureFailure(
            f"depth limit {_MAX_DEPTH} exceeded integrating over "
            f"[{a[j]}, {b[j]}]: {np.count_nonzero(owner == j)} panels left "
            f"(tol {tol[j]:g})", index=j)
    return scalar_or_array(np.where(b < a, -total, total).reshape(shape))
