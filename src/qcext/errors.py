"""Exception types shared across the package, and the conventions every
operator on point arrays keeps: a bad input raises DomainError naming the
first bad point in C order, a scalar is computed as the 0-d case of the
array code, and a 0-d result comes back as a Python scalar.

Two refusals that operators repeat are spelled here once, in those
conventions: a parameter that is not positive and finite
(``require_positive``), and a result that leaves the floats
(``refuse_overflow``), computed under ``silenced()`` so that no numpy
warning escapes.  So is the working set of a batched operator: it works
in the ``blocks`` of one byte budget, ``BLOCK_BYTES``.
"""

import cmath
import math

import numpy as np


class QCExtError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QCExtError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureFailure(QCExtError, RuntimeError):
    """Adaptive quadrature could not reach the requested accuracy in budget.

    ``index`` is the flat index of the failing integral of a batched call.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonConvergence(QCExtError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ToleranceFailure(QCExtError, RuntimeError):
    """A certified error budget could not be met."""


def raise_at_first(bad, values, message: str, nonfinite: str | None = None):
    """Raise DomainError if the mask ``bad`` holds anywhere, with the first
    such entry of ``values`` (same shape), in C order, formatted into
    ``message`` at ``{}``; into ``nonfinite`` instead, when given and that
    entry is not finite."""
    bad = np.asarray(bad)
    if bad.any():
        first = np.asarray(values)[bad][0].item()
        if nonfinite is not None and not cmath.isfinite(first):
            message = nonfinite
        raise DomainError(message.format(first))


def require_positive(name: str, value) -> None:
    """DomainError ``<name> must be positive and finite, got <v>`` for the
    first bad entry of ``value``; a scalar is compared in Python."""
    bad = (~((value > 0) & (value < math.inf)) if isinstance(value, np.ndarray)
           else not 0 < value < math.inf)
    raise_at_first(bad, value, f"{name} must be positive and finite, got {{}}")


def silenced():
    """The numpy error state of a computation whose results past the floats
    are refused afterwards: overflow, division by zero and invalid values
    raise no warning."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def refuse_overflow(what: str, z, out, at: str = "z"):
    """``out``, the result at the points ``z``, or DomainError ``<what> at
    <at>=<point> overflows in floating point`` for the first point, in C
    order, where it is not finite; a result stacked along new leading axes
    (a stencil, a matrix) is refused where any of its entries is.  ``at``
    names what ``z`` holds: the points, or, for a result of a call's
    parameters alone, their names, with ``z`` the text of their values."""
    finite = np.isfinite(out)
    if finite.ndim > np.ndim(z):
        finite = finite.reshape(-1, *np.shape(z)).all(axis=0)
    raise_at_first(~finite, z, f"{what} at {at}={{}} overflows in floating point")
    return out


# The bytes that the per-item temporaries of a batched operator may take at
# once: 8192 complex numbers.  Every batched loop (the disk solve, power-
# integral builds, Beurling-Ahlfors windows, the row writer) computes each
# item on its own, so no output depends on this value, only the memory.
BLOCK_BYTES = 128 * 1024


def blocks(n: int, item_bytes: int) -> list[slice]:
    """The in-order slices of ``range(n)`` in which a batched operator whose
    items take ``item_bytes`` each of temporaries works: each holds at most
    ``max(1, BLOCK_BYTES // item_bytes)`` items."""
    size = max(1, BLOCK_BYTES // item_bytes)
    return [slice(s, s + size) for s in range(0, n, size)]


def scalar_or_array(out):
    """``out`` (an ndarray or numpy scalar) as a Python float or complex with
    the same bits when it is 0-d, else unchanged."""
    return out.item() if out.ndim == 0 else out


def on_flat(op, x, dtype=float):
    """``op`` on ``x`` as a flat ``dtype`` array, reshaped to the shape of
    ``x``; a Python scalar for a 0-d ``x``.  A scalar goes through ``op`` as
    a 1-element array, so it gets the bits of an array element: 0-d math
    rounds apart."""
    arr = np.asarray(x, dtype=dtype)
    return scalar_or_array(op(arr.ravel()).reshape(arr.shape))
