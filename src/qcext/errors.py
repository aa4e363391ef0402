"""Exception types shared across the package, and the two conventions every
operator on point arrays keeps: a bad input raises DomainError naming the
first bad point in C order, and a 0-d result comes back as a Python scalar.
"""

import cmath

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


def scalar_or_array(out):
    """``out`` (an ndarray or numpy scalar) as a Python float or complex with
    the same bits when it is 0-d, else unchanged."""
    return out.item() if out.ndim == 0 else out
