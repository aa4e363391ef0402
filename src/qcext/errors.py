"""Exception types shared across the package."""


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


class StepOutOfDisk(NonConvergence):
    """Damping could not keep a disk solve strictly inside the unit disk."""


class ToleranceFailure(QCExtError, RuntimeError):
    """A certified error budget could not be met."""


class NonTermination(QCExtError, RuntimeError):
    """A guarded recursion exceeded its round limit."""
