"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """A value violates a basic precondition (non-finite, wrong shape, ...)."""


class SingularElementError(ZeroDivisionError):
    """Inversion of a non-invertible element was requested."""


class DomainError(ValueError):
    """A point or spectrum falls outside the domain of definition."""


class GeometryError(ValueError):
    """A contour or surface cannot be built with the required clearance."""


class ContractViolationError(ValueError):
    """An input silently failed a symmetry contract it asserted."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to produce a usable answer."""


class AccuracyError(ArithmeticError):
    """A computed result misses its accuracy target by too much.

    A quadrature that stalls, or a surface value whose imaginary residue is
    too large, keeps its ``value`` and its ``diagnostics`` on the error;
    otherwise both are None.
    """

    def __init__(self, message, value=None, diagnostics=None):
        super().__init__(message)
        self.value = value
        self.diagnostics = diagnostics
