"""Exception types shared across the package."""


class StabcertError(Exception):
    """Base class for all package-specific failures."""


class NotASubgradientError(StabcertError):
    """A claimed (point, subgradient) pair violates the subdifferential relation
    by ``residual``, the subgradient residual that the check measured."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotASolutionError(StabcertError):
    """A claimed minimizer fails the optimality residual check."""


class InfeasibleApproximationError(StabcertError):
    """The requested subgradient decomposition does not exist for this input."""


class UsageError(StabcertError):
    """A command-line value is not finite or out of range."""


class ProblemFormatError(StabcertError):
    """A problem file violates the schema.  Carries a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
