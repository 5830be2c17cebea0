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


class ProblemFormatError(StabcertError, ValueError):
    """A problem file or instance breaks a rule.  Carries a machine-readable code.

    The constructors of ``GroupPartition``, ``NuclearShape`` and
    ``ProblemSpec`` own the rules of an instance, the numbers of ``phi``,
    ``b`` and ``mu`` included, so Python callers get the codes and messages
    a problem file gets; the file loader adds the JSON checks and converts
    no number.  Also a ``ValueError``."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
