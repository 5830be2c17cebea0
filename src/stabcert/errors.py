"""Exception types shared across the package."""


class StabcertError(Exception):
    """Base class for all package-specific failures."""


class NotASolutionError(StabcertError):
    """A claimed (point, subgradient) pair is off the subdifferential graph:
    its optimality residual, kept as ``residual`` (NaN for a pair with a
    non-finite entry), exceeds ``tol``.  The regularizers' ``classify`` raise
    it, so :func:`~stabcert.stability.certify`, ``snap_to_graph`` and
    ``qg_audit`` all refuse such a pair with this one message."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"optimality residual {residual:.3e} exceeds tolerance {tol:.3e}")
        self.residual = residual


class InfeasibleApproximationError(StabcertError):
    """The requested subgradient decomposition does not exist for this input."""


class UsageError(StabcertError):
    """A command-line value is not finite or out of range."""


class ProblemFormatError(StabcertError, ValueError):
    """A problem file or instance breaks a rule.  Carries a machine-readable code.

    The constructors of ``GroupPartition``, ``NuclearShape`` and
    ``ProblemSpec`` own the rules of an instance, the shapes and numbers of
    ``phi``, ``b`` and ``mu`` included, so Python callers get the codes and
    messages a problem file gets; the file loader adds only the JSON checks.
    Also a ``ValueError``."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
