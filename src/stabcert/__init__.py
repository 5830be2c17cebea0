"""Stability certificates for group-lasso and nuclear-norm regression.

Solve ``min (1/(2 mu)) ||phi x - b||^2 + g(x)`` with ``g`` a group or
nuclear norm, then certify whether the solution map is single valued and
Lipschitz in the problem data, with sampling probes to cross-examine the
algebraic verdict.
"""

__version__ = "0.1.0"

from .groupnorm import GroupPartition
from .nuclear import NuclearShape
from .solver import ProblemSpec, SolveResult, multistart_solve, objective, prox_gradient_solve
from .stability import (
    PerturbationReport,
    QGAuditReport,
    StabilityCertificate,
    certify,
    certify_phi_perturbed,
    empirical_lipschitz,
    qg_audit,
    second_quotient_probe,
    tilt_probe,
)

__all__ = [
    "__version__",
    "GroupPartition",
    "NuclearShape",
    "ProblemSpec",
    "SolveResult",
    "StabilityCertificate",
    "PerturbationReport",
    "QGAuditReport",
    "prox_gradient_solve",
    "multistart_solve",
    "objective",
    "certify",
    "certify_phi_perturbed",
    "qg_audit",
    "second_quotient_probe",
    "empirical_lipschitz",
    "tilt_probe",
]
