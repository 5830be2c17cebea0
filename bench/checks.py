"""Correctness checks on the JSON reports of benchmark operations.

A check returns ``None`` when the report is acceptable, else a
:class:`Failure`.  ``wrong`` separates wrong answers (a report that
completed but states something false) from errors (the command reported
that it could not finish); both count as failed operations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Criterion 6 of the acceptance gate: a solution certified with this margin
# must not scatter under multistart tilts.
CERTIFIED_MARGIN = 0.1
TILT_SPREAD_MAX = 1e-6
SCALE_X_RTOL = 1e-6


class Failure(NamedTuple):
    reason: str
    wrong: bool


def _norm(v) -> float:
    return math.sqrt(sum(float(t) * float(t) for t in v))


def certified_with_margin(certify_report: dict | None) -> bool:
    """Holds with a finite margin of at least :data:`CERTIFIED_MARGIN`."""
    if not certify_report or certify_report.get("error") is not None:
        return False
    cert = certify_report["certificate"]
    margin = cert["margin"]
    return bool(cert["holds"]) and margin is not None and margin >= CERTIFIED_MARGIN


def check(inst, command: str, report: dict, certified: dict) -> Failure | None:
    """Check one report.  ``certified`` maps instance ids to this pass's
    certify reports; the original of a scale copy and an instance's own
    certify op always run before the op being checked."""
    err = report.get("error")
    if err is not None:
        return Failure(f"error {err.get('code')}", False)
    if command == "certify":
        cert = report["certificate"]
        if inst.degenerate:
            if cert["holds"]:
                return Failure("degenerate instance certified", True)
            if cert["witness"] is None:
                return Failure("negative verdict without witness", True)
        if inst.origin is not None:
            return _check_scale_copy(inst, report, certified[inst.origin])
        return None
    if command in ("tilt", "perturb"):
        pert = report["perturbation"]
        if pert["max_ratio"] is None:
            return Failure("non-finite max_ratio", True)
        spread = pert["multivaluedness_spread"]
        if spread is None:
            return Failure("non-finite multivaluedness_spread", True)
        if (
            command == "tilt"
            and certified_with_margin(certified.get(inst.iid))
            and spread > TILT_SPREAD_MAX
        ):
            return Failure(f"certified but tilt spread {spread:.3e}", True)
        return None
    audit = report["audit"]
    if audit["min_slack"] is None:
        return Failure("non-finite min_slack", True)
    if not audit["passed"]:
        return Failure(f"audit failed, min_slack {audit['min_slack']:.3e}", True)
    return None


def _check_scale_copy(inst, report: dict, original: dict) -> Failure | None:
    if original.get("error") is not None:
        return Failure("original instance has no verdict to compare", False)
    holds = report["certificate"]["holds"]
    if holds != original["certificate"]["holds"]:
        return Failure("verdict differs from the c = 1 original", True)
    if None in report["solve"]["x"]:
        return Failure("non-finite x", True)
    x = [v / inst.scale for v in report["solve"]["x"]]
    x0 = original["solve"]["x"]
    gap = _norm([a - b for a, b in zip(x, x0)])
    if gap > SCALE_X_RTOL * (1.0 + _norm(x0)):
        # The known scale defect: the solver stops on an absolute residual,
        # so a scaled-down copy is solved less accurately.  A failed op, as
        # are the errors the same defect raises, but not a false verdict.
        return Failure(f"x / c off the original by {gap:.3e}", False)
    return None


def verdict(command: str, report: dict) -> tuple:
    """The discrete outcome of a report, for run-to-run comparison."""
    err = report.get("error")
    if err is not None:
        return ("error", err.get("code"))
    if command == "certify":
        return ("holds", report["certificate"]["holds"])
    if command == "audit":
        return ("passed", report["audit"]["passed"])
    return ("non_converged", report["perturbation"]["non_converged"])
