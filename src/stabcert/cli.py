"""Command-line interface: problem I/O, certification, audits, probes.

Problem files are JSON::

    {
      "schema_version": "1",
      "phi": [[...], ...],
      "b": [...],
      "mu": 1.0,
      "reg": {"kind": "group", "groups": [[1, 2], [3]]}
    }

with ``reg`` either a group partition (variable indices 1-based) or
``{"kind": "nuclear", "shape": [n1, n2]}`` for a row-major vectorized
matrix unknown.  An optional ``"options"`` object may pin ``tol``,
``max_iter`` and ``margin_tol``; command-line flags take precedence.

Reports are JSON with all reals printed at 17 significant digits, so
identical inputs and flags produce byte-identical payloads apart from the
``timing`` entry.  Exit codes: 0 success, 2 certificate did not hold,
1 any error.

Each run builds one report, and the command fills in each section as soon
as it is computed.  An error report therefore keeps ``inputs_digest`` once
the problem file is read and valid, and every section finished before the
error: a ``NotASolutionError`` from ``certify`` keeps ``solve``.  A numpy
factorization that fails (``numpy.linalg.LinAlgError``, for example an SVD
of a non-finite matrix) is reported the same way, with code
``LinAlgError``.  When the ``--out`` file cannot be written, the report
still goes to stdout, with ``error`` set to ``OUTPUT_NOT_WRITABLE`` unless
an earlier error already holds it, and the exit code is 1.

The argument parser is built once per process, on the first :func:`run`,
and reused by every later call; each call parses into a fresh namespace,
so no flag value carries over from one command to the next.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ProblemFormatError, StabcertError, UsageError
from .groupnorm import GroupPartition
from .linalg import UNIT_TOL
from .nuclear import NuclearShape
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ProblemSpec,
    SolveResult,
    prox_gradient_solve,
    real_array,
)
from .stability import (
    QGAuditReport,
    StabilityCertificate,
    certify,
    empirical_lipschitz,
    qg_audit,
    snap_to_graph,
    tilt_probe,
)

SCHEMA_VERSION = "1"

_TOP_KEYS = {"schema_version", "phi", "b", "mu", "reg", "options"}
_OPTION_KEYS = {"tol", "max_iter", "margin_tol"}


# ---------------------------------------------------------------------------
# canonical JSON


def _write_json(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        # JSON has no Infinity/NaN; certificates document null margins.
        out.append(format(f, ".17g") if math.isfinite(f) else "null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif (
        isinstance(obj, np.ndarray)
        and obj.ndim == 1
        and obj.dtype == np.float64
        and np.isfinite(obj).all()
    ):
        # The common case (solutions, duals, block norms) in one pass, with
        # the same bytes the element-wise branch below writes.
        out.append("[" + ",".join([format(v, ".17g") for v in obj.tolist()]) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text with full-precision reals."""
    out: list = []
    _write_json(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# problem files


def _require(data: dict, key: str):
    if key not in data:
        raise ProblemFormatError("MISSING_FIELD", f"missing required field {key!r}")
    return data[key]


def load_problem_dict(data) -> tuple[ProblemSpec, dict]:
    """Build a :class:`ProblemSpec` from a decoded problem dictionary.

    Checks only JSON types, fields, the schema version and the options, and
    converts no number of ``phi``, ``b`` or ``mu``: the constructors check
    the instance's rules, its numbers included, with the same coded errors.
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("BAD_TYPE", "problem file must hold a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ProblemFormatError("UNKNOWN_FIELD", f"unknown fields: {unknown}")
    version = _require(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise ProblemFormatError(
            "SCHEMA_UNSUPPORTED", f"unsupported schema version {version!r}"
        )
    phi, b, mu, reg_data = (_require(data, key) for key in ("phi", "b", "mu", "reg"))
    if not isinstance(phi, list) or not phi or not all(isinstance(row, list) for row in phi):
        raise ProblemFormatError("BAD_TYPE", "phi must be a non-empty list of rows")
    width = len(phi[0])
    if width == 0 or any(len(row) != width for row in phi):
        raise ProblemFormatError(
            "DIMENSION_MISMATCH", "phi rows must be non-empty and equally long"
        )
    if not isinstance(b, list):
        raise ProblemFormatError("BAD_TYPE", "b must be a list")
    if not isinstance(reg_data, dict):
        raise ProblemFormatError("BAD_TYPE", "reg must be an object")
    kind = reg_data.get("kind")
    if kind == "group":
        extra = sorted(set(reg_data) - {"kind", "groups"})
        if extra:
            raise ProblemFormatError("UNKNOWN_FIELD", f"unknown reg fields: {extra}")
        raw_groups = reg_data.get("groups")
        if not isinstance(raw_groups, list) or not all(
            isinstance(g, list) for g in raw_groups
        ):
            raise ProblemFormatError("BAD_TYPE", "groups must be a list of lists")
        # Files number variables from 1; a non-int index goes on as it is.
        groups = [[i - 1 if type(i) is int else i for i in g] for g in raw_groups]
        reg = GroupPartition(width, groups)
    elif kind == "nuclear":
        extra = sorted(set(reg_data) - {"kind", "shape"})
        if extra:
            raise ProblemFormatError("UNKNOWN_FIELD", f"unknown reg fields: {extra}")
        shape = reg_data.get("shape")
        if not isinstance(shape, list) or len(shape) != 2:
            raise ProblemFormatError("BAD_TYPE", "shape must be two positive integers")
        reg = NuclearShape(*shape)
    else:
        raise ProblemFormatError("BAD_TYPE", f"unknown regularizer kind {kind!r}")
    spec = ProblemSpec(phi, b, mu, reg)
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("BAD_TYPE", "options must be an object")
    bad = sorted(set(options) - _OPTION_KEYS)
    if bad:
        raise ProblemFormatError("UNKNOWN_FIELD", f"unknown options: {bad}")
    clean: dict = {}
    if "tol" in options:
        clean["tol"] = real_array(options["tol"], "options.tol")
        if clean["tol"] <= 0:
            raise ProblemFormatError("BAD_TYPE", "options.tol must be positive")
    if "max_iter" in options:
        mi = options["max_iter"]
        if isinstance(mi, bool) or not isinstance(mi, int) or mi < 1:
            raise ProblemFormatError("BAD_TYPE", "options.max_iter must be a positive integer")
        clean["max_iter"] = mi
    if "margin_tol" in options:
        clean["margin_tol"] = real_array(options["margin_tol"], "options.margin_tol")
        if clean["margin_tol"] < 0:
            raise ProblemFormatError("BAD_TYPE", "options.margin_tol must be nonnegative")
    return spec, clean


def _check_solver_constants(spec: ProblemSpec) -> None:
    """``NOT_FINITE`` unless the step ``1/L`` is positive and ``gram``, ``phi_tb``
    and ``||b||^2 / (2 mu)`` are finite, which the spec keeps for the solve."""
    with np.errstate(over="ignore"):
        ok = spec.step > 0.0 and np.isfinite(spec.gram).all() and np.isfinite(spec.phi_tb).all()
        if not (ok and math.isfinite(float(spec.b @ spec.b) / (2.0 * spec.mu))):
            raise ProblemFormatError("NOT_FINITE", "phi, b and mu overflow the solver's constants")


def parse_problem(path) -> tuple[ProblemSpec, dict, str]:
    """Read and validate a problem file: UTF-8 JSON.

    Returns the problem, its options and the SHA-256 of the file's bytes
    (the report's ``inputs_digest``), all from one read.  Data whose solver
    constants overflow is rejected with ``NOT_FINITE``.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ProblemFormatError("FILE_NOT_FOUND", f"cannot read {path}: {exc}") from exc
    return _load_problem_bytes(raw, path)


def _load_problem_bytes(raw: bytes, source) -> tuple[ProblemSpec, dict, str]:
    """Problem, options and SHA-256 of the bytes of a problem file named ``source``."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProblemFormatError("MALFORMED_JSON", f"{source}: {exc}") from exc
    spec, options = load_problem_dict(data)
    _check_solver_constants(spec)
    return spec, options, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# report assembly


def _certificate_dict(cert: StabilityCertificate) -> dict:
    return {
        "holds": cert.holds,
        "margin": cert.margin,  # serialized as null when infinite
        "subspace_dim": cert.subspace_dim,
        "gamma": cert.gamma,
        "kkt_residual": cert.kkt_residual,
        "witness": cert.witness,
        "kind": cert.kind,
        "parameter_scope": "(b, mu)",
        "classification": cert.classification.as_dict(),
        "tolerances": dict(sorted(cert.tolerances.items())),
    }


def _audit_dict(rep: QGAuditReport) -> dict:
    doc = {
        "kind": rep.kind,
        "samples": rep.samples,
        "used": rep.used,
        "radius": rep.radius,
        "seed": rep.seed,
        "min_slack": rep.min_slack,
        "slack_by_constant": dict(sorted(rep.slack_by_constant.items())),
        "passed": rep.passed,
    }
    if rep.conjecture_min_slack is not None:
        doc["conjecture_min_slack"] = rep.conjecture_min_slack
    return doc


# ---------------------------------------------------------------------------
# commands: each fills in the sections of ``report`` and returns the exit code


def _tol(args, options: dict, default: float) -> float:
    """``--tol``, then the file's ``tol``, then ``default``."""
    return args.tol if args.tol is not None else options.get("tol", default)


def _solver_opts(args, options: dict) -> dict:
    max_iter = options.get("max_iter", DEFAULT_MAX_ITER)
    return {"tol": _tol(args, options, DEFAULT_TOL), "max_iter": max_iter}


def _load(args, report: dict) -> tuple[ProblemSpec, dict]:
    spec, options, report["inputs_digest"] = parse_problem(args.problem)
    return spec, options


def _solve(spec: ProblemSpec, args, options: dict, report: dict) -> SolveResult:
    result = prox_gradient_solve(spec, **_solver_opts(args, options))
    # A section holds the fields of its result, in their declared order.
    report["solve"] = vars(result).copy()
    return result


def _cmd_solve(args, report: dict) -> int:
    spec, options = _load(args, report)
    _solve(spec, args, options, report)
    return 0


def _cmd_certify(args, report: dict) -> int:
    spec, options = _load(args, report)
    result = _solve(spec, args, options, report)
    tol = _tol(args, options, UNIT_TOL)
    cert = certify(spec, result.x, tol=tol, margin_tol=options.get("margin_tol"))
    report["certificate"] = _certificate_dict(cert)
    return 0 if cert.holds else 2


def _cmd_qg_audit(args, report: dict) -> int:
    spec, options = _load(args, report)
    result = _solve(spec, args, options, report)
    # Audits need a pair exactly on the subdifferential graph; solver output
    # is only optimal to its residual, so snap before sampling.
    xs, ys, ref = snap_to_graph(spec.reg, result.x, result.y, _tol(args, options, UNIT_TOL))
    rep = qg_audit(
        spec.reg,
        xs,
        ys,
        samples=args.samples,
        radius=args.radius,
        seed=args.seed,
        include_conjecture=args.conjecture,
        ref=ref,
    )
    doc = _audit_dict(rep)
    doc["snap_distance"] = float(np.linalg.norm(xs - result.x))
    report["audit"] = doc
    return 0


def _cmd_perturb(args, report: dict) -> int:
    spec, options = _load(args, report)
    rep = empirical_lipschitz(
        spec,
        radius_b=args.radius,
        radius_mu=args.radius_mu,
        samples=args.samples,
        seed=args.seed,
        starts=args.starts,
        **_solver_opts(args, options),
    )
    report["perturbation"] = vars(rep).copy()
    return 0


def _cmd_tilt_probe(args, report: dict) -> int:
    spec, options = _load(args, report)
    result = _solve(spec, args, options, report)
    rep = tilt_probe(
        spec,
        result.x,
        radius_v=args.radius,
        samples=args.samples,
        seed=args.seed,
        starts=args.starts,
        **_solver_opts(args, options),
    )
    report["perturbation"] = vars(rep).copy()
    return 0


_EXAMPLE_NON = "data/example_non.json"


def _cmd_reproduce_example_non(args, report: dict) -> int:
    raw = resources.files("stabcert").joinpath(_EXAMPLE_NON).read_bytes()
    spec, _, report["inputs_digest"] = _load_problem_bytes(raw, _EXAMPLE_NON)
    b = spec.b.copy()
    b[1] = args.b2
    spec = spec.with_data(b, spec.mu)
    # --b2 can overflow ||b||^2 just as a problem file's b can.
    _check_solver_constants(spec)
    # The command ignores the file's options: only --tol reaches the solver
    # and the certificate.
    result = _solve(spec, args, {}, report)
    cert = certify(spec, result.x, tol=_tol(args, {}, UNIT_TOL))
    report["certificate"] = _certificate_dict(cert)
    predicted = max(-args.b2 - 1.0, 0.0)
    observed = float(result.x[2])
    mismatch = abs(observed - predicted)
    report["reproduction"] = {
        "b2": args.b2,
        "predicted_x3": predicted,
        "observed_x3": observed,
        "mismatch": mismatch,
        "matches": bool(mismatch <= 1e-6),
    }
    return 0 if mismatch <= 1e-6 else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "qg-audit": _cmd_qg_audit,
    "perturb": _cmd_perturb,
    "tilt-probe": _cmd_tilt_probe,
    "reproduce-example-non": _cmd_reproduce_example_non,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcert",
        description="Stability certificates for group-lasso and nuclear-norm regression",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True):
        if problem:
            p.add_argument("problem", help="problem JSON file")
        p.add_argument("--tol", type=float, default=None, help="solver/certificate tolerance")
        p.add_argument("--out", default=None, help="write the JSON report here as well")

    p = sub.add_parser("solve", help="solve the instance")
    common(p)

    p = sub.add_parser("certify", help="solve, then certify stability (exit 2 when it fails)")
    common(p)

    p = sub.add_parser("qg-audit", help="sampled quadratic-growth audit at the solution")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--conjecture",
        action="store_true",
        help="also track the sharper untested nuclear modulus",
    )

    p = sub.add_parser("perturb", help="sampled Lipschitz experiment over (b, mu)")
    common(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--radius", type=float, default=0.1, help="data perturbation radius")
    p.add_argument("--radius-mu", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=1)

    p = sub.add_parser("tilt-probe", help="sampled tilt experiment at the solution")
    common(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--radius", type=float, default=1e-4, help="tilt radius")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=1)

    p = sub.add_parser(
        "reproduce-example-non",
        help="solve the bundled reference instance and check the closed-form response",
    )
    common(p, problem=False)
    p.add_argument("--b2", type=float, default=-1.0)

    return parser


# Numeric flags: (name, lowest allowed value, whether that value is excluded).
_FLAG_BOUNDS = (
    ("tol", 0.0, True),
    ("samples", 0, False),
    ("starts", 1, False),
    ("radius", 0.0, False),
    ("radius_mu", 0.0, False),
    ("seed", 0, False),
    ("b2", -math.inf, True),
)


def _check_flags(args) -> None:
    """Reject a non-finite or out-of-range numeric flag with :class:`UsageError`."""
    for name, low, strict in _FLAG_BOUNDS:
        value = getattr(args, name, None)
        if value is None or (math.isfinite(value) and (value > low if strict else value >= low)):
            continue
        rule = "finite" if low == -math.inf else f"finite and {'>' if strict else '>='} {low}"
        raise UsageError(f"--{name.replace('_', '-')} must be {rule}, got {value}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than parsing a command with it, and
    # argparse keeps no state between ``parse_args`` calls: one per process.
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    report = {
        "command": args.command,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "inputs_digest": None,
        "solve": None,
        "certificate": None,
        "perturbation": None,
        "audit": None,
        "error": None,
    }
    try:
        _check_flags(args)
        code = _COMMANDS[args.command](args, report)
    except (StabcertError, np.linalg.LinAlgError) as exc:
        name = getattr(exc, "code", type(exc).__name__)  # ProblemFormatError has a code
        report["error"] = {"code": name, "message": str(exc)}
        code = 1
    report["timing"] = {"seconds": time.perf_counter() - start}
    text = dumps_canonical(report)
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            if report["error"] is None:
                report["error"] = {"code": "OUTPUT_NOT_WRITABLE", "message": str(exc)}
                text = dumps_canonical(report)
            code = 1
    print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
