"""Stability certificates, growth audits, and sampling probes.

The central object is the certificate produced by :func:`certify`: it
restricts the design operator to the subspace of directions that keep the
solution critical (spanned by the boundary blocks of the dual vector, or by
the symmetric top block of the joint frames; the regularizer's ``classify``
builds it) and measures the smallest singular value there.  A positive
margin certifies that the solution map is single valued and Lipschitz in
the data ``(b, mu)`` near the instance; a zero margin comes with a witness
direction along which uniqueness fails.

Everything else here is empirical cross-examination of that verdict:
quadratic-growth audits of the regularizer, finite-difference curvature
probes, and sampled Lipschitz/tilt experiments on the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotASolutionError, NotASubgradientError
from .groupnorm import GroupAnalysis
from .linalg import UNIT_TOL, restricted_min_singular
from .nuclear import SimultaneousSVD
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ProblemSpec,
    Regularizer,
    dual_from_solution,
    multistart_solve,
    newton_matrix,
    objective,
    prox_gradient_solve,
)

# Certificate margin threshold, relative to the operator scale.
MARGIN_TOL_SCALE = 1e-8
# Growth audits must not dip below this slack.
AUDIT_SLACK_FLOOR = -1e-9
# Samples with norm at or below this are excluded from audits.
AUDIT_NORM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class StabilityCertificate:
    """Algebraic verdict on solution-map stability at one solved instance.

    ``holds`` is equivalent to ``margin > margin_tol``.  ``margin`` is the
    smallest singular value of the design operator restricted to the
    critical subspace (``inf`` when that subspace is trivial), ``witness``
    a unit direction realizing the failure when the verdict is negative.
    The fields are the report's ``certificate`` section, in this order,
    with ``classification`` in its ``as_dict()`` form.  ``parameter_scope``
    is the fixed ``"(b, mu)"``, not a constructor argument: it names the
    parameters the verdict covers, and ROADMAP item 5 widens it only with
    evidence for ``phi``.
    """

    holds: bool
    margin: float
    subspace_dim: int
    gamma: float
    kkt_residual: float
    witness: np.ndarray | None
    kind: str
    parameter_scope: str = field(init=False, default_factory=lambda: "(b, mu)")
    classification: GroupAnalysis | SimultaneousSVD
    tolerances: dict


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of a sampled perturbation experiment; the fields are the
    report's ``perturbation`` section, in this order."""

    samples: int
    max_ratio: float
    multivaluedness_spread: float
    non_converged: int
    seed: int


@dataclass(frozen=True, eq=False)
class QGAuditReport:
    """Sampled check of the quadratic-growth inequalities.

    The fields are the report's ``audit`` section, in this order; an absent
    ``conjecture_min_slack`` (``None``) is left out, and the CLI appends the
    ``snap_distance`` of the audited pair.
    """

    kind: str
    samples: int
    used: int
    radius: float
    seed: int
    min_slack: float
    slack_by_constant: dict
    passed: bool
    conjecture_min_slack: float | None = None


def margin_tolerance(problem: ProblemSpec) -> float:
    """Certificate threshold ``1e-8 * sigma_max(phi)``; scale covariant."""
    return MARGIN_TOL_SCALE * problem.sigma_max


def certify(
    problem: ProblemSpec,
    x: np.ndarray,
    tol: float = UNIT_TOL,
    margin_tol: float | None = None,
) -> StabilityCertificate:
    """Certificate at solution ``x`` (a vector; nuclear problems also take the matrix).

    Raises :class:`NotASolutionError` when the optimality residual at ``x``
    exceeds ``tol``; the residual it reports is the one the failed
    classification measured.
    """
    reg = problem.reg
    x = np.asarray(x, dtype=float).reshape(-1)
    classification = _classify(reg, x, dual_from_solution(problem, x), tol)
    mt = margin_tolerance(problem) if margin_tol is None else float(margin_tol)
    basis = classification.v_basis
    margin, direction = restricted_min_singular(problem.phi, basis)
    holds = margin > mt
    witness = None if holds else direction
    return StabilityCertificate(
        holds=holds,
        margin=margin,
        subspace_dim=basis.shape[1],
        gamma=classification.gamma,
        kkt_residual=classification.residual,
        witness=witness,
        kind=reg.kind,
        classification=classification,
        tolerances={"class_tol": tol, "kkt_tol": tol, "margin_tol": mt},
    )


def _classify(reg: Regularizer, x: np.ndarray, y: np.ndarray, tol: float):
    """``reg.classify(x, y, tol)``, the graph-pair gate of :func:`certify` and
    :func:`snap_to_graph`: a pair off the graph by more than ``tol`` (or by
    NaN) raises :class:`NotASolutionError` with the residual it measured."""
    try:
        return reg.classify(x, y, tol)
    except NotASubgradientError as exc:
        raise NotASolutionError(
            f"optimality residual {exc.residual:.3e} exceeds tolerance {tol:.3e}"
        ) from None


def snap_to_graph(
    reg: Regularizer, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL
) -> tuple[np.ndarray, np.ndarray, GroupAnalysis | SimultaneousSVD]:
    """Project a numerically optimal pair exactly onto the subdifferential graph.

    Solver output satisfies optimality only to its residual; audits need a
    pair that lies on the graph to working precision.  The pair is
    classified at ``tol`` through the gate of :func:`certify`, which raises
    the same :class:`NotASolutionError`, and rebuilt from that
    classification by its ``graph_pair``.  Returns ``(x, y,
    classification)``: the snapped vectors and the classification of the
    snapped pair; pass it to :func:`qg_audit` as ``ref``.
    """
    return _classify(reg, x, y, tol).graph_pair()


def _ball_samples(rng: np.random.Generator, n: int, count: int, radius: float) -> np.ndarray:
    """Uniform draws from the Euclidean ball of the given radius, one per row."""
    z = rng.standard_normal((count, n))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    scale = rng.random((count, 1)) ** (1.0 / n)
    return radius * scale * z / norms


def qg_audit(
    reg: Regularizer,
    xbar: np.ndarray,
    ybar: np.ndarray,
    samples: int = 1000,
    radius: float = 1.0,
    seed: int = 0,
    include_conjecture: bool = False,
    ref: GroupAnalysis | SimultaneousSVD | None = None,
) -> QGAuditReport:
    """Sampled audit of the quadratic growth of the regularizer at a graph pair.

    Checks, at points ``x`` drawn uniformly from the ball of the given
    radius around ``xbar``, that the regularizer gap
    ``g(x) - g(xbar) - <ybar, x - xbar>`` dominates the squared distance to
    the inverse image of ``ybar`` times the growth modulus:
    ``(1 - gamma) / (2 ||x||)`` in the group case, both
    ``(1 - gamma^2) / (2 ||X||_* (1 + (1 + gamma)^2))`` and
    ``(1 - gamma) / (5 ||X||_*)`` in the nuclear case.  Near-zero samples
    are excluded.  All samples are evaluated as one batch, and each
    constant reports its minimum slack over them.  A non-finite slack (an
    overflowing sample) fails the audit: NaN, +inf or -inf make their
    constant and ``min_slack`` NaN.  ``include_conjecture`` additionally
    tracks the sharper untested nuclear modulus ``(1 - gamma) / (2 ||X||_*)``,
    whose minimum skips NaN and +inf slacks; a dip there is a
    counterexample candidate, not a failure.  ``ref`` is the
    classification of ``(xbar, ybar)`` when the caller has it
    (:func:`snap_to_graph` returns it); otherwise the pair is classified
    here, at ``UNIT_TOL``.  The distances read their unit blocks or unit
    singular values from ``ref``, the decision :func:`certify` reads.
    """
    rng = np.random.default_rng(seed)
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    ybar = np.asarray(ybar, dtype=float).reshape(-1)
    if ref is None:
        ref = reg.classify(xbar, ybar)
    conjecture = reg.growth_conjecture if include_conjecture else None
    draws = xbar[None, :] + _ball_samples(rng, reg.n, samples, radius)
    scales = reg.growth_scale(draws)
    kept = ~(scales <= AUDIT_NORM_FLOOR)  # a NaN scale stays in, and fails
    rows = draws[kept]
    used = rows.shape[0]
    conj_min = math.inf
    if used == 0:
        mins = dict.fromkeys(reg.growth_names, 0.0)
        min_slack = 0.0
    else:
        slacks = reg.growth_slacks(rows, scales[kept], xbar, ybar, ref)
        table = np.column_stack([slacks[name] for name in reg.growth_names])
        col_min = np.where(np.isfinite(table).all(axis=0), table.min(axis=0), np.nan)
        mins = {name: float(v) for name, v in zip(reg.growth_names, col_min)}
        min_slack = float(col_min.min())  # NaN when any constant is
        if conjecture:
            conj = slacks[conjecture]
            conj_min = float(np.where(conj < np.inf, conj, np.inf).min())
    return QGAuditReport(
        kind=reg.kind,
        samples=samples,
        used=used,
        radius=radius,
        seed=seed,
        min_slack=min_slack,
        slack_by_constant=mins,
        passed=min_slack >= AUDIT_SLACK_FLOOR,
        conjecture_min_slack=conj_min if conjecture else None,
    )


def second_quotient_probe(
    problem: ProblemSpec, x: np.ndarray, v: np.ndarray | None, w: np.ndarray, t: float
) -> float:
    """Finite second-order difference quotient of the objective.

    ``(phi(x + t w) - phi(x) - t <v, w>) / (t^2 / 2)`` where ``phi`` is the
    full objective; ``v`` should be a subgradient of it at ``x`` (the zero
    vector at an exact solution).  Stabilized curvature along ``w`` as
    ``t`` shrinks is the second-order signature of a stable solution;
    decay to zero along some direction witnesses failure.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    v = np.zeros_like(x) if v is None else np.asarray(v, dtype=float)
    if t <= 0:
        raise ValueError("step must be positive")
    num = objective(problem, x + t * w) - objective(problem, x) - t * float(v @ w)
    return num / (0.5 * t * t)


def _largest_ratio(dx: np.ndarray, dp: np.ndarray | None = None) -> float:
    """Largest norm of a last-axis row of ``dx``; with ``dp``, largest
    ``||dx[k]|| / ||dp[k]||`` over the rows with ``||dp[k]||`` not below
    ``1e-15``.  0 when no row counts, NaN when a counted one is NaN.  The
    norms are ``np.linalg.norm``'s own arithmetic without its overhead; a
    row below the floor may divide by 0, so the caller silences warnings."""
    norms = np.sqrt(np.add.reduce(dx * dx, axis=-1))
    if dp is not None:
        dp = np.sqrt(np.add.reduce(dp * dp, axis=-1))
        norms = np.where(dp < 1e-15, 0.0, norms / dp)
    return np.maximum.reduce(norms, axis=None, initial=0.0)


def _largest_pair_ratio(xs: np.ndarray, ps: np.ndarray | None = None) -> float:
    """:func:`_largest_ratio` over the pairs ``xs[i], xs[j]``, ``i < j``
    (and ``ps[i], ps[j]``); middle axes hold independent stacks.  Folded one
    ``i`` at a time with the NaN-keeping ``np.maximum``: no pair array."""
    best = 0.0
    for i in range(len(xs) - 1):
        dp = None if ps is None else ps[i + 1 :] - ps[i]
        best = np.maximum(best, _largest_ratio(xs[i + 1 :] - xs[i], dp))
    return float(best)


def _sample_solves(rng, cases, center, starts, tol, max_iter):
    """Solve every sample of a probe from several starts.

    Each case ``(spec, v, first)`` is solved with tilt ``v`` from ``first``
    and from ``starts - 1`` random starts, drawn from ``rng`` case by case
    in the ball of radius ``1 + ||center||`` around ``center``.  Returns the
    solutions stacked ``(starts, cases, n)``, their largest spread within a
    case (NaN when any is NaN) and the count of unconverged solves.
    """
    scale = 1.0 + float(np.linalg.norm(center))
    sols = []
    non_converged = 0
    for spec, v, first in cases:
        # A zero-size draw leaves rng where it was, so it is skipped.
        others = center + _ball_samples(rng, center.size, starts - 1, scale) if starts > 1 else []
        results = multistart_solve(spec, [first, *others], v=v, tol=tol, max_iter=max_iter)
        non_converged += sum(not r.converged for r in results)
        sols.extend(r.x for r in results)
    sols = np.array(sols, dtype=float).reshape(-1, starts, center.size).swapaxes(0, 1)
    return sols, _largest_pair_ratio(sols), non_converged


def _solution_derivative(problem: ProblemSpec, x: np.ndarray) -> np.ndarray | None:
    """The derivative ``D`` of the solution map ``(b, mu) -> x*`` at ``x``,
    as an ``(n, m + 1)`` matrix acting on ``[db; dmu]``; ``None`` where the
    system that defines it is singular or gives a non-finite ``D``.
    Singular means numerically rank deficient by numpy's rule: a singular
    value at most ``n * eps`` times the largest.  A degenerate instance,
    whose minimizers form a segment, has its Newton matrix singular along
    the segment.

    ``x`` is the fixed point ``x = prox_{t g}(w)`` of the forward step
    ``w = x - t (gram x - phi^T b / mu)``, for any fixed step ``t``; the
    solver's ``t = 1/L`` is taken.  Differentiating with ``J`` the prox
    Jacobian at ``w``, a map on directions that the prox returns:

        ``(I - J (I - t gram)) D = (t / mu) J [phi^T | gram x - phi^T b / mu]``.

    Where the prox is smooth at ``w`` (strict complementarity) and ``phi``
    is injective on the active subspace (the certificate), this is the
    derivative (Vaiter, Deledalle, Peyre, Fadili & Dossal, Inf. Inference
    2015); elsewhere ``J`` is one element of the generalized Jacobian.
    """
    t = problem.step
    grad = problem.gram @ x - problem.phi_tb
    _, _, derivative = problem.reg.prox(x - t * grad, t)
    jac, applied = newton_matrix(problem, derivative, np.vstack([problem.phi, grad]))
    try:
        d, _, rank, _ = np.linalg.lstsq(jac, (t / problem.mu) * applied, rcond=None)
    except np.linalg.LinAlgError:
        return None
    return d if rank == problem.n and np.isfinite(d).all() else None


def empirical_lipschitz(
    problem: ProblemSpec,
    radius_b: float,
    radius_mu: float,
    samples: int = 20,
    seed: int = 0,
    starts: int = 1,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerturbationReport:
    """Sampled Lipschitz experiment on the solution map over ``(b, mu)``.

    Draws parameter points uniformly from the product ball around the
    instance (``mu`` clamped to stay at or above half its base value),
    solves each, and reports the largest solution-to-parameter distance
    ratio over all pairs including the baseline.  Each sample is solved
    from a first start and from ``starts - 1`` deterministic random starts
    around the base solution ``x``; the largest spread among the returned
    minimizers is reported, and the ratios use the first start's solution.
    Here and in :func:`tilt_probe`, a pair counts unless its data distance
    is below ``1e-15``, and a NaN ratio or distance (an overflowing sample,
    also counted unconverged) makes the largest ratio or the spread NaN;
    numpy's floating-point warnings are silenced for the probe.

    The first start is the first-order prediction ``x + D [db; dmu]`` of
    the sample's solution, with ``D`` the derivative of the solution map
    at the base instance, built once from one linear solve with ``m + 1``
    right-hand sides.  A prediction that is not finite, and every sample
    where the system for ``D`` is singular or gives a non-finite ``D``,
    starts at ``x`` instead.
    """
    rng = np.random.default_rng(seed)
    base = prox_gradient_solve(problem, tol=tol, max_iter=max_iter)
    derivative = _solution_derivative(problem, base.x)
    # The data [b | mu] by row: the instance's own, then each sample's.
    ps = np.empty((samples + 1, problem.m + 1))
    ps[0, :-1], ps[0, -1] = problem.b, problem.mu
    ps[1:, :-1] = problem.b + _ball_samples(rng, problem.m, samples, radius_b)
    mu_draws = problem.mu + rng.uniform(-radius_mu, radius_mu, size=samples)
    ps[1:, -1] = np.maximum(mu_draws, problem.mu / 2.0)

    def case(p: np.ndarray):
        """The sample's problem, no tilt, and its first start."""
        spec = problem.with_data(p[:-1], float(p[-1]))
        if derivative is not None:
            predicted = base.x + derivative @ (p - ps[0])
            if np.isfinite(predicted).all():
                return spec, None, predicted
        return spec, None, base.x

    cases = map(case, ps[1:])
    with np.errstate(all="ignore"):
        sols, spread, non_converged = _sample_solves(rng, cases, base.x, starts, tol, max_iter)
        max_ratio = _largest_pair_ratio(np.concatenate([base.x[None], sols[0]]), ps)
    return PerturbationReport(
        samples=samples,
        max_ratio=max_ratio,
        multivaluedness_spread=spread,
        non_converged=non_converged + (not base.converged),
        seed=seed,
    )


def tilt_probe(
    problem: ProblemSpec,
    x: np.ndarray,
    radius_v: float = 1e-4,
    samples: int = 20,
    seed: int = 0,
    starts: int = 1,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerturbationReport:
    """Sampled tilt experiment at a solved instance.

    Solves the problem with random linear tilts of norm at most
    ``radius_v`` and reports the largest movement-to-tilt ratio
    ``||M(v) - x|| / ||v||``.  A stable solution keeps the ratio bounded as
    the radius shrinks; blow-up flags tilt instability.  Multistart spread,
    the pair rule and the NaN rule are as in :func:`empirical_lipschitz`:
    tilts of norm below ``1e-15`` do not count.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    tilts = _ball_samples(rng, problem.n, samples, radius_v)
    cases = [(problem, v, x) for v in tilts]
    with np.errstate(all="ignore"):
        sols, spread, non_converged = _sample_solves(rng, cases, x, starts, tol, max_iter)
        max_ratio = float(_largest_ratio(sols[0] - x, tilts))
    return PerturbationReport(
        samples=samples,
        max_ratio=max_ratio,
        multivaluedness_spread=spread,
        non_converged=non_converged,
        seed=seed,
    )
