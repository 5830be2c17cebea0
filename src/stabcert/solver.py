"""Accelerated proximal-gradient solver for regularized least squares.

Problems have the form

    minimize over x:   (1 / (2 mu)) ||phi @ x - b||^2  +  g(x)  -  <v, x>

where ``g`` is either the group norm or the nuclear norm of the row-major
reshape of ``x``, and ``v`` is an optional linear tilt used by the
stability probes.  The solver is FISTA with a fixed step ``1/L``,
``L = sigma_max(phi)^2 / mu``, and a function-value restart that keeps the
reported objective nonincreasing.  Termination is on the fixed-point
residual ``||x - T(x)||`` of the forward-backward map
``T = prox_{g/L} o (I - grad/L)``.  Each iteration takes one prox, at the
momentum point; the prox also returns ``g`` at its point, so the objective
needs no separate norm evaluation.  ``T`` is nonexpansive at step ``1/L``,
so ``||m - T(m)||`` bounds the residual at ``T(m)``; once that bound is
below the tolerance, one more prox confirms the true residual.

Once FISTA has settled the active blocks or rank, it only polishes a smooth
problem, which Newton does in a step or two.  So at the first iteration
whose step moves the iterate by at most ``NEWTON_SWITCH``, the solver makes
one attempt of at most ``NEWTON_STEPS`` semismooth Newton steps on
``z - T(z)``.  The regularizer's one ``prox`` returns, with each point,
a builder for the generalized Jacobian of the prox there from the same
factorization; the solver calls it only when one more step needs it.
Once a Newton point's true residual is below the tolerance, its prox point
is kept if its objective exceeds that of the FISTA point the attempt began
at by at most 4 ulps; otherwise FISTA goes on as if the attempt had not been
made.  ``max_iter`` caps FISTA iterations and Newton steps together.
Hitting the cap sets a flag on the result instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groupnorm import GroupPartition
from .nuclear import NuclearShape

Regularizer = GroupPartition | NuclearShape

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# FISTA hands over to Newton once a step moves the iterate by at most this,
# and the one Newton attempt of a solve takes at most this many steps.
NEWTON_SWITCH = 1e-3
NEWTON_STEPS = 5


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A regularized least-squares instance.

    ``phi`` is m x n with n matching the regularizer dimension (for nuclear
    problems, n = n1 * n2 and unknowns are row-major vectorizations).
    The operator quantities below are computed on first use and kept.
    """

    phi: np.ndarray
    b: np.ndarray
    mu: float
    reg: Regularizer

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", float(self.mu))
        if phi.ndim != 2:
            raise ValueError("phi must be a matrix")
        if b.shape != (phi.shape[0],):
            raise ValueError(
                f"b has shape {b.shape}, expected ({phi.shape[0]},)"
            )
        if not (np.isfinite(phi).all() and np.isfinite(b).all() and np.isfinite(self.mu)):
            raise ValueError("phi, b and mu must be finite")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.reg.n != phi.shape[1]:
            raise ValueError(
                f"regularizer dimension {self.reg.n} does not match phi columns {phi.shape[1]}"
            )

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @cached_property
    def sigma_max(self) -> float:
        """Largest singular value of ``phi``."""
        return float(np.linalg.svd(self.phi, compute_uv=False)[0]) if self.phi.size else 0.0

    @cached_property
    def step(self) -> float:
        """The solver's step ``1/L``, ``L = sigma_max^2 / mu``; 1 for a zero
        operator, where any step is valid for the pure prox iteration."""
        lip = self.sigma_max * self.sigma_max / self.mu
        return 1.0 / lip if lip > 0.0 else 1.0

    @cached_property
    def phi_t_phi(self) -> np.ndarray:
        """``phi^T phi``, independent of ``b`` and ``mu``."""
        return self.phi.T @ self.phi

    @cached_property
    def gram(self) -> np.ndarray:
        """``phi^T phi / mu``, the Hessian of the fit term."""
        return self.phi_t_phi / self.mu

    @cached_property
    def forward_jacobian(self) -> np.ndarray:
        """``I - step gram``, the Jacobian of the forward step
        ``z -> z - step (gram z - phi^T b / mu)``."""
        return np.eye(self.n) - self.step * self.gram

    @cached_property
    def phi_tb(self) -> np.ndarray:
        """``phi^T b / mu``, the linear part of the fit gradient."""
        return self.phi.T @ self.b / self.mu

    def with_data(self, b: np.ndarray, mu: float) -> "ProblemSpec":
        """The same operator and regularizer with new ``(b, mu)``.

        The new instance starts with this one's ``sigma_max`` and
        ``phi_t_phi``, so it factors ``phi`` no more.
        """
        spec = ProblemSpec(self.phi, b, mu, self.reg)
        spec.__dict__.update(sigma_max=self.sigma_max, phi_t_phi=self.phi_t_phi)
        return spec


@dataclass
class SolveResult:
    """Solver output.  ``y = -(1/mu) phi^T (phi x - b)`` excludes any tilt;
    ``objective`` is the value of the solved (possibly tilted) objective.
    ``iterations`` counts FISTA iterations and Newton steps together;
    ``newton_steps`` counts the Newton steps, whether or not their point
    was kept."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    newton_steps: int
    fixed_point_residual: float
    objective: float
    converged: bool


def objective(problem: ProblemSpec, x: np.ndarray) -> float:
    """Untilted objective value at ``x``."""
    x = np.asarray(x, dtype=float)
    resid = problem.phi @ x - problem.b
    return float(resid @ resid) / (2.0 * problem.mu) + problem.reg.value(x)


def dual_from_solution(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Negative gradient of the fit term; the candidate subgradient at ``x``."""
    x = np.asarray(x, dtype=float)
    return -(problem.phi.T @ (problem.phi @ x - problem.b)) / problem.mu


def newton_matrix(problem: ProblemSpec, jacobian: np.ndarray) -> np.ndarray:
    """``I - J (I - step gram)``, the Jacobian of ``z - T(z)`` where ``J``
    is the prox Jacobian at the forward step of ``z``.

    The solver's Newton steps solve with it, and at a solution it maps the
    solution map's derivative to the data's first-order change (see
    :func:`stabcert.stability.empirical_lipschitz`).
    """
    return np.eye(problem.n) - jacobian @ problem.forward_jacobian


def prox_gradient_solve(
    problem: ProblemSpec,
    v: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """FISTA with function-value restart on the (optionally tilted) problem.

    Let ``T(z) = prox_{g/L}(z - (grad f(z) - v)/L)``.  The solve stops
    with ``converged`` set only when the true residual ``||x - T(x)||`` is
    at most ``tol``.  Each iteration takes the new iterate ``z = T(m)``
    from the momentum point ``m`` (from ``x`` on a restart), one prox.
    ``I - gram/L`` has its spectrum in ``[0, 1]`` and the prox is firmly
    nonexpansive, so ``T`` is nonexpansive and

        ``||z - T(z)|| = ||T(m) - T(z)|| <= ||m - z||``.

    Only when ``||m - z|| <= tol`` does one more prox, at ``z``, compute
    the true residual; if rounding leaves it above ``tol``, iteration goes
    on and that step ``T(z)`` serves a restart from ``z``.  The restart
    (when the momentum step raises the objective) takes the descent step
    ``T(x)``, reusing it when known.  The objective adds the smooth part
    to the value the prox returns; ``g`` itself is evaluated only at the
    start point.

    At the first iteration whose step moves the iterate by at most
    ``NEWTON_SWITCH``, one prox at ``z`` gives its true residual and, unless
    that passes, one Newton attempt starts from ``z``:
    each step solves ``(I - J(w) (I - step gram)) d = -(y - T(y))``
    (:func:`newton_matrix`), with ``J`` the prox Jacobian at the forward
    step ``w`` of ``y``.  The prox that gave ``T(y)`` also returns a
    builder for ``J`` from its own factorization, so a step costs one
    Jacobian build, one linear solve and one prox, and no Jacobian is
    built at the point the attempt ends on.  The attempt ends at the
    first ``y`` whose true residual is at most ``tol``.  It returns the
    prox point ``p = T(y)``, not ``y``: ``y`` can sit a rounding error off
    a zero block whose dual has unit norm, where no subgradient exists.
    ``p`` is kept if its objective, with the fit taken as a sum of squares
    and ``g(p)`` as the prox returned it, exceeds ``z``'s by at most
    ``4 * spacing(|f(z)|)``, so that rounding alone cannot reject it; one
    more prox then gives ``p``'s true residual, which nonexpansiveness
    bounds by ``y``'s (should rounding leave it above ``tol``, FISTA
    restarts from ``p``).  A kept attempt of ``s`` steps thus factors
    ``s + 2`` points.  The objective is coercive, so the guard keeps the
    point in a bounded sublevel set: a near-singular system can throw a
    step 1e15 or more away, where the forward step and the shrink both round to
    the point itself and the residual reads 0.  A singular system, a
    non-finite step, a failed check or ``NEWTON_STEPS`` steps without
    reaching ``tol`` throw the attempt away, and FISTA goes on from ``z``.
    There is one attempt per solve.  ``iterations`` counts FISTA
    iterations and Newton steps, ``newton_steps`` the latter, and
    ``max_iter`` caps the sum.

    ``fixed_point_residual`` is the true residual at the returned ``x``,
    also when ``max_iter`` ends the solve.  Never raises on slow
    convergence; the result's ``converged`` flag and final residual tell
    the story.
    """
    n = problem.n
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if v.shape != (n,) or x.shape != (n,):
        raise ValueError("tilt and start must match the problem dimension")
    reg = problem.reg
    gram = problem.gram
    # Combined linear term: grad of the smooth tilted part is gram @ x - lin.
    lin = problem.phi_tb + v
    const = float(problem.b @ problem.b) / (2.0 * problem.mu)
    step = problem.step

    # Both take ``gz = gram @ z``, which the loop carries for every point.
    def smooth(z: np.ndarray, gz: np.ndarray) -> float:
        return 0.5 * float(z @ gz) - float(lin @ z) + const

    def pg_step(z: np.ndarray, gz: np.ndarray):
        """``(T(z), g(T(z)), jacobian)``, the last building the prox
        Jacobian at the forward step of ``z``."""
        return reg.prox(z - step * (gz - lin), step)

    def polish(z, fz, py, budget):
        """One Newton attempt from ``z``, whose ``pg_step`` is ``py``.

        Returns the steps taken and, when the guard accepts the prox point
        ``p = T(y)`` of the last Newton iterate ``y``,
        ``(p, gram @ p, objective, pg_step(p), residual)``; else ``None``.
        """
        y = z
        for steps in range(1, budget + 1):
            ty, _, jacobian = py
            try:
                d = np.linalg.solve(newton_matrix(problem, jacobian()), ty - y)
            except np.linalg.LinAlgError:
                return steps, None
            if not np.isfinite(d).all():
                return steps, None
            y = y + d
            py = pg_step(y, gram @ y)
            if float(np.linalg.norm(y - py[0])) <= tol:
                # T(y), not y: y can sit a rounding error off a zero block
                # whose dual has unit norm, which is no solution at all.
                # The fit as a sum of squares: at a far-off point the smooth
                # formula's 0.5 p^T gram p - lin^T p cancels into garbage.
                p, gp, _ = py
                fit = problem.phi @ p - problem.b
                fp = float(fit @ fit) / (2.0 * problem.mu) - float(v @ p) + gp
                if fp > fz + 4.0 * np.spacing(abs(fz)):
                    return steps, None
                gram_p = gram @ p
                pp = pg_step(p, gram_p)
                return steps, (p, gram_p, fp, pp, float(np.linalg.norm(p - pp[0])))
        return budget, None

    gx = gram @ x
    fx = smooth(x, gx) + reg.value(x)
    # px is T(x) when known: at the start, and after a confirmation at x.
    px = pg_step(x, gx)
    residual = float(np.linalg.norm(x - px[0]))
    converged = residual <= tol
    momentum, gm = x, gx
    tk = 1.0
    iterations = newton_steps = 0
    while not converged and iterations < max_iter:
        # After the start or a restart the momentum point is x itself, whose
        # step may be known.
        base = momentum
        z, gval, _ = px if momentum is x and px is not None else pg_step(momentum, gm)
        gz = gram @ z
        fz = smooth(z, gz) + gval
        if fz > fx:
            # Momentum overshot: restart from the plain descent step, which
            # cannot increase the objective at step 1/L.  From x, z is it.
            tk = 1.0
            if base is not x:
                base = x
                z, gval, _ = px if px is not None else pg_step(x, gx)
                gz = gram @ z
                fz = smooth(z, gz) + gval
        iterations += 1
        px = None
        moved = float(np.linalg.norm(base - z))
        # One attempt per solve, and each attempt takes at least one step.
        newton_due = not newton_steps and moved <= NEWTON_SWITCH and iterations < max_iter
        if moved <= tol or newton_due:
            px = pg_step(z, gz)
            residual = float(np.linalg.norm(z - px[0]))
            converged = residual <= tol
            if newton_due and not converged:
                budget = min(NEWTON_STEPS, max_iter - iterations)
                steps, polished = polish(z, fz, px, budget)
                iterations += steps
                newton_steps += steps
                if polished is not None:
                    # T is nonexpansive, so only rounding can leave the
                    # residual above tol; then FISTA restarts from x.
                    x, gx, fx, px, residual = polished
                    converged = residual <= tol
                    momentum, gm, tk = x, gx, 1.0
                    continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / t_next
        if beta == 0.0:  # at the start and after a restart
            momentum, gm = z, gz
        else:
            # gram @ momentum by linearity: one matrix product per iteration.
            momentum = z + beta * (z - x)
            gm = gz + beta * (gz - gx)
        x, gx, fx, tk = z, gz, fz, t_next
    if px is None:
        px = pg_step(x, gx)
        residual = float(np.linalg.norm(x - px[0]))
        converged = residual <= tol
    return SolveResult(
        x=x,
        y=dual_from_solution(problem, x),
        iterations=iterations,
        newton_steps=newton_steps,
        fixed_point_residual=residual,
        objective=fx,
        converged=converged,
    )


def multistart_solve(
    problem: ProblemSpec,
    starts,
    v: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SolveResult]:
    """Solve once per start point, results in start order."""
    return [
        prox_gradient_solve(problem, v=v, tol=tol, max_iter=max_iter, x0=x0)
        for x0 in starts
    ]


def solution_spread(results) -> float:
    """Largest pairwise distance among returned solutions."""
    xs = [np.asarray(r.x, dtype=float) for r in results]
    best = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            best = max(best, float(np.linalg.norm(xs[i] - xs[j])))
    return best
