"""Accelerated proximal-gradient solver for regularized least squares.

Problems have the form

    minimize over x:   (1 / (2 mu)) ||phi @ x - b||^2  +  g(x)  -  <v, x>

where ``g`` is either the group norm or the nuclear norm of the row-major
reshape of ``x``, and ``v`` is an optional linear tilt used by the
stability probes.  The solver is FISTA with a fixed step ``1/L``,
``L = sigma_max(phi)^2 / mu``, and a function-value restart that keeps the
reported objective nonincreasing.  Termination is on the fixed-point
residual ``||x - T(x)||`` of the forward-backward map
``T = prox_{g/L} o (I - grad/L)``.  Each iteration takes one prox and two
products with ``gram`` (``gram @ m`` at the momentum point, ``gram @ z``
at the new iterate for the objective); the prox also returns ``g`` at its
point, so the objective needs no separate norm evaluation.  ``T`` is
nonexpansive at step ``1/L``, so ``||m - T(m)||`` bounds the residual at
``T(m)``; once that bound is below the tolerance, one more prox confirms
the true residual.

Once FISTA has identified the active blocks or rank, it only polishes a
smooth problem, which Newton does in a step or two.  The regularizer's one
``prox`` returns, with each point, the generalized Jacobian of the prox
there as a map on directions, from the same factorization; the solver
applies it only when one more step needs it.  The solver makes its first
attempt of at most ``NEWTON_STEPS`` semismooth Newton steps on
``z - T(z)`` at the first iteration whose step moves the iterate by at
most ``NEWTON_SWITCH_FIRST``.  The attempt starts where that iteration's
step did, at the momentum point (at the previous iterate after a
restart), from the prox the step already took there.  Once a Newton
point's true residual is below the tolerance, its prox point is kept if
its objective exceeds that of the step's new iterate by at most 4 ulps;
otherwise FISTA goes on as if the attempt had not been made, and a second
attempt comes at the next step of at most ``NEWTON_SWITCH``.  ``max_iter``
caps FISTA iterations and Newton steps together.
Hitting the cap sets a flag on the result instead of raising, and so does
a non-finite objective, which ends the solve at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ProblemFormatError
from .groupnorm import GroupPartition
from .nuclear import NuclearShape

Regularizer = GroupPartition | NuclearShape

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# FISTA first hands over to Newton once a step moves the iterate by at most
# NEWTON_SWITCH_FIRST, and after a thrown-away first attempt once a step
# moves it by at most NEWTON_SWITCH; each Newton attempt takes at most
# NEWTON_STEPS steps.
NEWTON_SWITCH_FIRST = 1e-2
NEWTON_SWITCH = 1e-3
NEWTON_STEPS = 5
# A Newton step longer than NEWTON_STEP_GAIN times the residual it corrects
# comes from a numerically singular system; it ends its attempt.
NEWTON_STEP_GAIN = 1.0 / math.sqrt(np.finfo(float).eps)

# The types of real numbers; bool, a subclass of int, is not one.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _is_row(values) -> bool:
    return isinstance(values, (list, tuple)) or bool(getattr(values, "ndim", 0))


def _rows(values, ndim: int) -> list:
    """``values`` as rows of entries; a number where a row belongs is a row of one."""
    if ndim == 0 or not _is_row(values):
        return [[values]]
    return [values] if ndim == 1 else [r for row in values for r in _rows(row, 1)]


def real_array(values, what: str, ndim: int = 0):
    """``values`` as a float array of ``ndim`` levels, or a float at ``ndim``
    0: the number rule of an instance and of a problem file's real options.

    A real-typed ndarray takes one conversion and one ``np.isfinite``; other
    values have their entry types gathered row by row before one conversion.
    A matrix (``ndim`` 2, which only ``phi`` is) owns its shape here: before
    any entry is read, rows mixed with numbers raise ``BAD_TYPE`` ``phi must
    be a matrix``, and rows that are empty or of unequal length raise
    ``DIMENSION_MISMATCH`` ``phi rows must be non-empty and equally long``.
    Then the first bad entry in row-major order raises ``BAD_TYPE``
    ``<what> must be a number`` for a string, ``None``, a container, a
    complex or a bool (Python or numpy), and ``NOT_FINITE`` ``<what> must be
    finite`` for NaN, an infinity or an integer beyond the float range.
    Last, numbers that are no 2-D matrix raise ``phi must be a matrix``.
    """
    arr, rows = None, ()
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu" and (ndim or not values.ndim):
        arr = values.astype(float, copy=False)
    else:
        if ndim == 2 and _is_row(values):
            widths = {len(row) if _is_row(row) else None for row in values}
            if None in widths and len(widths) > 1:
                raise ProblemFormatError("BAD_TYPE", "phi must be a matrix")
            if len(widths) > 1 or 0 in widths:
                msg = "phi rows must be non-empty and equally long"
                raise ProblemFormatError("DIMENSION_MISMATCH", msg)
        rows = _rows(values, ndim)
        types = set().union(*(map(type, row) for row in rows))
        bad = {t for t in types if issubclass(t, bool) or not issubclass(t, _REAL_TYPES)}
        if not bad:
            try:
                arr = np.array(values, dtype=float)
            except OverflowError:  # an integer beyond the float range
                pass
    if arr is not None and (np.isfinite(arr).all() if ndim else math.isfinite(arr)):
        if ndim == 2 and arr.ndim != 2:
            raise ProblemFormatError("BAD_TYPE", "phi must be a matrix")
        return arr if ndim else float(arr)
    for v in (v for row in rows for v in row):
        if type(v) in bad:
            raise ProblemFormatError("BAD_TYPE", f"{what} must be a number")
        try:
            if not math.isfinite(v):
                break
        except OverflowError:
            break
    raise ProblemFormatError("NOT_FINITE", f"{what} must be finite")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A regularized least-squares instance.

    ``phi`` is m x n with n matching the regularizer dimension (for nuclear
    problems, n = n1 * n2 and unknowns are row-major vectorizations).
    ``phi``, ``b`` and ``mu`` go through :func:`real_array`.  A broken rule
    raises the coded :class:`ProblemFormatError` that the command line prints.
    The operator quantities below are computed on first use and kept.
    """

    phi: np.ndarray
    b: np.ndarray
    mu: float
    reg: Regularizer

    def __post_init__(self):
        phi = real_array(self.phi, "phi entry", 2)
        b = real_array(self.b, "b entry", 1)
        mu = real_array(self.mu, "mu")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", mu)
        m, n = phi.shape
        if b.shape != (m,):
            size = f"{len(b)} entries" if b.ndim == 1 else f"shape {b.shape}"
            raise ProblemFormatError("DIMENSION_MISMATCH", f"b has {size}, phi has {m} rows")
        if mu <= 0:
            raise ProblemFormatError("MU_NONPOSITIVE", f"mu must be positive, got {mu}")
        if self.reg.n != n:
            msg = f"regularizer dimension {self.reg.n} does not match phi columns {n}"
            raise ProblemFormatError("DIMENSION_MISMATCH", msg)

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
        """``phi^T phi``, independent of ``b`` and ``mu``; read-only."""
        return _read_only(self.phi.T @ self.phi)

    @cached_property
    def gram(self) -> np.ndarray:
        """``phi^T phi / mu``, the Hessian of the fit term; read-only."""
        return _read_only(self.phi_t_phi / self.mu)

    @cached_property
    def phi_tb(self) -> np.ndarray:
        """``phi^T b / mu``, the linear part of the fit gradient."""
        return self.phi.T @ self.b / self.mu

    @cached_property
    def objective_const(self) -> float:
        """``||b||^2 / (2 mu)``, the constant of the objective."""
        return float(self.b @ self.b) / (2.0 * self.mu)

    @cached_property
    def identity(self) -> np.ndarray:
        """The ``(n, n)`` identity; read-only."""
        return _read_only(np.eye(self.n))

    @cached_property
    def newton_forward_t(self) -> np.ndarray:
        """``(I - step gram)^T``, the Jacobian of the forward step
        transposed: the rows :func:`newton_matrix` hands to the prox
        derivative.  A read-only view."""
        return _read_only(self.identity - self.step * self.gram).T

    def with_data(self, b: np.ndarray, mu: float) -> "ProblemSpec":
        """The same operator and regularizer with new ``(b, mu)``.

        The new instance starts with this one's ``sigma_max``,
        ``phi_t_phi`` and ``identity``, so it factors ``phi`` no more.  At
        the same ``mu`` it also shares ``gram``, ``step`` and
        ``newton_forward_t``, the very objects of this instance.
        """
        spec = ProblemSpec(self.phi, b, mu, self.reg)
        shared = ("sigma_max", "phi_t_phi", "identity")
        if spec.mu == self.mu:
            shared += ("gram", "step", "newton_forward_t")
        spec.__dict__.update((name, getattr(self, name)) for name in shared)
        return spec


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: instances that share it cannot write to it."""
    a.flags.writeable = False
    return a


@dataclass
class SolveResult:
    """Solver output.  ``y = -(1/mu) phi^T (phi x - b)`` excludes any tilt;
    ``objective`` is the value of the solved (possibly tilted) objective.
    ``iterations`` counts FISTA iterations and Newton steps together;
    ``newton_steps`` counts the Newton steps, whether or not their point
    was kept.  The fields are the report's ``solve`` section, in this
    order."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    newton_steps: int
    fixed_point_residual: float
    objective: float
    converged: bool


def _norm(d: np.ndarray) -> float:
    """``||d||`` for a vector, the bits of ``np.linalg.norm(d)``, which
    computes ``sqrt(d . d)`` too, without its overhead."""
    return math.sqrt(float(d @ d))


def objective(problem: ProblemSpec, x: np.ndarray) -> float:
    """Untilted objective value at ``x``."""
    x = np.asarray(x, dtype=float)
    resid = problem.phi @ x - problem.b
    return float(resid @ resid) / (2.0 * problem.mu) + problem.reg.value(x)


def dual_from_solution(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Negative gradient of the fit term; the candidate subgradient at ``x``."""
    x = np.asarray(x, dtype=float)
    return -(problem.phi.T @ (problem.phi @ x - problem.b)) / problem.mu


def newton_matrix(problem: ProblemSpec, derivative, rows: np.ndarray | None = None):
    """``(I - J A, J rows^T)`` from one application of ``derivative``, the
    prox's map ``h -> J h`` on the rows of a stack, to ``A^T`` stacked on
    the ``(k, n)`` ``rows`` (``k`` may be 0, which gives an ``(n, 0)``
    second item).  ``J`` is the prox Jacobian at the forward step of ``z``
    and ``A = I - step gram`` that of the forward step
    ``z -> z - step (gram z - phi^T b / mu)``, so ``I - J A``, with no
    symmetry assumed, is the Jacobian of ``z - T(z)``: the solver's Newton
    steps solve with it.  ``A^T`` and ``I`` are the problem's cached
    ``newton_forward_t`` and ``identity``.  A Newton step passes no rows
    (``rows=None``): ``A^T`` then goes to ``derivative`` as it is, with no
    stacking, and the second item is ``None``.  At a solution, with
    ``rows = [phi; grad]``, it defines the solution map's derivative (see
    :func:`stabcert.stability.empirical_lipschitz`).
    """
    forward_t = problem.newton_forward_t
    if rows is None:
        return problem.identity - derivative(forward_t).T, None
    applied = derivative(np.concatenate((forward_t, rows))).T
    n = problem.n
    return problem.identity - applied[:, :n], applied[:, n:]


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
    at most ``tol`` and the objective is finite.  A non-finite fit at the
    start (``||b||^2`` overflows) ends the solve there, and a non-finite
    objective at an iterate (a huge tilt), after the restart that an
    objective of ``+inf`` triggers, ends the solve at that iterate.
    Either way ``converged`` is false.

    Each iteration takes the new iterate ``z = T(m)`` from the momentum
    point ``m`` (from ``x`` on a restart): one prox, ``gram @ m`` for the
    step and ``gram @ z`` for the objective.
    ``I - gram/L`` has its spectrum in ``[0, 1]`` and the prox is firmly
    nonexpansive, so ``T`` is nonexpansive and

        ``||z - T(z)|| = ||T(m) - T(z)|| <= ||m - z||``.

    Only when ``||m - z|| <= tol`` does one more prox, at ``z``, compute
    the true residual, and no Newton attempt is made at that step; if
    rounding leaves it above ``tol``, iteration goes on and that step
    ``T(z)`` serves a restart from ``z``.  The restart
    (when the momentum step raises the objective) takes the descent step
    ``T(x)``, reusing it when known.  The objective adds the smooth part
    to the value the prox returns; ``g`` itself is evaluated only at a
    start (default 0) that the solve returns.  The first step, from the
    start with ``tk = 1``, cannot restart on the start's objective, so the
    loop carries the start's smooth part alone.

    At the first iteration whose step moves the iterate by at most
    ``NEWTON_SWITCH_FIRST``, a Newton attempt starts from that step's own
    start point ``m`` (the momentum point, or ``x`` after a restart), whose
    prox the step already took and whose residual is ``||m - z||``.  Each
    step solves
    ``(I - J(w) (I - step gram)) d = -(y - T(y))``
    (:func:`newton_matrix`), with ``J`` the prox Jacobian at the forward
    step ``w`` of ``y``.  The prox that gave ``T(y)`` also returns ``J``
    as a map on directions, from its own factorization, so a step costs
    one application of it to the ``n`` columns of ``I - step gram``
    (``newton_matrix(problem, derivative)``, on the problem's cached
    ``newton_forward_t``), one linear solve and one prox, and ``J`` is not
    applied at the point the attempt ends on.  The attempt ends at the
    first ``y`` whose true residual is at most ``tol``.  It returns the
    prox point ``p = T(y)``, not ``y``: ``y`` can sit a rounding error off
    a zero block whose dual has unit norm, where no subgradient exists.
    ``p`` is kept if its objective, with the fit taken as a sum of squares
    and ``g(p)`` as the prox returned it, exceeds that of the accepted
    iterate ``z = T(m)`` by at most ``4 * spacing(|f(z)|)``, so that
    rounding alone cannot reject it; ``f(z)`` is at most ``f(m)`` at step
    ``1/L``.  One more prox then gives ``p``'s true residual, which
    nonexpansiveness bounds by ``y``'s (should rounding leave it above
    ``tol``, FISTA restarts from ``p``).  A kept attempt of ``s`` steps
    thus factors ``s + 1`` points.  The objective is coercive, so the
    guard keeps the point in a bounded sublevel set: a near-singular
    system can throw a step 1e15 or more away, where the forward step and
    the shrink both round to the point itself and the residual reads 0.
    Such a system is caught sooner: a step ``d`` longer than
    ``NEWTON_STEP_GAIN = 1/sqrt(eps)`` times the residual ``T(y) - y`` it
    corrects ends the attempt before its prox.  A singular system, such an
    overlong or non-finite step, a failed check or ``NEWTON_STEPS`` steps
    without reaching ``tol`` throw the attempt away, and FISTA goes on
    from ``z`` with its iterates unchanged.  A thrown-away first attempt
    leaves the solve one more, at the next iteration whose step moves the
    iterate by at most ``NEWTON_SWITCH``; there are at most two per solve.
    ``iterations`` counts FISTA iterations and Newton steps,
    ``newton_steps`` the latter, and ``max_iter`` caps the sum.

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
    const = problem.objective_const
    step = problem.step

    # Both take ``gz = gram @ z``, which the loop carries for every point.
    def smooth(z: np.ndarray, gz: np.ndarray) -> float:
        return 0.5 * float(z @ gz) - float(lin @ z) + const

    def pg_step(z: np.ndarray, gz: np.ndarray):
        """``(T(z), g(T(z)), derivative)``: ``derivative`` applies the prox
        Jacobian at the forward step of ``z`` to a stack of directions."""
        return reg.prox(z - step * (gz - lin), step)

    def confirm(z: np.ndarray, gz: np.ndarray):
        """``(pg_step(z), ||z - T(z)||)``: the step and true residual at ``z``."""
        pz = pg_step(z, gz)
        return pz, _norm(z - pz[0])

    def polish(y, fz, py, ry, budget):
        """One Newton attempt from ``y``, whose ``pg_step`` is ``py`` and
        whose residual is ``ry``; ``fz`` is the objective to beat.

        Returns the steps taken and, when the guard accepts the prox point
        ``p = T(y)`` of the last Newton iterate ``y``,
        ``(p, gram @ p, objective, pg_step(p), residual)``; else ``None``.
        """
        for steps in range(1, budget + 1):
            ty, _, derivative = py
            try:
                jac, _ = newton_matrix(problem, derivative)
                d = np.linalg.solve(jac, ty - y)
            except np.linalg.LinAlgError:
                return steps, None
            nd = _norm(d)
            if not (math.isfinite(nd) and nd <= NEWTON_STEP_GAIN * ry):
                return steps, None
            y = y + d
            py, ry = confirm(y, gram @ y)
            if ry <= tol:
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
                return steps, (p, gram_p, fp, *confirm(p, gram_p))
        return budget, None

    gx = gram @ x
    # Without g(x), which the first step's restart test cannot act on.
    fx = smooth(x, gx)
    # px is T(x) when known: at the start, after a confirmation at x and
    # after a kept Newton attempt.
    px, residual = confirm(x, gx)
    momentum = x
    tk = 1.0
    iterations = newton_steps = 0
    # The longest step that hands over to Newton: -inf once no attempt is left.
    switch = NEWTON_SWITCH_FIRST
    # A non-finite objective (overflowing data or iterates) ends the solve.
    while not residual <= tol and iterations < max_iter and math.isfinite(fx):
        # After the start or a kept attempt the momentum point is x itself,
        # whose step is known.  pb is the step from base, which an attempt
        # starts on.
        base = momentum
        pb = px if base is x and px is not None else pg_step(base, gram @ base)
        z, gval, _ = pb
        gz = gram @ z
        fz = smooth(z, gz) + gval
        if fz > fx:
            # Momentum overshot: restart from the plain descent step, which
            # cannot increase the objective at step 1/L.  From x, z is it.
            tk = 1.0
            if base is not x:
                base = x
                pb = px if px is not None else pg_step(x, gx)
                z, gval, _ = pb
                gz = gram @ z
                fz = smooth(z, gz) + gval
        iterations += 1
        px = None
        if not math.isfinite(fz):
            x, gx, fx = z, gz, fz
            break
        moved = _norm(base - z)
        if moved <= tol:
            # The pure-FISTA finish: one prox confirms the true residual.
            px, residual = confirm(z, gz)
        elif moved <= switch and iterations < max_iter:
            # From base, on the prox pb this step took there, with residual
            # moved; the guard compares against z = T(base).
            budget = min(NEWTON_STEPS, max_iter - iterations)
            steps, polished = polish(base, fz, pb, moved, budget)
            iterations += steps
            newton_steps += steps
            # A second attempt only after a thrown-away first.
            first = switch == NEWTON_SWITCH_FIRST
            switch = NEWTON_SWITCH if polished is None and first else -math.inf
            if polished is not None:
                # T is nonexpansive, so only rounding can leave the
                # residual above tol; then FISTA restarts from x.
                x, gx, fx, px, residual = polished
                momentum, tk = x, 1.0
                continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        momentum = z + ((tk - 1.0) / t_next) * (z - x)
        x, gx, fx, tk = z, gz, fz, t_next
    if px is None:
        _, residual = confirm(x, gx)
    if iterations == 0:
        fx += reg.value(x)
    return SolveResult(
        x=x,
        y=dual_from_solution(problem, x),
        iterations=iterations,
        newton_steps=newton_steps,
        fixed_point_residual=residual,
        objective=fx,
        converged=residual <= tol and math.isfinite(fx),
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
