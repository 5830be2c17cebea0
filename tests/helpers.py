"""Shared generators and independent oracles for the test suite."""

import json
import math
from typing import NamedTuple

import numpy as np

from stabcert.errors import NotASolutionError
from stabcert.groupnorm import (
    GroupAnalysis,
    GroupPartition,
    block_norms,
    classify_groups,
    subgrad_residual,
)
from stabcert.linalg import UNIT_TOL
from stabcert.nuclear import NuclearShape, nuclear_norm
from stabcert.solver import ProblemSpec
from stabcert.stability import _largest_pair_ratio


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_partition(rng, n):
    sizes = []
    left = n
    while left:
        s = int(rng.integers(1, min(3, left) + 1))
        sizes.append(s)
        left -= s
    perm = rng.permutation(n)
    groups, pos = [], 0
    for s in sizes:
        groups.append(tuple(int(i) for i in perm[pos : pos + s]))
        pos += s
    return GroupPartition(n, tuple(groups))


def random_group_graph_pair(rng, partition, p_active=0.5, p_boundary=0.3):
    """Exact point of the group-norm subdifferential graph."""
    n = partition.n
    x = np.zeros(n)
    y = np.zeros(n)
    for idx in partition.index_arrays:
        u = rng.standard_normal(len(idx))
        nu = np.linalg.norm(u)
        if nu == 0:
            u[0], nu = 1.0, 1.0
        u = u / nu
        if rng.random() < p_active:
            x[idx] = rng.uniform(0.2, 2.0) * u
            y[idx] = u
        else:
            s = 1.0 if rng.random() < p_boundary else rng.uniform(0.0, 0.97)
            y[idx] = s * u
    return x, y


def random_nuclear_graph_pair(rng, n1, n2, r=None, extra_unit=None):
    """Exact point of the nuclear-norm subdifferential graph."""
    k = min(n1, n2)
    u = random_orthogonal(rng, n1)
    v = random_orthogonal(rng, n2)
    if r is None:
        r = int(rng.integers(0, k + 1))
    if extra_unit is None:
        extra_unit = int(rng.integers(0, k - r + 1))
    p = r + extra_unit
    sig = np.sort(rng.uniform(0.3, 3.0, r))[::-1]
    lam = np.sort(rng.uniform(0.0, 0.95, k - p))[::-1]
    x = (u[:, :r] * sig) @ v[:, :r].T if r else np.zeros((n1, n2))
    dy = np.concatenate([np.ones(p), lam])
    y = (u[:, :k] * dy) @ v[:, :k].T
    return x, y


def tangent_subspace_basis_loop(dec):
    """``nuclear.tangent_subspace_basis`` one ``np.outer`` per column: the
    diagonal images ``u_i v_i^T``, then ``(u_i v_j^T + u_j v_i^T) / sqrt(2)``
    for ``i < j`` in row-major order."""
    p = dec.p
    if p == 0:
        return np.zeros((dec.n1 * dec.n2, 0))
    u1 = dec.ubar[:, :p]
    v1 = dec.vbar[:, :p]
    cols = [np.outer(u1[:, i], v1[:, i]).ravel() for i in range(p)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(p):
        for j in range(i + 1, p):
            m = (np.outer(u1[:, i], v1[:, j]) + np.outer(u1[:, j], v1[:, i])) * inv_sqrt2
            cols.append(m.ravel())
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# independent distance oracles


def group_ray_distance_oracle(x, ybar, partition, iters=600):
    """Projected-gradient projection onto the product of dual rays and origins.

    Deliberately iterative: minimizes ||x_J - t y_J||^2 over t >= 0 by
    projected gradient instead of using any closed form.
    """
    total = 0.0
    for idx in partition.index_arrays:
        xj = np.asarray(x, dtype=float)[idx]
        yj = np.asarray(ybar, dtype=float)[idx]
        ny = float(np.linalg.norm(yj))
        if ny >= 1.0 - 1e-7:
            lip = ny * ny
            t = 0.0
            for _ in range(iters):
                grad = t * lip - float(xj @ yj)
                t = max(t - 0.9 * grad / lip, 0.0)
            total += float(np.sum((xj - t * yj) ** 2))
        else:
            total += float(xj @ xj)
    return float(np.sqrt(total))


def nuclear_cone_distance_oracle(x, dec, iters=400):
    """Projected-gradient projection onto { U1 Z V1^T : Z psd }.

    Works in the full matrix space with its own local psd clamp, so it is
    independent of the block-splitting formula under test.
    """
    p = dec.p
    x = np.asarray(x, dtype=float)
    if p == 0:
        return float(np.linalg.norm(x))
    u1 = dec.ubar[:, :p]
    v1 = dec.vbar[:, :p]

    def clamp(a):
        a = (a + a.T) / 2.0
        w, q = np.linalg.eigh(a)
        return (q * np.maximum(w, 0.0)) @ q.T

    target = u1.T @ x @ v1
    sym_target = (target + target.T) / 2.0
    z = np.zeros((p, p))
    for _ in range(iters):
        z = clamp(z - 0.3 * 2.0 * (z - sym_target))
    return float(np.linalg.norm(x - u1 @ z @ v1.T))


# ---------------------------------------------------------------------------
# instance generators


def random_group_instance(rng, n_max=8, m_max=6):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    part = random_partition(rng, n)
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    b = rng.standard_normal(m) * float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(0.3, 1.5))
    return ProblemSpec(phi, b, mu, part)


def random_nuclear_instance(rng, dim_max=3):
    n1 = int(rng.integers(2, dim_max + 1))
    n2 = int(rng.integers(2, dim_max + 1))
    m = int(rng.integers(2, n1 * n2 + 2))
    phi = rng.standard_normal((m, n1 * n2)) / np.sqrt(m)
    b = rng.standard_normal(m)
    mu = float(rng.uniform(0.3, 1.0))
    return ProblemSpec(phi, b, mu, NuclearShape(n1, n2))


def degenerate_group_instance(rng, n=None):
    """All-equal columns under separate absolute-value blocks.

    The fit only sees the coordinate sum, so the minimizers form a segment
    of the simplex: non-unique by construction, every block on the dual
    boundary.
    """
    n = int(rng.integers(2, 5)) if n is None else n
    m = int(rng.integers(1, 4))
    col = rng.standard_normal(m)
    col /= np.linalg.norm(col)
    phi = np.column_stack([col] * n)
    mu = float(rng.uniform(0.5, 1.5))
    scale = float(rng.uniform(1.5, 3.0))
    b = scale * mu * col
    spec = ProblemSpec(phi, b, mu, GroupPartition.singletons(n))
    # interior solution: total mass mu*(scale-1) split evenly
    xbar = np.full(n, mu * (scale - 1.0) / n)
    return spec, xbar


def degenerate_nuclear_instance(rng, n=2):
    """Design operator blind to a traceless direction of the dual unit block.

    The minimizers form a segment X + t M with M in the kernel, so the
    certificate margin is zero and multistart scatters along the segment.
    """
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    s = np.zeros((n, n))
    s[0, 0], s[1, 1] = 1.0, -1.0
    m_dir = (u @ s @ v.T).ravel() / np.sqrt(2.0)
    basis = np.linalg.qr(
        np.column_stack([m_dir, rng.standard_normal((n * n, n * n - 1))])
    )[0]
    phi = basis[:, 1:].T  # orthonormal rows spanning the complement of m_dir
    mu = float(rng.uniform(0.5, 1.5))
    diag = rng.uniform(0.5, 2.0, n)
    xbar = u @ np.diag(diag) @ v.T
    ybar = u @ v.T
    b = phi @ xbar.ravel() + mu * (phi @ ybar.ravel())
    spec = ProblemSpec(phi, b, mu, NuclearShape(n, n))
    return spec, xbar


# ---------------------------------------------------------------------------
# reference loops: the per-block, per-sample and per-iteration code that the
# batched kernels, the batched audit and the solver's reuse replaced, kept
# as oracles for them


def block_norms_loop(x, partition):
    x = np.asarray(x, dtype=float)
    return np.array([float(np.linalg.norm(x[idx])) for idx in partition.index_arrays])


def group_norm_loop(x, partition):
    return float(block_norms_loop(x, partition).sum())


def prox_group_loop(x, t, partition):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for idx in partition.index_arrays:
        xj = x[idx]
        nx = float(np.linalg.norm(xj))
        if nx > t:
            out[idx] = xj * (1.0 - t / nx)
    return out


def subgrad_residual_loop(x, y, partition):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for idx in partition.index_arrays:
        xj = x[idx]
        yj = y[idx]
        nx = float(np.linalg.norm(xj))
        if nx > 0.0:
            d = float(np.linalg.norm(yj - xj / nx))
        else:
            d = max(float(np.linalg.norm(yj)) - 1.0, 0.0)
        total += d * d
    return float(np.sqrt(total))


def classify_groups_twice(x, y, partition, tol=1e-7):
    """``classify_groups`` as it was: the residual takes the block norms of
    both vectors, which are then taken again, and ``set(K)`` is rebuilt for
    every block."""
    res = subgrad_residual(x, y, partition)
    if not res <= tol:
        raise NotASolutionError(res, tol)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_norms = block_norms(y, partition)
    x_norms = block_norms(x, partition)
    K = tuple(j for j, nj in enumerate(y_norms) if nj >= 1.0 - tol)
    H = tuple(j for j in range(len(partition.groups)) if j not in set(K))
    I = tuple(j for j, nj in enumerate(x_norms) if nj > tol)
    gamma = max((float(y_norms[j]) for j in H), default=0.0)
    return GroupAnalysis(K, H, I, gamma, y_norms, res, x.copy(), y.copy(), partition)


def zero_ref(ybar, partition):
    """The classification of ``(0, ybar)``, a ``ref`` for the distance to the
    inverse image of ``ybar``; ``ybar`` is a subgradient at 0 when no block
    of it has norm above 1."""
    return classify_groups(np.zeros(partition.n), ybar, partition)


def group_distance_loop(x, ybar, partition, tol=1e-7):
    x = np.asarray(x, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    total = 0.0
    for idx in partition.index_arrays:
        xj = x[idx]
        yj = ybar[idx]
        ny = float(np.linalg.norm(yj))
        if ny >= 1.0 - tol:
            t = max(float(xj @ yj), 0.0)
            d2 = max(float(xj @ xj) - t * t, 0.0)
        else:
            d2 = float(xj @ xj)
        total += d2
    return float(np.sqrt(total))


def group_snap_loop(partition, x, y, tol=1e-7):
    """The snap block by block: a primal block above ``tol`` gives the dual
    its direction, the others are zeroed and a nonzero dual block there of
    norm ``1 - tol`` or more is pinned to unit norm."""
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    for idx in partition.index_arrays:
        nx = float(np.linalg.norm(x[idx]))
        if nx > tol:
            y[idx] = x[idx] / nx
        else:
            x[idx] = 0.0
            ny = float(np.linalg.norm(y[idx]))
            if ny >= 1.0 - tol and ny > 0.0:
                y[idx] /= ny
    return x, y


def nuclear_norm_loop(x):
    return float(np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False).sum())


def nuclear_distance_loop(x, dec):
    x = np.asarray(x, dtype=float)
    xt = dec.ubar.T @ x @ dec.vbar
    p = dec.p
    x11 = xt[:p, :p]
    rest = xt.copy()
    rest[:p, :p] = 0.0
    off = float(np.sum(rest * rest))
    sym = (x11 + x11.T) / 2.0
    w, q = np.linalg.eigh(sym)
    proj = (q * np.maximum(w, 0.0)) @ q.T
    d2 = float(np.linalg.norm(x11 - proj) ** 2) + off
    return float(np.sqrt(max(d2, 0.0)))


def qg_audit_loop(reg, xbar, ybar, samples, radius, seed, include_conjecture=False):
    """The audit as a scan over the samples, one row at a time.

    Draws as ``qg_audit`` does and takes each row's scale and slacks from
    the regularizer, one row per call.  A constant turns NaN for good at
    its first slack that is not finite.  Returns ``(used,
    slack_by_constant, min_slack, conjecture_min_slack)``.
    """
    from stabcert.stability import AUDIT_NORM_FLOOR, _ball_samples

    rng = np.random.default_rng(seed)
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    ybar = np.asarray(ybar, dtype=float).reshape(-1)
    ref = reg.classify(xbar, ybar, UNIT_TOL)
    conjecture = reg.growth_conjecture if include_conjecture else None
    draws = xbar[None, :] + _ball_samples(rng, reg.n, samples, radius)
    mins = dict.fromkeys(reg.growth_names, math.inf)
    conj_min = math.inf
    used = 0
    for row in draws:
        scale = float(reg.growth_scale(row[None, :])[0])
        if scale <= AUDIT_NORM_FLOOR:
            continue
        used += 1
        batch = reg.growth_slacks(row[None, :], np.array([scale]), xbar, ybar, ref)
        slacks = {name: float(v[0]) for name, v in batch.items()}
        for name in mins:
            s = slacks[name]
            if not math.isfinite(s):
                mins[name] = math.nan
            elif s < mins[name]:
                mins[name] = s
        if conjecture and slacks[conjecture] < conj_min:
            conj_min = slacks[conjecture]
    if used == 0:
        return used, dict.fromkeys(mins, 0.0), 0.0, conj_min
    if any(math.isnan(v) for v in mins.values()):
        return used, mins, math.nan, conj_min
    return used, mins, min(mins.values()), conj_min


def fista_loop(problem, v=None, tol=1e-10, max_iter=200_000, x0=None, switch=None):
    """FISTA with function-value restart, recomputing every product and prox,
    evaluating the norm at every iterate and the true residual after every
    step.  With ``switch`` set, it also stops after the first step that moves
    the iterate by at most ``switch`` from the point it was taken at: with
    ``NEWTON_SWITCH_FIRST``, the iteration where the solver first hands over
    to Newton.

    Returns ``(x, iterations, residual, objective)``.
    """
    n = problem.n
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    reg = problem.reg
    gram = problem.gram
    lin = problem.phi_tb + v
    const = float(problem.b @ problem.b) / (2.0 * problem.mu)
    smax = problem.sigma_max
    lip = smax * smax / problem.mu
    if lip <= 0.0:
        lip = 1.0
    step = 1.0 / lip

    def fval(z):
        return 0.5 * float(z @ (gram @ z)) - float(lin @ z) + const + reg.value(z)

    def pg_step(z):
        return reg.prox(z - step * (gram @ z - lin), step)[0]

    momentum = x.copy()
    tk = 1.0
    fx = fval(x)
    residual = float(np.linalg.norm(x - pg_step(x)))
    iterations = 0
    while residual > tol and iterations < max_iter:
        base = momentum
        x_new = pg_step(momentum)
        f_new = fval(x_new)
        if f_new > fx:
            base = x
            x_new = pg_step(x)
            f_new = fval(x_new)
            tk = 1.0
        moved = float(np.linalg.norm(base - x_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        momentum = x_new + ((tk - 1.0) / t_next) * (x_new - x)
        x, fx, tk = x_new, f_new, t_next
        iterations += 1
        residual = float(np.linalg.norm(x - pg_step(x)))
        if switch is not None and moved <= switch:
            break
    return x, iterations, residual, fx


class CountingProx:
    """A regularizer that counts its prox, derivative and value calls, and
    records the rows of the stack each derivative call takes."""

    def __init__(self, reg):
        self.reg = reg
        self.prox_calls = 0
        self.derivative_calls = 0
        self.derivative_rows = []
        self.value_calls = 0

    def __getattr__(self, name):
        return getattr(self.reg, name)

    def prox(self, x, t):
        self.prox_calls += 1
        point, value, derivative = self.reg.prox(x, t)

        def counted(h):
            self.derivative_calls += 1
            self.derivative_rows.append(len(h))
            return derivative(h)

        return point, value, counted

    def value(self, x):
        self.value_calls += 1
        return self.reg.value(x)


# ---------------------------------------------------------------------------
# the writers and factorizations that faster code replaced, kept as oracles


def _write_json_loop(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        out.append(format(f, ".17g") if math.isfinite(f) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_json_loop(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write_json_loop(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical_loop(obj):
    """Canonical report JSON written one element at a time, recursively."""
    out = []
    _write_json_loop(obj, out)
    return "".join(out)


def group_v_basis_gram_schmidt(analysis):
    """A group classification's critical subspace by pivoted Gram-Schmidt."""
    from stabcert.linalg import orthonormalize

    n = analysis.partition.n
    cols = []
    for j in analysis.K:
        w = np.zeros(n)
        idx = analysis.partition.index_arrays[j]
        w[idx] = analysis.y[idx]
        cols.append(w)
    return orthonormalize(cols, dim=n)


def margin_and_witness_two_svds(phi, basis):
    """Certificate margin from the singular values alone, then the witness
    from a second, full SVD of ``phi @ basis``."""
    k = basis.shape[1]
    if k == 0:
        return math.inf, None
    margin = 0.0 if k > phi.shape[0] else float(np.linalg.svd(phi @ basis, compute_uv=False)[-1])
    _, _, vt = np.linalg.svd(phi @ basis)
    w = basis @ vt[-1]
    return margin, w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# the probes' pair statistics, one pair at a time: the reference for the
# row-at-a-time folds of the library


def nan_max(a, b):
    """``max(a, b)``, but NaN when either is NaN; ``max`` would keep ``a``
    against a NaN ``b``."""
    return a if a != a or b <= a else b


def solution_spread(results) -> float:
    """Largest pairwise distance among returned solutions, by the probes'
    row fold; NaN when any distance is NaN.  Overflowing distances warn as
    numpy arithmetic does."""
    return _largest_pair_ratio(np.array([r.x for r in results], dtype=float))


def solution_spread_loop(xs):
    """Largest ``||xs[i] - xs[j]||`` over the pairs ``i < j``; NaN when any
    distance is NaN."""
    best = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            d = xs[i] - xs[j]
            best = nan_max(best, math.sqrt(float(d @ d)))
    return best


def perturb_ratio_loop(xs, bs, mus):
    """Largest ``||xs[i] - xs[j]|| / ||(bs[i], mus[i]) - (bs[j], mus[j])||``
    over the pairs ``i < j`` whose data distance is not below ``1e-15``;
    NaN when a counted ratio is NaN."""
    best = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dp = math.hypot(float(np.linalg.norm(bs[i] - bs[j])), mus[i] - mus[j])
            if dp < 1e-15:
                continue
            best = nan_max(best, float(np.linalg.norm(xs[i] - xs[j])) / dp)
    return best


def tilt_ratio_loop(sols, x, tilts):
    """Largest ``||sols[k] - x|| / ||tilts[k]||`` over the tilts of norm
    above ``1e-15``; NaN when a counted ratio is NaN."""
    best = 0.0
    for v, sol in zip(tilts, sols):
        nv = float(np.linalg.norm(v))
        if nv > 1e-15:
            best = nan_max(best, float(np.linalg.norm(sol - x)) / nv)
    return best


def empirical_lipschitz_single_start(problem, x, radius_b, radius_mu, samples, seed):
    """``empirical_lipschitz`` at the solution ``x`` with one start: one
    solve per sample, and no draw of start points.  The start is the
    first-order prediction ``x + D [db; dmu]``, with ``D`` solved from the
    differentiated fixed point equation written out here, unless the
    prediction is not finite or the system for ``D`` is rank deficient or
    gives a non-finite ``D``; then it is ``x``.  Returns the report's fields
    ``(max_ratio, multivaluedness_spread, non_converged)``, the last over
    the sample solves."""
    from stabcert.solver import prox_gradient_solve
    from stabcert.stability import _ball_samples

    rng = np.random.default_rng(seed)
    # x = prox_{t g}(x - t grad), differentiated in (b, mu) at fixed t.
    t = problem.step
    grad = problem.gram @ x - problem.phi_tb
    jac = problem.reg.prox(x - t * grad, t)[2](np.eye(problem.n)).T
    eye = np.eye(problem.n)
    lhs = eye - jac @ (eye - t * problem.gram)
    rhs = (t / problem.mu) * (jac @ np.column_stack([problem.phi.T, grad]))
    d = None
    if np.linalg.matrix_rank(lhs) == problem.n:
        d = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        if not np.isfinite(d).all():
            d = None
    b_draws = problem.b[None, :] + _ball_samples(rng, problem.m, samples, radius_b)
    mu_draws = problem.mu + rng.uniform(-radius_mu, radius_mu, size=samples)
    mu_draws = np.maximum(mu_draws, problem.mu / 2.0)
    sols = [x]
    non_converged = 0
    for i in range(samples):
        spec = problem.with_data(b_draws[i], float(mu_draws[i]))
        start = x
        if d is not None:
            guess = x + d @ np.append(b_draws[i] - problem.b, spec.mu - problem.mu)
            if np.isfinite(guess).all():
                start = guess
        r = prox_gradient_solve(spec, x0=start)
        non_converged += 0 if r.converged else 1
        sols.append(r.x)
    bs = [problem.b, *b_draws]
    mus = [problem.mu, *(float(mu) for mu in mu_draws)]
    return perturb_ratio_loop(sols, bs, mus), 0.0, non_converged


def tilt_probe_single_start(problem, x, radius_v, samples, seed):
    """``tilt_probe`` with one start: one solve per tilt, from ``x``, and no
    draw of start points.  Returns the report's fields ``(max_ratio,
    multivaluedness_spread, non_converged)``."""
    from stabcert.solver import prox_gradient_solve
    from stabcert.stability import _ball_samples

    rng = np.random.default_rng(seed)
    tilts = _ball_samples(rng, problem.n, samples, radius_v)
    sols = [prox_gradient_solve(problem, v=v, x0=x.copy()) for v in tilts]
    non_converged = sum(not sol.converged for sol in sols)
    return tilt_ratio_loop([sol.x for sol in sols], x, tilts), 0.0, non_converged


# ---------------------------------------------------------------------------
# subgradient and subspace checks that no library code calls, kept as
# oracles for the joint factorization and the certificate's subspaces


class SubgradientCheck(NamedTuple):
    ok: bool
    spectral_gap: float  # max(sigma_max(Y) - 1, 0)
    fenchel_gap: float  # |  ||X||_*  -  <Y, X>  |
    residual: float  # max(spectral_gap, fenchel_gap / (1 + ||X||_*))


def is_subgradient_nuclear(x, y, tol=UNIT_TOL):
    """Test ``y`` against the nuclear-norm subdifferential at ``x``.

    Passes when the spectral norm of ``y`` is at most ``1 + tol`` and the
    Fenchel gap ``| ||x||_* - <y, x> |`` is at most ``tol * (1 + ||x||_*)``.
    Both gaps are reported whatever the verdict.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    nn = nuclear_norm(x)
    smax = float(np.linalg.svd(y, compute_uv=False)[0])
    spectral_gap = max(smax - 1.0, 0.0)
    fenchel_gap = abs(nn - float(np.sum(y * x)))
    ok = smax <= 1.0 + tol and fenchel_gap <= tol * (1.0 + nn)
    residual = max(spectral_gap, fenchel_gap / (1.0 + nn))
    return SubgradientCheck(ok, spectral_gap, fenchel_gap, residual)


def p_count(y):
    """Number of unit singular values of a dual matrix."""
    s = np.linalg.svd(np.asarray(y, dtype=float), compute_uv=False)
    return int(np.sum(s >= 1.0 - UNIT_TOL))


def mutual_projection_residual(b1, b2):
    """How far apart two spans are: max leftover after projecting each onto the other.

    Zero (up to round-off) exactly when the two orthonormal bases span the
    same subspace.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    r1 = float(np.linalg.norm(b1 - b2 @ (b2.T @ b1)))
    r2 = float(np.linalg.norm(b2 - b1 @ (b1.T @ b2)))
    return max(r1, r2)
