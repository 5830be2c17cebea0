r"""Nuclear-norm regularizer: value, prox, subgradient tests, joint factorization.

The nuclear norm of ``X`` is the sum of its singular values.  A matrix
``Y`` is a subgradient at ``X`` exactly when

.. math:: \sigma_{\max}(Y) \le 1 \quad\text{and}\quad \|X\|_* = \langle Y, X\rangle ,

and any such pair shares singular frames: there are orthogonal ``U``, ``V``
with ``X = U [diag(sigma_x), 0; 0, 0] V^T`` and
``Y = U [I_p, 0; 0, diag(lambda_y)] V^T`` where ``p`` counts the unit
singular values of ``Y`` and ``r = len(sigma_x) <= p``.  That joint shape
is what :func:`simultaneous_svd` recovers; all the geometry downstream
(stability subspace, inverse-image distances, relative approximations)
reads off it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasibleApproximationError,
    JointDecompositionError,
    NotASubgradientError,
)
from .linalg import RANK_TOL, UNIT_TOL, psd_project, svd


@dataclass(frozen=True)
class NuclearShape:
    """Regularizer descriptor: the matrix shape behind a vectorized unknown.

    Also the regularizer interface (shared with ``GroupPartition``) that the
    solver, the certificate and the audit call; vectors in, vectors out.
    """

    kind = "nuclear"
    growth_names = ("nuclear_growth_tight", "nuclear_growth_coarse")
    growth_conjecture = "nuclear_growth_conjecture"
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("matrix dimensions must be positive")

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def as_matrix(self, x) -> np.ndarray:
        """Row-major reshape of a vectorized unknown; matrices pass through."""
        x = np.asarray(x, dtype=float)
        return x.reshape(self.n1, self.n2)

    def as_vector(self, mat) -> np.ndarray:
        return np.asarray(mat, dtype=float).reshape(-1)

    def value(self, x: np.ndarray) -> float:
        return nuclear_norm(self.as_matrix(x))

    def prox(self, x: np.ndarray, t: float):
        """``(point, value, jacobian)``: the prox, the nuclear norm of its
        point and a callable that builds its ``(n, n)`` Jacobian on
        vectorizations; see :func:`prox_nuclear`."""
        point, value, jacobian = prox_nuclear(self.as_matrix(x), t)
        return self.as_vector(point), value, jacobian

    def classify(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL) -> "SimultaneousSVD":
        return simultaneous_svd(self.as_matrix(x), self.as_matrix(y), tol)

    def snap(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL):
        """Both matrices rebuilt from their joint frames: a pair exactly on the graph.

        Returns ``(x, y, classification)``.  The frames and spectra that
        rebuild the pair diagonalize it, so the factorization of the input
        pair classifies the snapped one; only its ``residual`` is taken
        again, from those spectra.
        """
        dec = self.classify(x, y, tol)
        xs, ys = dec.reconstruct_x(), dec.reconstruct_y()
        residual = _check_spectra(xs, ys, dec.sigma_x, dec.singular_values_y(), tol).residual
        snapped = dataclasses.replace(dec, residual=residual)
        return self.as_vector(xs), self.as_vector(ys), snapped

    def growth_scale(self, rows: np.ndarray) -> np.ndarray:
        """Sample scale of the growth moduli: ``||X||_*``, per row."""
        return nuclear_norm(rows.reshape(-1, self.n1, self.n2))

    def growth_slacks(self, rows, scale, xbar, ybar, ref: "SimultaneousSVD") -> dict:
        """Growth slack of each modulus at each sample row.

        The regularizer gap minus the modulus times the squared distance to
        the inverse image of ``ybar``.  ``ref`` factors the reference pair,
        and the sum of its ``sigma_x`` is the reference value; ``scale``
        holds the rows' ``||X||_*``, which the gap reuses.
        """
        lhs = scale - float(ref.sigma_x.sum()) - (rows - xbar) @ ybar
        dist = inverse_subdiff_distance(rows.reshape(-1, self.n1, self.n2), ref)
        d2 = dist * dist
        g = ref.gamma
        tight = (1.0 - g * g) / (2.0 * (1.0 + (1.0 + g) ** 2))
        return {
            "nuclear_growth_tight": lhs - (tight / scale) * d2,
            "nuclear_growth_coarse": lhs - ((1.0 - g) / 5.0 / scale) * d2,
            "nuclear_growth_conjecture": lhs - ((1.0 - g) / 2.0 / scale) * d2,
        }


class SubgradientCheck(NamedTuple):
    ok: bool
    spectral_gap: float  # max(sigma_max(Y) - 1, 0)
    fenchel_gap: float  # |  ||X||_*  -  <Y, X>  |
    residual: float  # max(spectral_gap, fenchel_gap / (1 + ||X||_*))


def nuclear_norm(x: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; one per matrix for an ``(S, n1, n2)`` stack."""
    x = np.asarray(x, dtype=float)
    total = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def prox_nuclear(x: np.ndarray, t: float):
    """``(point, value, jacobian)``: the singular value soft threshold of
    ``x`` at level ``t``, its nuclear norm, and a zero-argument callable
    that builds its ``(n, n)`` Jacobian on row-major vectorizations from
    the same thin SVD.

    The norm is the sum of the shrunk singular values,
    ``sum(max(s - t, 0))``, so it costs no second SVD.  With
    ``x = U diag(s) V^T`` (thin, ``k = min(n1, n2)``) and
    ``f(s) = max(s - t, 0)``, the derivative in direction ``H`` applies, in
    the frames, the divided differences ``(f(s_i) - f(s_j)) / (s_i - s_j)``
    to the symmetric part of ``U^T H V``, ``(f(s_i) + f(s_j)) / (s_i + s_j)``
    to its skew part, and ``g = f(s) / s`` to the part of ``H`` outside the
    column space of ``V`` (wide ``x``) or of ``U`` (tall ``x``).  Equal
    singular values take ``f'``, and ``f'(t)`` is taken as 0: the zero
    element at a kink.  On vectorizations that is
    ``F (diag(a) + diag(b) swap) F^T`` with ``F = kron(U, V)`` and ``swap``
    the permutation ``(i, j) -> (j, i)``, plus
    ``kron(U diag(g) U^T, I - V V^T)`` for a wide ``x`` or
    ``kron(I - U U^T, V diag(g) V^T)`` for a tall one.  The result is
    symmetric with spectrum in ``[0, 1]``: every pair of mixed entries sees
    the two divided differences as its eigenvalues.
    """
    if t < 0:
        raise ValueError("prox parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    f = np.maximum(s - t, 0.0)  # the shrunk singular values

    def jacobian() -> np.ndarray:
        n1, n2 = u.shape[0], vt.shape[1]
        k = s.size
        above = s > t
        # Mixed pairs have s_i > t >= s_j (or the reverse), so s_i != s_j.
        mixed = above[:, None] != above[None, :]
        gap = np.where(mixed, s[:, None] - s[None, :], 1.0)
        sym = np.where(mixed, (f[:, None] - f[None, :]) / gap, (above[:, None] & above[None, :]) * 1.0)
        # f is 0 wherever s is not above t, so a zero denominator meets a zero numerator.
        total = s[:, None] + s[None, :]
        skew = (f[:, None] + f[None, :]) / np.where(total > 0.0, total, 1.0)
        v = vt.T
        frames = (u[:, None, :, None] * v[None, :, None, :]).reshape(n1 * n2, k * k)
        # Row (i, j) of ft is frame column (i, j); its transpose swaps to (j, i).
        ft = frames.T.reshape(k, k, n1 * n2)
        a = 0.5 * (sym + skew)
        b = 0.5 * (sym - skew)
        mix = a[:, :, None] * ft + b[:, :, None] * ft.transpose(1, 0, 2)
        jac = frames @ mix.reshape(k * k, n1 * n2)
        if n1 != n2:
            g = f / np.where(above, s, 1.0)
            if n1 < n2:
                left, right = (u * g) @ u.T, np.eye(n2) - v @ vt
            else:
                left, right = np.eye(n1) - u @ u.T, (v * g) @ vt
            jac += (left[:, None, :, None] * right[None, :, None, :]).reshape(n1 * n2, n1 * n2)
        return jac

    return (u * f) @ vt, float(f.sum()), jacobian


def is_subgradient_nuclear(
    x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL
) -> SubgradientCheck:
    """Test ``y`` against the nuclear-norm subdifferential at ``x``.

    Passes when the spectral norm of ``y`` is at most ``1 + tol`` and the
    Fenchel gap ``| ||x||_* - <y, x> |`` is at most ``tol * (1 + ||x||_*)``.
    Both gaps are reported whatever the verdict.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    sx = np.linalg.svd(x, compute_uv=False)
    sy = np.linalg.svd(y, compute_uv=False)
    return _check_spectra(x, y, sx, sy, tol)


def _check_spectra(x, y, sx, sy, tol) -> SubgradientCheck:
    """The subgradient test given the singular values of both matrices."""
    nn = float(sx.sum())
    smax = float(sy[0])
    spectral_gap = max(smax - 1.0, 0.0)
    fenchel_gap = abs(nn - float(np.sum(y * x)))
    ok = smax <= 1.0 + tol and fenchel_gap <= tol * (1.0 + nn)
    residual = max(spectral_gap, fenchel_gap / (1.0 + nn))
    return SubgradientCheck(ok, spectral_gap, fenchel_gap, residual)


@dataclass(frozen=True, eq=False)
class SimultaneousSVD:
    """Joint singular frames of a primal-dual pair.

    ``ubar`` and ``vbar`` are square orthogonal; ``sigma_x`` holds the
    ``r`` positive singular values of the primal, ``lambda_y`` the
    sub-unit singular values of the dual (length ``min(n1, n2) - p``),
    with ``r <= p``.  ``residual`` is the pair's subgradient residual.
    """

    ubar: np.ndarray
    vbar: np.ndarray
    sigma_x: np.ndarray
    lambda_y: np.ndarray
    r: int
    p: int
    residual: float

    @property
    def n1(self) -> int:
        return self.ubar.shape[0]

    @property
    def n2(self) -> int:
        return self.vbar.shape[0]

    @property
    def k(self) -> int:
        return min(self.n1, self.n2)

    def singular_values_y(self) -> np.ndarray:
        """All ``k`` dual singular values, unit block first."""
        return np.concatenate([np.ones(self.p), self.lambda_y])

    def reconstruct_x(self) -> np.ndarray:
        return (self.ubar[:, : self.r] * self.sigma_x) @ self.vbar[:, : self.r].T

    def reconstruct_y(self) -> np.ndarray:
        return (self.ubar[:, : self.k] * self.singular_values_y()) @ self.vbar[:, : self.k].T

    @cached_property
    def gamma(self) -> float:
        """Subdominant dual singular value, 0 when the dual has no sub-unit part."""
        return float(self.lambda_y.max()) if self.lambda_y.size else 0.0

    @property
    def v_basis(self) -> np.ndarray:
        """Critical subspace; see :func:`tangent_subspace_basis`."""
        return tangent_subspace_basis(self)

    def as_dict(self) -> dict:
        """Report form."""
        return {
            "kind": "nuclear",
            "rank": self.r,
            "unit_count": self.p,
            "sigma_x": self.sigma_x,
            "lambda_y": self.lambda_y,
        }


def simultaneous_svd(x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL) -> SimultaneousSVD:
    """Recover joint singular frames of a subgradient pair.

    Three factorizations: the spectra of ``x`` and ``y`` give the
    subgradient test (a failure raises :class:`NotASubgradientError` with
    the check's residual), the rank ``r`` and the unit count ``p``; the
    frames of ``x + y`` diagonalize both matrices at once.  A reconstruction residual above
    ``1e-6 * (1 + norm)`` on either matrix raises
    :class:`JointDecompositionError`; valid pairs land near machine
    precision.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    sx = np.linalg.svd(x, compute_uv=False)
    sy = np.linalg.svd(y, compute_uv=False)
    check = _check_spectra(x, y, sx, sy, tol)
    if not check.ok:
        raise NotASubgradientError(
            "pair fails the subgradient test "
            f"(spectral gap {check.spectral_gap:.3e}, fenchel gap {check.fenchel_gap:.3e})",
            check.residual,
        )
    ubar, _, vbar = svd(x + y)
    r = int(np.sum(sx > RANK_TOL * sx[0])) if sx.size and sx[0] > 0 else 0
    p = int(np.sum(sy >= 1.0 - tol))
    k = min(x.shape)
    if r > p:
        raise JointDecompositionError(
            f"primal rank {r} exceeds the dual unit count {p}"
        )
    dec = SimultaneousSVD(ubar, vbar, sx[:r].copy(), sy[p:k].copy(), r, p, check.residual)
    res_x = float(np.linalg.norm(dec.reconstruct_x() - x))
    res_y = float(np.linalg.norm(dec.reconstruct_y() - y))
    if res_x > 1e-6 * (1.0 + np.linalg.norm(x)) or res_y > 1e-6 * (
        1.0 + np.linalg.norm(y)
    ):
        raise JointDecompositionError(
            f"joint factorization residuals {res_x:.3e} / {res_y:.3e} too large; "
            "the pair violates the subgradient relation beyond tolerance"
        )
    return dec


def p_count(y: np.ndarray) -> int:
    """Number of unit singular values of a dual matrix."""
    s = np.linalg.svd(np.asarray(y, dtype=float), compute_uv=False)
    return int(np.sum(s >= 1.0 - UNIT_TOL))


def tangent_subspace_basis(dec: SimultaneousSVD) -> np.ndarray:
    """Orthonormal basis of the symmetric top-block subspace, vectorized.

    Spans ``{ U1 S V1^T : S symmetric p x p }`` where ``U1``/``V1`` are the
    leading ``p`` joint frame columns; this is the subspace of directions
    the minimizer may move along.  Columns are row-major vectorizations of
    ``n1 x n2`` matrices, ``p (p + 1) / 2`` of them: the diagonal images
    first, then the symmetrized off-diagonal pairs.
    """
    p = dec.p
    n = dec.n1 * dec.n2
    if p == 0:
        return np.zeros((n, 0))
    u1 = dec.ubar[:, :p]
    v1 = dec.vbar[:, :p]
    cols = [np.outer(u1[:, i], v1[:, i]).ravel() for i in range(p)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(p):
        for j in range(i + 1, p):
            m = (np.outer(u1[:, i], v1[:, j]) + np.outer(u1[:, j], v1[:, i])) * inv_sqrt2
            cols.append(m.ravel())
    return np.column_stack(cols)


def inverse_subdiff_distance(x: np.ndarray, dec: SimultaneousSVD) -> float | np.ndarray:
    """Distance from ``x`` to the inverse image of the dual matrix of ``dec``.

    The inverse image is ``{ U1 Z V1^T : Z psd symmetric p x p }``.  In the
    joint frame the squared distance splits into the gap between the top
    left block and its psd projection plus all mass outside that block.
    Each term is a sum of squares, so nothing cancels near the psd cone.
    An ``(S, n1, n2)`` stack gives one distance per matrix.
    """
    x = np.asarray(x, dtype=float)
    xt = dec.ubar.T @ x @ dec.vbar
    p = dec.p
    x11 = xt[..., :p, :p]
    rest = xt.copy()
    rest[..., :p, :p] = 0.0
    gap = x11 - psd_project(x11)
    d2 = np.sum(gap * gap, axis=(-2, -1)) + np.sum(rest * rest, axis=(-2, -1))
    dist = np.sqrt(d2)
    return float(dist) if dist.ndim == 0 else dist


def relative_approx_nuclear(x: np.ndarray, y: np.ndarray, p_ref: int):
    """Split a dual matrix into boundary and interior parts relative to ``p_ref``.

    Given a subgradient pair whose dual has ``q < p_ref`` unit singular
    values, returns ``(lam, yhat, ytilde)`` with ``lam`` the ``p_ref``-th
    singular value of ``y``, ``yhat`` having exactly ``p_ref`` unit values,
    ``ytilde`` exactly ``q``, both subgradients at ``x``, and
    ``lam * yhat + (1 - lam) * ytilde == y``.  When ``q == p_ref`` already,
    returns ``(1, y, y)``.

    Raises :class:`InfeasibleApproximationError` when ``p_ref`` is not
    reachable: more unit values than requested, ``p_ref`` beyond the
    singular spectrum, or a primal rank above ``q`` (those directions are
    pinned at 1 and cannot be shrunk).
    """
    dec = simultaneous_svd(x, y)
    q = dec.p
    k = dec.k
    if p_ref < 0 or p_ref > k:
        raise InfeasibleApproximationError(
            f"reference count {p_ref} outside the spectrum (0..{k})"
        )
    if q > p_ref:
        raise InfeasibleApproximationError(
            f"dual already has {q} unit singular values, more than requested {p_ref}"
        )
    y = np.asarray(y, dtype=float)
    if q == p_ref:
        return 1.0, y.copy(), y.copy()
    if dec.r > q:
        raise InfeasibleApproximationError(
            f"primal rank {dec.r} exceeds the dual unit count {q}"
        )
    sy = dec.singular_values_y()
    lam = float(sy[p_ref - 1])
    if lam >= 1.0 - UNIT_TOL:
        raise InfeasibleApproximationError(
            f"singular value {p_ref} of the dual is already at the unit threshold"
        )
    d_hat = np.concatenate([np.ones(p_ref), sy[p_ref:]])
    mid = (sy[q : p_ref - 1] - lam) / (1.0 - lam)
    d_tilde = np.concatenate([np.ones(q), mid, [0.0], sy[p_ref:]])
    uk = dec.ubar[:, :k]
    vk = dec.vbar[:, :k]
    yhat = (uk * d_hat) @ vk.T
    ytilde = (uk * d_tilde) @ vk.T
    return lam, yhat, ytilde
