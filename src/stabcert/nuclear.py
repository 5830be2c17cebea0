r"""Nuclear-norm regularizer: value, prox, joint factorization of a graph pair.

The nuclear norm of ``X`` is the sum of its singular values.  A matrix
``Y`` is a subgradient at ``X`` exactly when

.. math:: \sigma_{\max}(Y) \le 1 \quad\text{and}\quad \|X\|_* = \langle Y, X\rangle ,

and any such pair shares singular frames: there are orthogonal ``U``, ``V``
with ``X = U [diag(sigma_x), 0; 0, 0] V^T`` and
``Y = U [I_p, 0; 0, diag(lambda_y)] V^T`` where ``p`` counts the unit
singular values of ``Y`` and ``r = len(sigma_x) <= p``.  That joint shape
is what :func:`simultaneous_svd` recovers, from one SVD of ``X + Y``
(``Y`` is a subgradient at ``X`` exactly when ``X`` is the prox of
``X + Y``); all the geometry downstream
(stability subspace, inverse-image distances, relative approximations)
reads off it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleApproximationError, NotASubgradientError, ProblemFormatError
from .linalg import RANK_TOL, UNIT_TOL, psd_project


@dataclass(frozen=True)
class NuclearShape:
    """Regularizer descriptor: the matrix shape behind a vectorized unknown.

    Also the regularizer interface (shared with ``GroupPartition``) that the
    solver, the certificate and the audit call; vectors in, vectors out.
    """

    kind = "nuclear"
    # In name order, the order of the audit report's ``slack_by_constant``.
    growth_names = ("nuclear_growth_coarse", "nuclear_growth_tight")
    growth_conjecture = "nuclear_growth_conjecture"
    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):
            d = getattr(self, name)
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
                raise ProblemFormatError("BAD_TYPE", "shape must be two positive integers")
            object.__setattr__(self, name, int(d))

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
        """``(point, value, derivative)``: the prox, the nuclear norm of its
        point and its Jacobian as a map on an ``(S, n)`` stack of
        vectorized directions; see :func:`prox_nuclear`.  ``x`` is an
        ndarray, reshaped here and converted there, once."""
        point, value, derivative = prox_nuclear(x.reshape(self.n1, self.n2), t)
        return point.reshape(-1), value, derivative

    def classify(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL) -> "SimultaneousSVD":
        return simultaneous_svd(self.as_matrix(x), self.as_matrix(y), tol)

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


_FLOAT = np.finfo(float)
# The range of ||X||_F^2 where the closed form and the Gram path below keep
# their accuracy.  Below it, the square of an entry of eps ||X||_F can be
# subnormal; above it, ||X||_F^2 + 2 s1 s2 <= 2 ||X||_F^2 can overflow.
_TWO_SIDE_RANGE = (_FLOAT.tiny / _FLOAT.eps**2, _FLOAT.max / 4.0)
# The error, as a share of ||X||_F, that the Gram path of nuclear_norm may
# carry; a matrix whose rounding bound exceeds it takes the SVD.
_GRAM_BUDGET = 1e-12


def nuclear_norm(x: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; one per matrix for an ``(S, n1, n2)`` stack.

    A single matrix takes an SVD.  A stack takes the closed form of
    :func:`_two_side_norms` when its shorter side is 2 and the Gram
    eigenvalues of :func:`_gram_norms` when it is longer; the rows a kernel
    rejects take one stacked SVD.  On every path a zero matrix gives 0, a
    NaN entry raises numpy's ``LinAlgError`` and an infinite one gives NaN,
    as the SVD does.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or min(x.shape[1:]) < 2:
        total = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
        return float(total) if total.ndim == 0 else total
    total, ok = (_two_side_norms if min(x.shape[1:]) == 2 else _gram_norms)(x)
    if not ok.all():
        total[~ok] = np.linalg.svd(x[~ok], compute_uv=False).sum(axis=-1)
    return total


def _gram_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, ok)``: ``||X||_*`` of each matrix of a stack as
    ``sum(sqrt(max(lam, 0)))`` over the eigenvalues of its smaller Gram matrix.

    The Gram product's rounding and the eigensolver's backward error move
    each ``lam_i`` from ``sigma_i^2`` by at most
    ``delta = (n1 + n2 + 2) eps ||X||_F^2``, so each root is off by at most
    ``min(sqrt(delta), delta / sqrt(lam_i))``.  A matrix keeps the sum
    when the sum of these bounds is at most ``_GRAM_BUDGET ||X||_F`` and
    ``||X||_F^2`` lies in ``_TWO_SIDE_RANGE``; the others (near-singular,
    zero, tiny, overflowing or non-finite ones) are not ``ok``.
    """
    n1, n2 = x.shape[1:]
    xt = x.transpose(0, 2, 1)
    # An overflowing or non-finite matrix fails the range test below.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ xt if n1 <= n2 else xt @ x
    f2 = np.einsum("ijj->i", gram)
    low, high = _TWO_SIDE_RANGE
    ok = (f2 >= low) & (f2 <= high)
    total = np.empty(len(x))
    if ok.any():
        f2_ok = f2[ok]
        lam = np.linalg.eigvalsh(gram if ok.all() else gram[ok])
        root = np.sqrt(np.maximum(lam, 0.0))
        delta = ((n1 + n2 + 2) * _FLOAT.eps * f2_ok)[:, None]
        # delta / max(root, sqrt(delta)) is the smaller of the two bounds.
        bound = (delta / np.maximum(root, np.sqrt(delta))).sum(axis=1)
        total[ok] = root.sum(axis=1)
        ok[ok] = bound <= _GRAM_BUDGET * np.sqrt(f2_ok)
    return total, ok


def _two_side_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, ok)``: ``||X||_*`` of each matrix of a stack whose shorter
    side is 2, which holds where ``||X||_F^2`` is in ``_TWO_SIDE_RANGE``.

    With ``a``, ``b`` the two short-side vectors, ``s1^2 + s2^2 =
    ||X||_F^2`` and ``s1 s2 = r11 r22`` for the triangular factor ``R`` of
    ``[a b] = QR``, so ``||X||_* = sqrt(||X||_F^2 + 2 r11 r22)``.  One
    Gram-Schmidt step gives ``r22``; it projects out the longer vector, so
    its coefficient is at most 1 and its divisor is not 0 in range.  Its
    rounding moves ``r22`` by about ``eps`` times the shorter vector's
    norm, so the result by about ``eps ||X||_F``, as in an SVD.
    """
    a, b = (x[..., 0], x[..., 1]) if x.shape[2] == 2 else (x[:, 0], x[:, 1])
    # Out-of-range matrices may overflow, divide by 0 or meet NaN here.
    with np.errstate(all="ignore"):
        aa = np.einsum("ij,ij->i", a, a)
        bb = np.einsum("ij,ij->i", b, b)
        f2 = aa + bb
        swap = (aa < bb)[:, None]
        p, q = np.where(swap, b, a), np.where(swap, a, b)
        pp = np.maximum(aa, bb)
        r = q - (np.einsum("ij,ij->i", a, b) / pp)[:, None] * p
        # sqrt of each factor: the product of two squares could underflow.
        area = np.sqrt(pp) * np.sqrt(np.einsum("ij,ij->i", r, r))
        total = np.sqrt(f2 + 2.0 * area)
    low, high = _TWO_SIDE_RANGE
    return total, (f2 >= low) & (f2 <= high)


def _frame_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(n1 n2, k, k)`` stack: ``[:, i, j]`` is ``outer(u[:, i], v[:, j])``, raveled."""
    n1, k = u.shape
    return (u[:, None, :, None] * v[None, :, None, :]).reshape(n1 * v.shape[0], k, v.shape[1])


def prox_nuclear(x: np.ndarray, t: float):
    """``(point, value, derivative)``: the singular value soft threshold of
    ``x`` at level ``t``, its nuclear norm and its Jacobian as a map on
    directions, from the same thin SVD.  The rank of the point is the
    count of ``s > t``.

    The norm is the sum of the shrunk singular values,
    ``sum(max(s - t, 0))``, so it costs no second SVD.  ``derivative(h)``
    maps a stack of ``S`` directions, ``(S, n1, n2)`` or row-major
    ``(S, n1 n2)``, to their derivatives in the same shape.  With
    ``x = U diag(s) V^T`` (thin, ``k = min(n1, n2)``) and
    ``f(s) = max(s - t, 0)``, the derivative in direction ``H`` is
    ``U (0.5 (sym * (m + m^T) + skew * (m - m^T))) V^T``, ``m = U^T H V``,
    with the divided differences ``sym_ij = (f(s_i) - f(s_j)) / (s_i - s_j)``
    and ``skew_ij = (f(s_i) + f(s_j)) / (s_i + s_j)``, plus
    ``U diag(g) U^T H (I - V V^T)`` for a wide ``x`` or
    ``(I - U U^T) H V diag(g) V^T`` for a tall one, ``g = f(s) / s``
    (Candes, Sing-Long & Trzasko, IEEE TSP 2013).  Equal singular values
    take ``f'``, and ``f'(t)`` is taken as 0: the zero element at a kink.
    On vectorizations the map is symmetric with spectrum in ``[0, 1]``:
    every pair of mixed entries sees the two divided differences as its
    eigenvalues.
    """
    if t < 0:
        raise ValueError("prox parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    f = np.maximum(s - t, 0.0)  # the shrunk singular values
    above = s > t

    def derivative(h: np.ndarray) -> np.ndarray:
        n1, n2 = x.shape
        # Mixed pairs have s_i > t >= s_j (or the reverse), so s_i != s_j.
        mixed = above[:, None] != above[None, :]
        gap = np.where(mixed, s[:, None] - s[None, :], 1.0)
        sym = np.where(mixed, (f[:, None] - f[None, :]) / gap, (above[:, None] & above[None, :]) * 1.0)
        # f is 0 wherever s is not above t, so a zero denominator meets a zero numerator.
        total = s[:, None] + s[None, :]
        skew = (f[:, None] + f[None, :]) / np.where(total > 0.0, total, 1.0)
        hs = h.reshape(-1, n1, n2)
        v = vt.T
        m = u.T @ hs @ v
        mt = m.transpose(0, 2, 1)
        out = u @ (0.5 * (sym * (m + mt) + skew * (m - mt))) @ vt
        g = f / np.where(above, s, 1.0)
        if n1 < n2:
            out += (u * g) @ (u.T @ hs - m @ vt)
        elif n1 > n2:
            out += (hs @ v - u @ m) @ (g[:, None] * vt)
        return out.reshape(h.shape)

    return (u * f) @ vt, float(f.sum()), derivative


@dataclass(frozen=True, eq=False)
class SimultaneousSVD:
    """Joint singular frames of a primal-dual pair.

    ``ubar`` and ``vbar`` are square orthogonal; ``sigma_x`` holds the
    ``r`` positive singular values of the primal, ``lambda_y`` the
    sub-unit singular values of the dual (length ``min(n1, n2) - p``),
    with ``r <= p``.  ``residual`` is the pair's subgradient residual
    ``||x - prox(x + y)||_F``.
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

    def graph_pair(self) -> tuple[np.ndarray, np.ndarray, "SimultaneousSVD"]:
        """``(x, y, classification)``: both matrices rebuilt from the joint
        frames, row-major vectors on the graph, and this factorization with
        a residual of 0, which diagonalizes them and so classifies them."""
        xs, ys = self.reconstruct_x().reshape(-1), self.reconstruct_y().reshape(-1)
        return xs, ys, dataclasses.replace(self, residual=0.0)

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
    """Recover joint singular frames of a subgradient pair from one SVD.

    ``y`` is a subgradient at ``x`` exactly when ``x`` is the prox of
    ``x + y``, its singular value soft threshold at 1 (the Moreau
    decomposition).  So the full SVD ``x + y = U diag(s) V^T`` carries the
    check: ``residual = ||x - U_k diag(max(s - 1, 0)) V_k^T||_F``, 0 exactly
    on the graph.  A residual above ``tol``, or NaN, raises
    :class:`NotASubgradientError` with it.  The unit count ``p`` counts the
    ``s >= 1 - tol`` and ``lambda_y`` is ``s[p:k]``.  On the graph ``x`` is
    ``U_p diag(sigma_x) V_p^T``, so ``sigma_x`` is read off the diagonal of
    ``U_p^T x V_p`` (``s - 1`` would cancel when ``||x|| << 1``) and ``r``
    counts its entries above ``RANK_TOL`` times the first: ``r <= p``.  A
    pair with a non-finite entry fails with a NaN residual before any
    factorization, as a group pair does.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NotASubgradientError("pair has a non-finite entry", math.nan)
    ubar, s, vt = np.linalg.svd(x + y)
    vbar = vt.T
    k = s.size
    residual = float(np.linalg.norm(x - (ubar[:, :k] * np.maximum(s - 1.0, 0.0)) @ vt[:k]))
    if not residual <= tol:
        raise NotASubgradientError(
            f"subgradient residual {residual:.3e} exceeds tolerance {tol:.3e}", residual
        )
    p = int(np.count_nonzero(s >= 1.0 - tol))
    diag = np.einsum("ij,ij->j", ubar[:, :p], x @ vbar[:, :p])
    r = int(np.count_nonzero(diag > RANK_TOL * diag[0])) if p and diag[0] > 0 else 0
    return SimultaneousSVD(ubar, vbar, diag[:r], s[p:], r, p, residual)


def tangent_subspace_basis(dec: SimultaneousSVD) -> np.ndarray:
    """Orthonormal basis of the symmetric top-block subspace, vectorized.

    Spans ``{ U1 S V1^T : S symmetric p x p }`` where ``U1``/``V1`` are the
    leading ``p`` joint frame columns; this is the subspace of directions
    the minimizer may move along.  Columns are row-major vectorizations of
    ``n1 x n2`` matrices, ``p (p + 1) / 2`` of them: the diagonal images
    first, then the symmetrized off-diagonal pairs.
    """
    p = dec.p
    frames = _frame_products(dec.ubar[:, :p], dec.vbar[:, :p])
    d = np.arange(p)
    upper = d[:, None] < d  # the pairs i < j, in row-major order
    pairs = (frames[:, upper] + frames.transpose(0, 2, 1)[:, upper]) * (1.0 / np.sqrt(2.0))
    # Row-major, as products with the basis round by its layout.
    return np.ascontiguousarray(np.concatenate([frames[:, d, d], pairs], axis=1))


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
    reachable: more unit values than requested, or ``p_ref`` beyond the
    singular spectrum.
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
    sy = dec.singular_values_y()
    # Past the q unit values, so below 1 - UNIT_TOL: q counts all those above.
    lam = float(sy[p_ref - 1])
    d_hat = np.concatenate([np.ones(p_ref), sy[p_ref:]])
    mid = (sy[q : p_ref - 1] - lam) / (1.0 - lam)
    d_tilde = np.concatenate([np.ones(q), mid, [0.0], sy[p_ref:]])
    uk = dec.ubar[:, :k]
    vk = dec.vbar[:, :k]
    yhat = (uk * d_hat) @ vk.T
    ytilde = (uk * d_tilde) @ vk.T
    return lam, yhat, ytilde
