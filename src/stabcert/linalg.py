"""Dense linear-algebra kernels shared by the analysis modules.

Subspaces are represented as matrices whose columns form an orthonormal
basis.  The zero subspace of an ambient space of dimension ``n`` is the
empty basis of shape ``(n, 0)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FactorizationError

# Relative singular-value cutoff for numerical rank decisions.
RANK_TOL = 1e-9

# A dual block or singular value counts as unit when within this of 1; a
# primal block counts as nonzero above this.
UNIT_TOL = 1e-7


def svd(a: np.ndarray):
    """Full singular value decomposition ``a = u @ diag(s) @ v.T``.

    Returns ``(u, s, v)`` with ``u`` and ``v`` square orthogonal and ``s``
    nonincreasing.  Note ``v`` holds right singular vectors as columns,
    not the transposed factor numpy returns.
    """
    a = np.asarray(a, dtype=float)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge for shape {a.shape}") from exc
    return u, s, vt.T


def restricted_min_singular(
    a: np.ndarray, basis: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Smallest singular value of ``a`` restricted to the span of ``basis``, and where.

    ``basis`` must have orthonormal columns with ambient dimension equal to
    the column count of ``a``.  Returns ``(value, direction)``: ``direction``
    is a unit vector of the span that ``a`` shrinks the most, ``basis``
    times the last right singular vector of ``a @ basis``; one SVD gives
    both.  The empty basis yields ``(inf, None)`` (the restriction to the
    zero subspace is vacuously injective); a value of 0 means the span
    meets the kernel of ``a``.
    """
    a = np.asarray(a, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != a.shape[1]:
        raise ValueError(
            f"basis ambient dimension {basis.shape} does not match operator {a.shape}"
        )
    k = basis.shape[1]
    if k == 0:
        return math.inf, None
    # More directions than output dimensions: the restriction must be
    # singular, and only the full set of right singular vectors holds a
    # direction of its kernel.
    wide = k > a.shape[0]
    _, s, vt = np.linalg.svd(a @ basis, full_matrices=wide)
    w = basis @ vt[-1]
    return (0.0 if wide else float(s[-1])), w / np.linalg.norm(w)


def psd_project(s: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: symmetrize, clamp eigenvalues.

    Takes one square matrix or a stack of them (last two axes), with one
    stacked ``eigh``.
    """
    s = np.asarray(s, dtype=float)
    sym = (s + np.swapaxes(s, -1, -2)) / 2.0
    w, q = np.linalg.eigh(sym)
    return (q * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(q, -1, -2)


def orthonormalize(vectors, tol: float = 1e-10, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis for the span of ``vectors``.

    Greedy-pivoted Gram-Schmidt with a re-orthogonalization pass; directions
    whose residual norm is at most ``tol`` are dropped.  ``dim`` fixes the
    ambient dimension when ``vectors`` is empty.
    """
    cols = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not cols:
        return np.zeros((0 if dim is None else dim, 0))
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("vectors must share one ambient dimension")
    work = np.column_stack(cols)
    basis: list[np.ndarray] = []
    remaining = list(range(work.shape[1]))
    while remaining:
        norms = [float(np.linalg.norm(work[:, j])) for j in remaining]
        pick = remaining[int(np.argmax(norms))]
        nb = float(np.linalg.norm(work[:, pick]))
        if nb <= tol:
            break
        q = work[:, pick] / nb
        if basis:
            # Second pass guards against drift accumulated in the deflation.
            bmat = np.column_stack(basis)
            q = q - bmat @ (bmat.T @ q)
            qn = float(np.linalg.norm(q))
            if qn <= tol:
                remaining.remove(pick)
                continue
            q = q / qn
        basis.append(q)
        remaining.remove(pick)
        for j in remaining:
            work[:, j] -= q * float(q @ work[:, j])
    if not basis:
        return np.zeros((n, 0))
    return np.column_stack(basis)


def mutual_projection_residual(b1: np.ndarray, b2: np.ndarray) -> float:
    """How far apart two spans are: max leftover after projecting each onto the other.

    Zero (up to round-off) exactly when the two orthonormal bases span the
    same subspace.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    r1 = float(np.linalg.norm(b1 - b2 @ (b2.T @ b1)))
    r2 = float(np.linalg.norm(b2 - b1 @ (b1.T @ b2)))
    return max(r1, r2)
