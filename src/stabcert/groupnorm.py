r"""Group (l1/l2) regularizer: value, prox, and subdifferential geometry.

For a partition of ``range(n)`` into blocks J the regularizer is

.. math:: \|x\|_{1,2} = \sum_J \|x_J\|_2 .

Its subdifferential at ``x`` is blockwise: the unit ball where ``x_J = 0``
and the single point ``x_J / \|x_J\|`` elsewhere.  The analysis routines
below classify the blocks of a subgradient ``y`` into boundary blocks
(``norm == 1``, these pin directions the solution may move along) and
interior blocks, and measure distances to the inverse image
``(\partial\|\cdot\|_{1,2})^{-1}(y)``, a product of rays and zero blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleApproximationError, NotASubgradientError
from .linalg import orthonormalize

# A dual block counts as boundary-active when its norm is within this of 1;
# a primal block counts as nonzero above this.
UNIT_TOL = 1e-7


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint, nonempty index blocks covering ``range(n)`` (0-based).

    Also the regularizer interface (shared with ``NuclearShape``) that the
    solver, the certificate and the audit call; vectors in, vectors out.
    """

    kind = "group"
    growth_names = ("group_growth",)
    growth_conjecture = None
    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if self.n < 1:
            raise ValueError("partition dimension must be positive")
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValueError("empty group")
            for i in g:
                if not 0 <= i < self.n:
                    raise ValueError(f"index {i} outside range(0, {self.n})")
                if i in seen:
                    raise ValueError(f"index {i} appears in two groups")
                seen.add(i)
        if len(seen) != self.n:
            missing = sorted(set(range(self.n)) - seen)
            raise ValueError(f"indices not covered by any group: {missing}")

    @cached_property
    def index_arrays(self) -> list[np.ndarray]:
        return [np.asarray(g, dtype=int) for g in self.groups]

    @staticmethod
    def singletons(n: int) -> "GroupPartition":
        return GroupPartition(n, tuple((i,) for i in range(n)))

    def value(self, x: np.ndarray) -> float:
        return group_norm(x, self)

    def prox(self, x: np.ndarray, t: float) -> np.ndarray:
        return prox_group(x, t, self)

    def residual(self, x: np.ndarray, y: np.ndarray) -> float:
        """Optimality residual of the pair; see :func:`subgrad_residual`."""
        return subgrad_residual(x, y, self)

    def classify(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL) -> "GroupAnalysis":
        return classify_groups(x, y, self, tol)

    def snap(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL):
        """Nearby pair exactly on the graph of the subdifferential.

        Blocks of ``x`` above ``tol`` give ``y`` their exact unit direction;
        the rest are zeroed, with their dual blocks clipped into the unit ball.
        """
        x = np.asarray(x, dtype=float).copy()
        y = np.asarray(y, dtype=float).copy()
        for idx in self.index_arrays:
            nx = float(np.linalg.norm(x[idx]))
            if nx > tol:
                y[idx] = x[idx] / nx
            else:
                x[idx] = 0.0
                ny = float(np.linalg.norm(y[idx]))
                if ny > 1.0:
                    y[idx] /= ny
        return x, y

    def growth_scale(self, x: np.ndarray) -> float:
        """Sample scale of the growth modulus ``(1 - gamma) / (2 ||x||_2)``."""
        return float(np.linalg.norm(x))

    def growth_slacks(self, x, scale, xbar, ybar, gbar, ref: "GroupAnalysis") -> dict:
        """Growth slack at sample ``x``.

        The regularizer gap minus the modulus times the squared distance to
        the inverse image of ``ybar``.  ``ref`` classifies the reference pair
        and ``gbar`` is its value; ``scale`` is ``||x||_2``.
        """
        lhs = group_norm(x, self) - gbar - float(ybar @ (x - xbar))
        dist = inverse_subdiff_distance(x, ybar, self)
        return {"group_growth": lhs - (1.0 - ref.gamma) / (2.0 * scale) * dist * dist}

    def as_dict(self) -> dict:
        """Problem-file form: 1-based variable indices."""
        return {"kind": self.kind, "groups": [[i + 1 for i in g] for g in self.groups]}


@dataclass(frozen=True)
class GroupAnalysis:
    """Block classification of a point/subgradient pair.

    ``K`` holds the boundary blocks of ``y`` (dual norm 1), ``H`` its
    complement, ``I`` the support blocks of ``x`` (always inside ``K``).
    ``gamma`` is the subdominant dual norm, the largest block norm among
    ``H`` (0 when ``H`` is empty).  ``residual`` is the pair's
    subgradient residual and ``y`` a copy of the classified dual.
    """

    K: tuple[int, ...]
    H: tuple[int, ...]
    I: tuple[int, ...]
    gamma: float
    y_norms: np.ndarray
    residual: float
    y: np.ndarray
    partition: GroupPartition

    @cached_property
    def v_basis(self) -> np.ndarray:
        """Orthonormal basis of the directions that keep the pair critical,
        one unit direction per boundary block; built on first use."""
        n = self.partition.n
        cols = []
        for j in self.K:
            w = np.zeros(n)
            idx = self.partition.index_arrays[j]
            w[idx] = self.y[idx]
            cols.append(w)
        return orthonormalize(cols, dim=n)

    @property
    def classification_margin(self) -> float:
        """Separation between boundary and interior block norms.

        Small values flag a borderline classification that a different
        tolerance could flip.
        """
        min_k = min((self.y_norms[j] for j in self.K), default=1.0)
        max_h = max((self.y_norms[j] for j in self.H), default=0.0)
        return float(min_k - max_h)

    def as_dict(self) -> dict:
        """Report form: 1-based block numbers."""
        return {
            "kind": "group",
            "boundary_blocks": [j + 1 for j in self.K],
            "interior_blocks": [j + 1 for j in self.H],
            "support_blocks": [j + 1 for j in self.I],
            "block_norms": self.y_norms,
            "classification_margin": self.classification_margin,
        }


def block_norms(x: np.ndarray, partition: GroupPartition) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([float(np.linalg.norm(x[idx])) for idx in partition.index_arrays])


def group_norm(x: np.ndarray, partition: GroupPartition) -> float:
    """Sum of blockwise Euclidean norms."""
    return float(block_norms(x, partition).sum())


def prox_group(x: np.ndarray, t: float, partition: GroupPartition) -> np.ndarray:
    """Blockwise soft threshold: ``x_J * max(1 - t/||x_J||, 0)``."""
    if t < 0:
        raise ValueError("prox parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for idx in partition.index_arrays:
        xj = x[idx]
        nx = float(np.linalg.norm(xj))
        if nx > t:
            out[idx] = xj * (1.0 - t / nx)
    return out


def subgrad_residual(x: np.ndarray, y: np.ndarray, partition: GroupPartition) -> float:
    """Distance of ``y`` from the subdifferential of the group norm at ``x``.

    Blockwise: ``||y_J - x_J/||x_J||||`` on the support of ``x`` and the
    excess ``max(||y_J|| - 1, 0)`` off it, combined in quadrature.  Zero
    exactly when ``y`` is a subgradient at ``x``.
    """
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


def classify_groups(
    x: np.ndarray, y: np.ndarray, partition: GroupPartition, tol: float = UNIT_TOL
) -> GroupAnalysis:
    """Classify the blocks of a subgradient pair and build the critical subspace.

    Raises :class:`NotASubgradientError` when ``y`` is not a subgradient of
    the group norm at ``x`` within ``tol``.
    """
    res = subgrad_residual(x, y, partition)
    if res > tol:
        raise NotASubgradientError(
            f"subgradient residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_norms = block_norms(y, partition)
    x_norms = block_norms(x, partition)
    K = tuple(j for j, nj in enumerate(y_norms) if nj >= 1.0 - tol)
    H = tuple(j for j in range(len(partition.groups)) if j not in set(K))
    I = tuple(j for j, nj in enumerate(x_norms) if nj > tol)
    gamma = max((float(y_norms[j]) for j in H), default=0.0)
    return GroupAnalysis(K, H, I, gamma, y_norms, res, y.copy(), partition)


def inverse_subdiff_distance(
    x: np.ndarray, ybar: np.ndarray, partition: GroupPartition, tol: float = UNIT_TOL
) -> float:
    """Distance from ``x`` to the inverse image of ``ybar`` under the subdifferential.

    The inverse image is the product, over blocks, of the ray spanned by
    ``ybar_J`` where that block has unit norm and ``{0}`` elsewhere, so the
    squared distance adds ``||x_J||^2 - max(<x_J, ybar_J>, 0)^2`` on unit
    blocks and ``||x_J||^2`` on the rest.
    """
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


def relative_approx_group(
    x: np.ndarray,
    y: np.ndarray,
    partition: GroupPartition,
    kref,
    tol: float = UNIT_TOL,
):
    """Split a subgradient into boundary and interior parts relative to ``kref``.

    ``kref`` lists reference boundary blocks.  Blocks of ``kref`` whose norm
    sits strictly below 1 are pushed to the unit sphere in ``yhat`` and
    shrunk in ``ytilde`` so that ``lam * yhat + (1 - lam) * ytilde == y``
    with ``lam`` the smallest such block norm.  Both outputs remain
    subgradients at ``x``; when nothing needs pushing the triple
    ``(1, y, y)`` is returned.

    Raises :class:`InfeasibleApproximationError` when some pushed block has
    ``x_J != 0`` (its subgradient block is pinned) or a zero dual block
    cannot be normalized.
    """
    analysis = classify_groups(x, y, partition, tol)
    y = analysis.y
    norms = analysis.y_norms
    kref = tuple(int(j) for j in kref)
    for j in kref:
        if not 0 <= j < len(partition.groups):
            raise ValueError(f"reference block {j} out of range")
    push = [j for j in kref if norms[j] < 1.0 - tol]
    if not push:
        return 1.0, y.copy(), y.copy()
    for j in push:
        if j in analysis.I:
            raise InfeasibleApproximationError(
                f"block {j} has x_J != 0, its subgradient block cannot be moved"
            )
        if norms[j] <= 0.0:
            raise InfeasibleApproximationError(
                f"block {j} of y is zero and has no direction to push along"
            )
    lam = float(min(norms[j] for j in push))
    yhat = y.copy()
    ytilde = y.copy()
    for j in push:
        idx = partition.index_arrays[j]
        unit = y[idx] / norms[j]
        yhat[idx] = unit
        ytilde[idx] = ((norms[j] - lam) / (1.0 - lam)) * unit
    return lam, yhat, ytilde
