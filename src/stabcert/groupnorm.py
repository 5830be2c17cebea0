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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleApproximationError, NotASolutionError, ProblemFormatError
from .linalg import UNIT_TOL


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
        """:class:`ProblemFormatError` at the first broken rule, numbering variables from 1."""
        try:
            n, groups = self.n, tuple(tuple(g) for g in self.groups)
        except TypeError:
            raise ProblemFormatError("BAD_TYPE", "groups must be a list of lists") from None
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ProblemFormatError("BAD_TYPE", "partition dimension must be a positive integer")
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ProblemFormatError("BAD_TYPE", "groups must be non-empty")
            for i in g:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ProblemFormatError("BAD_TYPE", "group indices must be integers")
                if not 0 <= i < n:
                    msg = f"group index {i + 1} outside 1..{n}"
                    raise ProblemFormatError("GROUP_INDEX_RANGE", msg)
                if i in seen:
                    msg = f"variable {i + 1} appears in two groups"
                    raise ProblemFormatError("GROUPS_OVERLAP", msg)
                seen.add(i)
        if len(seen) != n:
            missing = sorted(i + 1 for i in set(range(n)) - seen)
            msg = f"variables not covered by any group: {missing}"
            raise ProblemFormatError("GROUPS_COVERAGE", msg)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "groups", tuple(tuple(map(int, g)) for g in groups))

    @cached_property
    def index_arrays(self) -> list[np.ndarray]:
        return [np.asarray(g, dtype=int) for g in self.groups]

    @cached_property
    def seg(self) -> np.ndarray:
        """Block id of each coordinate: ``seg[i] == j`` when ``i`` is in block ``j``."""
        seg = np.empty(self.n, dtype=np.intp)
        sizes = [len(g) for g in self.groups]
        seg[np.concatenate(self.index_arrays)] = np.repeat(np.arange(len(sizes)), sizes)
        return seg

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """Sum of ``v`` over each block: shape ``(G,)``, or ``(S, G)`` for ``S`` rows.

        One ``np.bincount`` over the block ids; rows are kept apart by
        offsetting the ids of row ``s`` by ``G * s``.
        """
        g = len(self.groups)
        if v.ndim == 1:
            return np.bincount(self.seg, weights=v, minlength=g)
        rows = v.shape[0]
        ids = self.seg + g * np.arange(rows)[:, None]
        return np.bincount(ids.ravel(), weights=v.ravel(), minlength=g * rows).reshape(rows, g)

    @staticmethod
    def singletons(n: int) -> "GroupPartition":
        return GroupPartition(n, tuple((i,) for i in range(n)))

    def value(self, x: np.ndarray) -> float:
        return group_norm(x, self)

    def prox(self, x: np.ndarray, t: float):
        """``(point, value, derivative)``: the prox, the group norm of its
        point and its Jacobian as a map on an ``(S, n)`` stack of
        directions; see :func:`prox_group`."""
        return prox_group(x, t, self)

    def classify(self, x: np.ndarray, y: np.ndarray, tol: float = UNIT_TOL) -> "GroupAnalysis":
        return classify_groups(x, y, self, tol)

    def growth_scale(self, rows: np.ndarray) -> np.ndarray:
        """Sample scale of the growth modulus ``(1 - gamma) / (2 ||x||_2)``, per row."""
        return np.linalg.norm(rows, axis=1)

    def growth_slacks(self, rows, scale, xbar, ybar, ref: "GroupAnalysis") -> dict:
        """Growth slack at each sample row.

        The regularizer gap minus the modulus times the squared distance to
        the inverse image of ``ybar``.  ``ref`` classifies the reference pair;
        ``scale`` holds the rows' ``||x||_2``.
        """
        lhs = group_norm(rows, self) - group_norm(xbar, self) - (rows - xbar) @ ybar
        dist = inverse_subdiff_distance(rows, ref)
        return {"group_growth": lhs - (1.0 - ref.gamma) / (2.0 * scale) * dist * dist}


@dataclass(frozen=True, eq=False)
class GroupAnalysis:
    """Block classification of a point/subgradient pair.

    ``K`` holds the boundary blocks of ``y`` (dual norm 1), ``H`` its
    complement, ``I`` the support blocks of ``x`` (inside ``K`` whenever
    ``tol < 1``).  ``gamma`` is the subdominant dual norm, the largest
    block norm among ``H`` (0 when ``H`` is empty).  ``residual`` is the
    pair's subgradient residual and ``x``, ``y`` copies of the pair.
    """

    K: tuple[int, ...]
    H: tuple[int, ...]
    I: tuple[int, ...]
    gamma: float
    y_norms: np.ndarray
    residual: float
    x: np.ndarray
    y: np.ndarray
    partition: GroupPartition

    def graph_pair(self) -> tuple[np.ndarray, np.ndarray, "GroupAnalysis"]:
        """``(x, y, classification)``: the pair rebuilt on the graph from ``I``
        and ``K``, and its classification, with these sets and a residual of 0.

        Support blocks keep ``x`` and give ``y`` their unit direction, the
        other primal blocks are zeroed; boundary dual blocks off the support
        are pinned to unit norm, and interior ones are divided by 1, which
        keeps them to the byte.
        """
        part = self.partition
        active, pin = _block_mask(self.I, self.y_norms), _block_mask(self.K, self.y_norms)
        y_div = np.where(active, block_norms(self.x, part), np.where(pin, self.y_norms, 1.0))
        on = active[part.seg]
        xs, ys = np.where(on, self.x, 0.0), np.where(on, self.x, self.y) / y_div[part.seg]
        norms = block_norms(ys, part)
        return xs, ys, replace(self, y_norms=norms, residual=0.0, x=xs.copy(), y=ys.copy())

    @cached_property
    def v_basis(self) -> np.ndarray:
        """Orthonormal basis of the directions that keep the pair critical,
        one unit direction per boundary block, in ``K`` order; built on
        first use.  The columns live on disjoint blocks, so they are
        orthogonal as they stand and normalizing each one is enough."""
        basis = np.zeros((self.partition.n, len(self.K)))
        for col, j in enumerate(self.K):
            idx = self.partition.index_arrays[j]
            basis[idx, col] = self.y[idx] / np.linalg.norm(self.y[idx])
        return basis

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


def _block_mask(blocks: tuple[int, ...], like: np.ndarray) -> np.ndarray:
    """Boolean mask, shaped as the per-block array ``like``, true on ``blocks``."""
    mask = np.zeros(like.shape, dtype=bool)
    mask[list(blocks)] = True
    return mask


def block_norms(x: np.ndarray, partition: GroupPartition) -> np.ndarray:
    """Euclidean norm of each block: shape ``(G,)``, or ``(S, G)`` for an ``(S, n)`` batch."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(partition.block_sums(x * x))


def group_norm(x: np.ndarray, partition: GroupPartition) -> float | np.ndarray:
    """Sum of blockwise Euclidean norms; one per row for an ``(S, n)`` batch."""
    total = block_norms(x, partition).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def prox_group(x: np.ndarray, t: float, partition: GroupPartition):
    """``(point, value, derivative)``: the blockwise soft threshold
    ``x_J * max(1 - t/||x_J||, 0)``, its group norm and its Jacobian ``J``
    as a map on directions, from the same block norms.  A block with
    ``||x_J|| == t`` is not kept.

    The norm is read off the shrinkage, ``sum(max(||x_J|| - t, 0))``, so
    it costs no second pass over the blocks.  ``derivative(h)`` returns
    ``J h`` for each row of an ``(S, n)`` stack ``h``.  ``J`` is block
    diagonal: ``(1 - t/||x_J||) I + (t/||x_J||) u u^T`` with
    ``u = x_J / ||x_J||`` on blocks with ``||x_J|| > t``, and zero on the
    rest.  At a kink (``||x_J|| == t``) that picks the zero element of the
    generalized Jacobian.
    """
    if t < 0:
        raise ValueError("prox parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    nx = np.sqrt(partition.block_sums(x * x))  # block_norms, on x as converted
    keep = nx > t
    safe = np.where(keep, nx, 1.0)
    factor = 1.0 - t / safe
    seg = partition.seg
    # np.where, not a zero factor: x * 0 would give -0.0 on negative entries.
    point = np.where(keep[seg], x * factor[seg], 0.0)

    def derivative(h: np.ndarray) -> np.ndarray:
        # 1 - t/||x_J|| and t/||x_J||, zero off the kept blocks, per coordinate.
        diag = np.where(keep, factor, 0.0)[seg]
        ratio = np.where(keep, t / safe, 0.0)[seg]
        unit = x / safe[seg]
        return diag * h + (ratio * unit) * partition.block_sums(h * unit)[..., seg]

    return point, float(np.maximum(nx - t, 0.0).sum()), derivative


def subgrad_residual(x: np.ndarray, y: np.ndarray, partition: GroupPartition) -> float:
    """Distance of ``y`` from the subdifferential of the group norm at ``x``.

    Blockwise: ``||y_J - x_J/||x_J||||`` on the support of ``x`` and the
    excess ``max(||y_J|| - 1, 0)`` off it, combined in quadrature.  Zero
    exactly when ``y`` is a subgradient at ``x``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _residual(x, y, block_norms(x, partition), block_norms(y, partition), partition)


def _residual(x, y, nx, ny, partition: GroupPartition) -> float:
    """:func:`subgrad_residual` given the block norms ``nx`` and ``ny``."""
    support = ~(nx <= 0.0)  # a NaN block norm stays on the support, and fails
    diff = y - x / np.where(support, nx, 1.0)[partition.seg]
    on = partition.block_sums(diff * diff)
    off = np.maximum(ny - 1.0, 0.0)
    return float(np.sqrt(np.where(support, on, off * off).sum()))


def classify_groups(
    x: np.ndarray, y: np.ndarray, partition: GroupPartition, tol: float = UNIT_TOL
) -> GroupAnalysis:
    """Classify the blocks of a subgradient pair and build the critical subspace.

    Raises :class:`NotASolutionError`, with the residual it measured, when
    ``y`` is not a subgradient of the group norm at ``x`` within ``tol``.  A
    pair whose norms overflow fails at an infinite or NaN residual, silently.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x_norms = block_norms(x, partition)
        y_norms = block_norms(y, partition)
        res = _residual(x, y, x_norms, y_norms, partition)
    if not res <= tol:  # a NaN residual fails too
        raise NotASolutionError(res, tol)
    # A zero dual block has no direction to pin, even at a tolerance of 1 or more.
    K = tuple(j for j, nj in enumerate(y_norms) if nj >= 1.0 - tol and nj > 0.0)
    boundary = set(K)
    H = tuple(j for j in range(len(partition.groups)) if j not in boundary)
    I = tuple(j for j, nj in enumerate(x_norms) if nj > tol)
    gamma = max((float(y_norms[j]) for j in H), default=0.0)
    return GroupAnalysis(K, H, I, gamma, y_norms, res, x.copy(), y.copy(), partition)


def inverse_subdiff_distance(x: np.ndarray, ref: GroupAnalysis) -> float | np.ndarray:
    """Distance from ``x`` to the inverse image of the dual vector ``ybar = ref.y``.

    The inverse image is the product, over blocks, of the ray spanned by
    ``ybar_J`` on the boundary blocks ``ref.K`` and ``{0}`` elsewhere, so
    the squared distance adds ``||x_J||^2 - max(<x_J, ybar_J>, 0)^2`` on
    boundary blocks and ``||x_J||^2`` on the rest.  An ``(S, n)`` batch of
    points gives one distance per row.
    """
    x = np.asarray(x, dtype=float)
    partition = ref.partition
    unit = _block_mask(ref.K, ref.y_norms)
    xx = partition.block_sums(x * x)
    t = np.maximum(partition.block_sums(x * ref.y), 0.0)
    d2 = np.where(unit, np.maximum(xx - t * t, 0.0), xx)
    dist = np.sqrt(d2.sum(axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def relative_approx_group(x: np.ndarray, y: np.ndarray, partition: GroupPartition, kref):
    """Split a subgradient into boundary and interior parts relative to ``kref``.

    ``kref`` lists reference boundary blocks.  Those outside ``K`` are
    pushed to the unit sphere in ``yhat`` and shrunk in ``ytilde`` so that
    ``lam * yhat + (1 - lam) * ytilde == y`` with ``lam`` the smallest such
    block norm.  Both outputs remain subgradients at ``x``; when nothing
    needs pushing the triple ``(1, y, y)`` is returned.

    Raises :class:`InfeasibleApproximationError` when some pushed block has
    ``x_J != 0`` (its subgradient block is pinned) or a zero dual block
    cannot be normalized.
    """
    analysis = classify_groups(x, y, partition)
    y = analysis.y
    norms = analysis.y_norms
    kref = tuple(int(j) for j in kref)
    for j in kref:
        if not 0 <= j < len(partition.groups):
            raise ValueError(f"reference block {j} out of range")
    push = [j for j in kref if j not in analysis.K]
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
