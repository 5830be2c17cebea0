"""The regularizer contract: both kinds answer the same methods, which the
solver, certify, snap_to_graph and qg_audit call without knowing the kind."""

import numpy as np
import pytest

from helpers import (
    prox_group_loop,
    random_group_instance,
    random_nuclear_instance,
    random_orthogonal,
    random_partition,
)
from stabcert.groupnorm import GroupPartition, group_norm
from stabcert.nuclear import NuclearShape, nuclear_norm
from stabcert.solver import prox_gradient_solve
from stabcert.stability import certify, snap_to_graph

KINDS = {
    "group": (random_group_instance, lambda reg, x: group_norm(x, reg)),
    "nuclear": (
        random_nuclear_instance,
        lambda reg, x: nuclear_norm(x.reshape(reg.n1, reg.n2)),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_regularizer_contract(kind):
    make, reference_value = KINDS[kind]
    rng = np.random.default_rng(71)
    for _ in range(20):
        spec = make(rng)
        reg = spec.reg
        assert reg.kind == kind

        z = rng.standard_normal(reg.n) * 2.0
        t = float(rng.uniform(0.2, 2.0))
        p, _, _, _ = reg.prox(z, t)
        assert p.shape == (reg.n,)
        # the prox residual (z - p) / t is a subgradient at p
        assert reg.classify(p, (z - p) / t, 1e-10).residual <= 1e-10
        assert reg.value(z) == reference_value(reg, z)

        res = prox_gradient_solve(spec)
        xs, ys, _ = snap_to_graph(reg, res.x, res.y)
        assert xs.shape == ys.shape == (reg.n,)
        assert reg.classify(xs, ys, 1e-12).residual <= 1e-12

        cert = certify(spec, xs)
        assert cert.kind == kind
        assert cert.kkt_residual == cert.classification.residual <= 1e-7
        assert cert.subspace_dim == cert.classification.v_basis.shape[1]
        assert cert.classification.as_dict()["kind"] == kind


def test_group_active_mask_is_the_kept_blocks():
    # Blocks well inside or outside the threshold, and blocks whose norm
    # is exactly t (3-4-5 and 1-2-2 triples, singletons): at a tie the
    # prox zeroes the block, and the mask leaves it out.
    rng = np.random.default_rng(73)
    ties = [np.array([3.0, 4.0]), np.array([0.0, -3.0, 4.0]), np.array([-5.0])]
    for _ in range(40):
        part = random_partition(rng, int(rng.integers(1, 10)))
        t = 5.0 * 2.0 ** float(rng.integers(-3, 4))
        x = np.zeros(part.n)
        tied = []
        for j, idx in enumerate(part.index_arrays):
            pick = rng.integers(4)
            tie = next((w for w in ties if w.size == idx.size), None)
            if pick == 0 and tie is not None:
                x[idx] = tie * (t / 5.0)
                tied.append(j)
            elif pick != 3:
                u = rng.standard_normal(idx.size)
                scale = rng.uniform(0.0, 0.9) if pick == 1 else rng.uniform(1.1, 3.0)
                x[idx] = scale * t * u / np.linalg.norm(u)
        point, _, _, active = part.prox(x, t)
        kept = [float(np.linalg.norm(x[idx])) > t for idx in part.index_arrays]
        assert active.dtype == bool and active.tolist() == kept
        assert not active[tied].any()
        # The blocks the loop prox leaves nonzero, computed block by block.
        loop = prox_group_loop(x, t, part)
        assert kept == [bool(loop[idx].any()) for idx in part.index_arrays]
        assert np.array_equal(point != 0.0, active[part.seg])


def test_nuclear_active_mask_counts_the_kept_singular_values():
    # Planted spectra with values exactly at t (diagonal inputs, whose SVD
    # returns them as they are) and values away from it in random frames.
    rng = np.random.default_rng(74)
    for n1, n2 in [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)]:
        k = min(n1, n2)
        reg = NuclearShape(n1, n2)
        cases = []
        for t in (0.0, 0.5, 1.3):
            diag = np.zeros((n1, n2))
            diag[range(k), range(k)] = np.array([t, 2.0 * t, 0.5 * t])[:k]
            cases.append((diag, np.sort(np.diag(diag))[::-1], t))
        for _ in range(20):
            s = np.sort(rng.choice([0.0, 0.2, 0.5, 1.1, 2.0], size=k))[::-1]
            u, v = random_orthogonal(rng, n1)[:, :k], random_orthogonal(rng, n2)[:, :k]
            cases.append(((u * s) @ v.T, s, 0.8))
        for mat, s, t in cases:
            point, _, _, active = reg.prox(mat.ravel(), t)
            rank = int(np.count_nonzero(s > t))
            assert active.dtype == bool and active.shape == (k,)
            assert active.tolist() == [True] * rank + [False] * (k - rank)
            assert np.linalg.matrix_rank(point.reshape(n1, n2), tol=1e-9) == rank
