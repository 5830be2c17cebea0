import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    classify_groups_twice,
    group_ray_distance_oracle,
    random_group_graph_pair,
    random_partition,
    zero_ref,
)
from stabcert.errors import InfeasibleApproximationError, NotASubgradientError, ProblemFormatError
from stabcert.groupnorm import (
    GroupPartition,
    block_norms,
    classify_groups,
    group_norm,
    inverse_subdiff_distance,
    prox_group,
    relative_approx_group,
    subgrad_residual,
)

PAIRS = GroupPartition(3, ((0, 1), (2,)))

vec3 = arrays(np.float64, (3,), elements=st.floats(-8.0, 8.0, allow_nan=False))


class TestPartition:
    def test_normalizes_and_indexes(self):
        part = GroupPartition(3, [[2], [0, 1]])
        assert part.groups == ((2,), (0, 1))
        assert [list(ix) for ix in part.index_arrays] == [[2], [0, 1]]

    def test_singletons(self):
        part = GroupPartition.singletons(3)
        assert part.groups == ((0,), (1,), (2,))

    @pytest.mark.parametrize(
        "groups",
        [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1, 2), ()), ((0, 1), (2, 3))],
    )
    def test_rejects_bad_partitions(self, groups):
        with pytest.raises(ValueError):
            GroupPartition(3, groups)

    @pytest.mark.parametrize(
        "n,groups",
        [
            (3, [[0.7, 1], [2.9]]),
            (3, [[False, True], [2]]),
            (3, [[0, 1], [np.float64(2.0)]]),
            (2.0, [[0], [1]]),
            (True, [[0]]),
            (0, []),
        ],
    )
    def test_rejects_non_integer_indices_and_dimensions(self, n, groups):
        with pytest.raises(ProblemFormatError) as exc:
            GroupPartition(n, groups)
        assert exc.value.code == "BAD_TYPE"

    def test_numpy_integers_become_plain_ints(self):
        part = GroupPartition(np.int64(3), [np.array([2, 0]), [np.int32(1)]])
        assert part.groups == ((2, 0), (1,)) and part.n == 3
        assert type(part.n) is int
        assert all(type(i) is int for g in part.groups for i in g)


class TestNormAndProx:
    def test_norm_sums_block_lengths(self):
        x = np.array([3.0, 4.0, 0.0])
        assert group_norm(x, PAIRS) == pytest.approx(5.0)
        assert block_norms(x, PAIRS) == pytest.approx([5.0, 0.0])

    def test_prox_shrinks_along_block(self):
        out, _, _ = prox_group(np.array([3.0, 4.0]), 2.5, GroupPartition(2, ((0, 1),)))
        assert np.allclose(out, [1.5, 2.0], atol=1e-14)

    def test_prox_zeroes_small_blocks_exactly(self):
        out, _, _ = prox_group(np.array([0.3, -0.4, 9.0]), 0.5, PAIRS)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(8.5)

    @settings(max_examples=80, deadline=None)
    @given(vec3, vec3, st.floats(0.0, 5.0, allow_nan=False))
    def test_prox_nonexpansive(self, a, b, t):
        pa, _, _ = prox_group(a, t, PAIRS)
        pb, _, _ = prox_group(b, t, PAIRS)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    @settings(max_examples=80, deadline=None)
    @given(vec3, st.floats(1e-6, 5.0, allow_nan=False))
    def test_prox_step_lands_on_graph(self, x, t):
        # (prox(x), (x - prox(x))/t) must lie on the subdifferential graph
        p, _, _ = prox_group(x, t, PAIRS)
        y = (x - p) / t
        # the division by t amplifies rounding in x - p
        assert subgrad_residual(p, y, PAIRS) <= 1e-12 * (1.0 + np.linalg.norm(x) / t)


class TestSubgradResidual:
    def test_zero_on_generated_graph_points(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            part = random_partition(rng, int(rng.integers(1, 9)))
            x, y = random_group_graph_pair(rng, part)
            assert subgrad_residual(x, y, part) <= 1e-12

    def test_interior_block_is_free(self):
        assert subgrad_residual(
            np.array([2.0, 0.0]), np.array([1.0, 0.5]), GroupPartition.singletons(2)
        ) == pytest.approx(0.0)

    def test_violations_add_in_quadrature(self):
        part = GroupPartition.singletons(2)
        # block 1: dual norm exceeds one by 0.2; block 2: active dual off by 2
        r = subgrad_residual(np.array([0.0, 1.0]), np.array([1.2, -1.0]), part)
        assert r == pytest.approx(np.hypot(0.2, 2.0))


class TestClassify:
    def test_mixed_example(self):
        info = classify_groups(
            np.array([2.0, 0.0]), np.array([1.0, 0.5]), GroupPartition.singletons(2)
        )
        assert info.K == (0,)
        assert info.H == (1,)
        assert info.I == (0,)
        assert info.gamma == pytest.approx(0.5)
        assert info.v_basis.shape == (2, 1)
        assert abs(float(info.v_basis[:, 0] @ np.array([1.0, 0.0]))) == pytest.approx(1.0)
        assert info.classification_margin == pytest.approx(0.5)

    @pytest.mark.parametrize("tol", [1.0, 1.5])
    def test_a_zero_dual_block_is_interior_at_any_tolerance(self, tol):
        # 0 >= 1 - tol holds from tol = 1 on, but a zero block has no
        # direction to give the critical subspace.
        x, y = np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.5])
        info = classify_groups(x, y, GroupPartition.singletons(3), tol)
        assert info.K == (0, 2) and info.H == (1,)
        assert np.isfinite(info.v_basis).all()

    def test_all_boundary_has_zero_gamma(self):
        info = classify_groups(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0]), PAIRS)
        assert info.K == (0, 1)
        assert info.H == ()
        assert info.I == (0,)
        assert info.gamma == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-2]))
    def test_same_result_as_norms_taken_twice(self, seed, noise):
        # Pairs on the graph, and pairs moved off it by up to and beyond
        # the tolerance: the fields agree byte for byte, and so do errors.
        rng = np.random.default_rng(seed)
        part = random_partition(rng, int(rng.integers(1, 9)))
        x, y = random_group_graph_pair(rng, part)
        x = x + noise * rng.standard_normal(part.n)
        y = y + noise * rng.standard_normal(part.n)
        try:
            expected = classify_groups_twice(x, y, part)
        except NotASubgradientError as exc:
            with pytest.raises(NotASubgradientError, match=re.escape(str(exc))) as got:
                classify_groups(x, y, part)
            assert got.value.residual == exc.residual
            return
        got = classify_groups(x, y, part)
        assert (got.K, got.H, got.I) == (expected.K, expected.H, expected.I)
        assert got.gamma == expected.gamma and got.residual == expected.residual
        assert got.y_norms.tobytes() == expected.y_norms.tobytes()
        assert got.y.tobytes() == expected.y.tobytes()
        assert got.partition is part

    def test_rejects_off_graph_pairs(self):
        with pytest.raises(NotASubgradientError):
            classify_groups(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]), PAIRS)

    def test_basis_dimension_matches_boundary_count(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            part = random_partition(rng, int(rng.integers(1, 9)))
            x, y = random_group_graph_pair(rng, part)
            info = classify_groups(x, y, part)
            assert info.v_basis.shape[1] == len(info.K)
            assert set(info.I) <= set(info.K)
            for j in info.K:
                assert np.linalg.norm(y[part.index_arrays[j]]) >= 1 - 1e-7
            # embedded duals must be reproduced by the basis
            for j in info.K:
                e = np.zeros(part.n)
                idx = part.index_arrays[j]
                e[idx] = y[idx]
                resid = e - info.v_basis @ (info.v_basis.T @ e)
                assert np.linalg.norm(resid) <= 1e-8


class TestInverseDistance:
    def test_scalar_ray(self):
        part = GroupPartition.singletons(1)
        ref = zero_ref(np.array([1.0]), part)
        assert inverse_subdiff_distance(np.array([-0.5]), ref) == pytest.approx(0.5)
        assert inverse_subdiff_distance(np.array([2.0]), ref) == pytest.approx(0.0)

    def test_interior_dual_forces_origin(self):
        part = GroupPartition.singletons(1)
        ref = zero_ref(np.array([0.2]), part)
        assert inverse_subdiff_distance(np.array([3.0]), ref) == pytest.approx(3.0)

    def test_orthogonal_block(self):
        part = GroupPartition(2, ((0, 1),))
        d = inverse_subdiff_distance(np.array([-8.0, 6.0]), zero_ref(np.array([0.6, 0.8]), part))
        assert d == pytest.approx(10.0)

    def test_aligned_block(self):
        part = GroupPartition(2, ((0, 1),))
        d = inverse_subdiff_distance(np.array([1.2, 1.6]), zero_ref(np.array([0.6, 0.8]), part))
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            part = random_partition(rng, int(rng.integers(1, 5)))
            xg, ybar = random_group_graph_pair(rng, part)
            x = rng.standard_normal(part.n) * rng.uniform(0.2, 3.0)
            fast = inverse_subdiff_distance(x, classify_groups(xg, ybar, part))
            slow = group_ray_distance_oracle(x, ybar, part)
            assert fast == pytest.approx(slow, abs=1e-8)


class TestQuadraticGrowthInvariant:
    def test_sampled_growth_never_negative(self):
        # ||x|| - <y, x> >= c * dist(x, inverse image)^2 with c = (1-gamma)/(2 r)
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(300):
            part = random_partition(rng, int(rng.integers(1, 9)))
            xbar, ybar = random_group_graph_pair(rng, part)
            info = classify_groups(xbar, ybar, part)
            radius = float(rng.uniform(0.1, 2.0))
            for _ in range(5):
                x = xbar + rng.standard_normal(part.n) * radius
                if np.linalg.norm(x) < 1e-12:
                    continue
                lhs = group_norm(x, part) - float(ybar @ x)
                c = (1.0 - info.gamma) / (2.0 * np.linalg.norm(x))
                d = inverse_subdiff_distance(x, info)
                assert lhs - c * d * d >= -1e-9
                checked += 1
        assert checked > 1000


class TestRelativeApprox:
    def test_convex_combination_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            part = random_partition(rng, int(rng.integers(1, 9)))
            x, y = random_group_graph_pair(rng, part)
            info = classify_groups(x, y, part)
            kref = tuple(sorted(set(info.K) | set(info.H)))
            lam, yhat, ytilde = relative_approx_group(x, y, part, kref)
            assert 0.0 < lam <= 1.0
            assert np.allclose(lam * yhat + (1 - lam) * ytilde, y, atol=1e-10)
            assert subgrad_residual(x, yhat, part) <= 1e-8
            assert subgrad_residual(x, ytilde, part) <= 1e-8
            for j in kref:
                idx = part.index_arrays[j]
                assert np.linalg.norm(yhat[idx]) >= 1.0 - 1e-8

    def test_worked_example(self):
        x = np.array([0.0, 0.0, 2.0])
        y = np.array([0.3, 0.4, 1.0])
        lam, yhat, ytilde = relative_approx_group(x, y, PAIRS, (0, 1))
        assert lam == pytest.approx(0.5)
        assert np.allclose(yhat, [0.6, 0.8, 1.0], atol=1e-14)
        assert np.allclose(ytilde, [0.0, 0.0, 1.0], atol=1e-14)

    def test_nothing_to_push_returns_original(self):
        x = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 1.0, 1.0])
        lam, yhat, ytilde = relative_approx_group(x, y, PAIRS, (0, 1))
        assert lam == 1.0
        assert np.array_equal(yhat, y) and np.array_equal(ytilde, y)

    def test_lambda_lower_bound(self):
        # lam >= 1 - ||y - y_ref|| when y_ref has unit norms on kref
        rng = np.random.default_rng(15)
        for _ in range(60):
            part = random_partition(rng, int(rng.integers(1, 7)))
            xref, yref = random_group_graph_pair(rng, part, p_active=0.0, p_boundary=0.7)
            info = classify_groups(xref, yref, part)
            if not info.K:
                continue
            y = yref.copy()
            for j in info.K:
                idx = part.index_arrays[j]
                y[idx] *= float(rng.uniform(0.8, 1.0))
            x = np.zeros(part.n)
            lam, _, _ = relative_approx_group(x, y, part, info.K)
            assert lam >= 1.0 - np.linalg.norm(y - yref) - 1e-12

    def test_off_graph_input_rejected(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.5, 0.0, 1.0])
        with pytest.raises(NotASubgradientError):
            relative_approx_group(x, y, PAIRS, (0,))

    def test_zero_dual_block_is_infeasible(self):
        x = np.zeros(3)
        y = np.array([0.0, 0.0, 1.0])
        with pytest.raises(InfeasibleApproximationError):
            relative_approx_group(x, y, PAIRS, (0, 1))
