import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import mutual_projection_residual, random_orthogonal
from stabcert.linalg import orthonormalize, psd_project, restricted_min_singular

finite_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def small_matrix(n, m):
    return arrays(np.float64, (n, m), elements=finite_entries)


class TestRestrictedMinSingular:
    def test_identity_on_axis(self):
        value, direction = restricted_min_singular(np.eye(2), np.eye(2)[:, :1])
        assert value == pytest.approx(1.0)
        assert np.allclose(np.abs(direction), [1.0, 0.0])

    def test_detects_kernel_overlap(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        basis = np.array([[0.0], [1.0]])
        value, direction = restricted_min_singular(a, basis)
        assert value == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(np.abs(direction), [0.0, 1.0])

    def test_empty_basis_is_infinite(self):
        assert restricted_min_singular(np.eye(3), np.zeros((3, 0))) == (np.inf, None)

    def test_mismatched_ambient_dimension(self):
        with pytest.raises(ValueError):
            restricted_min_singular(np.eye(3), np.zeros((2, 1)))

    def test_wide_basis_collapses(self):
        # more directions than rows forces a kernel intersection
        a = np.ones((1, 3))
        q = orthonormalize([np.eye(3)[:, i] for i in range(3)])
        value, direction = restricted_min_singular(a, q)
        assert value == 0.0
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        assert np.linalg.norm(a @ direction) == pytest.approx(0.0, abs=1e-14)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            q = random_orthogonal(rng, 4)
            basis = q[:, :2]
            direct, direction = restricted_min_singular(a, basis)
            expected = np.linalg.svd(a @ basis, compute_uv=False)[-1]
            assert direct == pytest.approx(expected, rel=1e-12)
            assert np.linalg.norm(a @ direction) == pytest.approx(direct, rel=1e-12)


class TestPsdProject:
    def test_clamps_negative_eigenvalue(self):
        out = psd_project(np.diag([2.0, -3.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_fixes_psd_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((3, 3))
            s = g @ g.T
            assert np.allclose(psd_project(s), s, atol=1e-12 * (1 + np.linalg.norm(s)))

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(3, 3))
    def test_idempotent(self, a):
        once = psd_project(a)
        twice = psd_project(once)
        assert np.linalg.norm(twice - once) <= 1e-10 * (1.0 + np.linalg.norm(once))

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(3, 3), small_matrix(3, 3))
    def test_nonexpansive_on_symmetric_pairs(self, a, b):
        a = (a + a.T) / 2
        b = (b + b.T) / 2
        lhs = np.linalg.norm(psd_project(a) - psd_project(b))
        assert lhs <= np.linalg.norm(a - b) + 1e-10


class TestOrthonormalize:
    def test_rescales_axes(self):
        q = orthonormalize([np.array([2.0, 0.0]), np.array([0.0, 3.0])])
        assert q.shape == (2, 2)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-14)
        assert mutual_projection_residual(q, np.eye(2)) <= 1e-14

    def test_drops_duplicates_and_zeros(self):
        v = np.array([1.0, 1.0, 0.0])
        q = orthonormalize([v, 2.0 * v, np.zeros(3), v + 1e-14])
        assert q.shape == (3, 1)

    def test_spans_input(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            vecs = [rng.standard_normal(n) for _ in range(k)]
            q = orthonormalize(vecs)
            assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
            for v in vecs:
                resid = v - q @ (q.T @ v)
                assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(v))

    def test_empty_input(self):
        q = orthonormalize([], dim=5)
        assert q.shape == (5, 0)


class TestMutualProjectionResidual:
    def test_same_span_different_frames(self):
        rng = np.random.default_rng(5)
        q = random_orthogonal(rng, 4)[:, :2]
        rot = random_orthogonal(rng, 2)
        assert mutual_projection_residual(q, q @ rot) <= 1e-12

    def test_disjoint_spans(self):
        e = np.eye(3)
        assert mutual_projection_residual(e[:, :1], e[:, 1:2]) == pytest.approx(1.0)
