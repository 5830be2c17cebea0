import numpy as np
import pytest

from helpers import (
    is_subgradient_nuclear,
    nuclear_cone_distance_oracle,
    p_count,
    random_nuclear_graph_pair,
    random_orthogonal,
    tangent_subspace_basis_loop,
)
from stabcert.errors import InfeasibleApproximationError, NotASubgradientError, ProblemFormatError
from stabcert.nuclear import (
    NuclearShape,
    inverse_subdiff_distance,
    nuclear_norm,
    prox_nuclear,
    relative_approx_nuclear,
    simultaneous_svd,
    tangent_subspace_basis,
)


class TestShape:
    def test_round_trip(self):
        shape = NuclearShape(2, 3)
        assert shape.n == 6
        x = np.arange(6.0)
        m = shape.as_matrix(x)
        assert m.shape == (2, 3)
        assert m[1, 0] == 3.0  # row-major layout
        assert np.array_equal(shape.as_vector(m), x)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            NuclearShape(0, 3)

    @pytest.mark.parametrize("dims", [(2.5, 2), (True, 3), (2, False), (0, 3), (3, -1), ("2", 2)])
    def test_rejects_non_integer_and_nonpositive_dims(self, dims):
        with pytest.raises(ProblemFormatError) as exc:
            NuclearShape(*dims)
        assert exc.value.code == "BAD_TYPE"

    def test_numpy_integer_dims_become_plain_ints(self):
        shape = NuclearShape(np.int64(2), np.int32(3))
        assert type(shape.n1) is int and type(shape.n2) is int and shape.n == 6


class TestNormAndProx:
    def test_norm_sums_singular_values(self):
        a = np.diag([3.0, -4.0])
        assert nuclear_norm(a) == pytest.approx(7.0)

    def test_prox_thresholds_spectrum(self):
        out, _, _, _ = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        # Against the closed form u diag(max(s - t, 0)) v^T of u diag(s) v^T.
        rng = np.random.default_rng(22)
        for n1, n2 in [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)]:
            k = min(n1, n2)
            eye1, eye2 = np.eye(n1)[:, :k], np.eye(n2)[:, :k]
            # Diagonal, one value exactly at t (the SVD returns it as it
            # is), then random frames with repeated values.
            cases = [(eye1, np.array([t, 2.0 * t, 0.5 * t])[:k], eye2, t) for t in (0.0, 0.5, 1.3)]
            for _ in range(20):
                s = np.sort(rng.choice([0.0, 0.2, 0.5, 1.1, 2.0], size=k))[::-1]
                u, v = random_orthogonal(rng, n1)[:, :k], random_orthogonal(rng, n2)[:, :k]
                cases.append((u, s, v, 0.5))
            for u, s, v, t in cases:
                point, value, _, _ = prox_nuclear((u * s) @ v.T, t)
                f = np.maximum(s - t, 0.0)
                assert np.allclose(point, (u * f) @ v.T, atol=1e-12)
                assert value == pytest.approx(f.sum(), rel=1e-12, abs=1e-12)

    def test_prox_nonexpansive(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((3, 4))
            t = float(rng.uniform(0.0, 3.0))
            lhs = np.linalg.norm(prox_nuclear(a, t)[0] - prox_nuclear(b, t)[0])
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_prox_step_lands_on_graph(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) * rng.uniform(0.1, 4.0)
            t = float(rng.uniform(1e-3, 3.0))
            p, _, _, _ = prox_nuclear(a, t)
            y = (a - p) / t
            check = is_subgradient_nuclear(
                p, y, tol=1e-12 * (1.0 + np.linalg.norm(a) / t)
            )
            assert check.ok, (check.spectral_gap, check.fenchel_gap)


class TestSubgradientCheck:
    def test_accepts_known_pair(self):
        check = is_subgradient_nuclear(np.diag([2.0, 0.0]), np.diag([1.0, 0.5]))
        assert check.ok
        assert check.spectral_gap == pytest.approx(0.0, abs=1e-12)
        assert check.fenchel_gap == pytest.approx(0.0, abs=1e-12)

    def test_rejects_large_spectrum(self):
        check = is_subgradient_nuclear(np.zeros((2, 2)), np.diag([1.2, 0.0]))
        assert not check.ok
        assert check.spectral_gap == pytest.approx(0.2)

    def test_rejects_fenchel_gap(self):
        # unit spectral norm but misaligned with x
        check = is_subgradient_nuclear(np.diag([2.0, 0.0]), np.diag([0.0, 1.0]))
        assert not check.ok
        assert check.fenchel_gap == pytest.approx(2.0)

    def test_zero_x_accepts_any_contraction(self):
        rng = np.random.default_rng(22)
        y = random_orthogonal(rng, 3) @ np.diag([0.9, 0.4, 0.0]) @ random_orthogonal(rng, 3)
        assert is_subgradient_nuclear(np.zeros((3, 3)), y).ok


class TestSimultaneousSvd:
    def test_diagonal_example(self):
        dec = simultaneous_svd(np.diag([2.0, 0.0]), np.diag([1.0, 0.5]))
        assert dec.r == 1 and dec.p == 1
        assert dec.sigma_x == pytest.approx([2.0])
        assert dec.lambda_y == pytest.approx([0.5])
        assert np.allclose(dec.reconstruct_x(), np.diag([2.0, 0.0]), atol=1e-12)
        assert np.allclose(dec.reconstruct_y(), np.diag([1.0, 0.5]), atol=1e-12)
        assert dec.singular_values_y() == pytest.approx([1.0, 0.5])

    def test_zero_pair(self):
        dec = simultaneous_svd(np.zeros((2, 3)), np.zeros((2, 3)))
        assert dec.r == 0 and dec.p == 0
        assert np.allclose(dec.reconstruct_x(), 0.0)
        assert np.allclose(dec.reconstruct_y(), 0.0)

    def test_random_pairs_recovered(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            dec = simultaneous_svd(x, y)
            scale = 1.0 + nuclear_norm(x)
            assert np.linalg.norm(dec.reconstruct_x() - x) <= 1e-10 * scale
            assert np.linalg.norm(dec.reconstruct_y() - y) <= 1e-10 * scale
            # counts must match rank and unit multiplicity computed directly
            sx = np.linalg.svd(x, compute_uv=False)
            sy = np.linalg.svd(y, compute_uv=False)
            assert dec.r == int(np.sum(sx > 1e-9 * max(sx[0], 1e-300)))
            assert dec.p == int(np.sum(sy >= 1.0 - 1e-7))
            assert dec.r <= dec.p
            # frames are orthogonal
            assert np.allclose(dec.ubar.T @ dec.ubar, np.eye(n1), atol=1e-10)
            assert np.allclose(dec.vbar.T @ dec.vbar, np.eye(n2), atol=1e-10)

    def test_off_graph_pair_rejected(self):
        with pytest.raises(NotASubgradientError):
            simultaneous_svd(np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))

    def test_misaligned_pair_fails_reconstruction(self):
        # A dual rotated by 0.01 rad: x is not the prox of x + y, and the
        # gap between the two decides the verdict at each tolerance.
        c, s = np.cos(0.01), np.sin(0.01)
        rot = np.array([[c, -s], [s, c]])
        x = np.diag([2.0, 0.0])
        y = rot @ np.diag([1.0, 0.5])
        with pytest.raises(NotASubgradientError) as info:
            simultaneous_svd(x, y, tol=1e-3)
        assert info.value.residual == pytest.approx(6.69e-3, abs=5e-6)
        dec = simultaneous_svd(x, y, tol=0.05)
        assert dec.residual == info.value.residual
        assert dec.r == dec.p == 1

    def test_factors_the_pair_once(self, monkeypatch):
        real = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        rng = np.random.default_rng(29)
        for n1, n2 in [(1, 1), (2, 2), (2, 5), (4, 3), (10, 10)]:
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            calls.clear()
            simultaneous_svd(x, y)
            assert calls == [(n1, n2)]
            calls.clear()
            with pytest.raises(NotASubgradientError):
                simultaneous_svd(x, np.full((n1, n2), 3.0))  # spectral norm above 1
            assert calls == [(n1, n2)]

    def test_rank_of_a_small_primal_is_read_without_cancellation(self):
        # s - 1 would keep only about four digits of these values; the
        # diagonal of U_p^T x V_p keeps about eight.
        rng = np.random.default_rng(30)
        u, v = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
        sigma = np.array([3e-12, 1e-12])
        x = (u[:, :2] * sigma) @ v[:, :2].T
        y = (u * np.array([1.0, 1.0, 0.4])) @ v.T
        dec = simultaneous_svd(x, y)
        assert dec.r == dec.p == 2
        np.testing.assert_allclose(dec.sigma_x, sigma, rtol=1e-7)
        assert dec.lambda_y == pytest.approx([0.4])

    def test_loose_tolerance_keeps_near_unit_directions(self):
        # Identity frames, a dual value of 0.9999 and a primal value of 0:
        # the loose tolerance counts that direction as a unit one.
        x = np.diag([1.0, 0.0])
        y = np.diag([1.0, 0.9999])
        dec = simultaneous_svd(x, y, tol=1e-3)
        assert (dec.r, dec.p) == (1, 2)
        assert dec.residual == 0.0
        assert dec.lambda_y.size == 0
        dec = simultaneous_svd(x, y)
        assert (dec.r, dec.p) == (1, 1)
        assert dec.lambda_y == pytest.approx([0.9999])


class TestCountsAndGamma:
    def test_p_count(self):
        assert p_count(np.diag([1.0, 0.5])) == 1
        assert p_count(np.diag([1.0, 1.0])) == 2
        assert p_count(np.diag([0.8, 0.3])) == 0
        assert p_count(np.zeros((2, 2))) == 0

    def test_gamma(self):
        zero = np.zeros((2, 2))
        assert simultaneous_svd(zero, np.diag([1.0, 0.5])).gamma == pytest.approx(0.5)
        assert simultaneous_svd(zero, np.diag([1.0, 1.0])).gamma == 0.0
        assert simultaneous_svd(zero, np.diag([0.8, 0.3])).gamma == pytest.approx(0.8)


class TestTangentBasis:
    def test_identity_frame_example(self):
        x = np.zeros((2, 3))
        x[0, 0] = 2.0
        x[1, 1] = 1.0
        y = x.copy()
        y[0, 0], y[1, 1] = 1.0, 1.0
        dec = simultaneous_svd(x, y)
        assert dec.p == 2
        basis = tangent_subspace_basis(dec)
        assert basis.shape == (6, 3)
        s = 1.0 / np.sqrt(2.0)
        expected = [
            np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
            np.array([0.0, s, 0.0, s, 0.0, 0.0]),
        ]
        for target in expected:
            hits = [
                i
                for i in range(3)
                if np.allclose(basis[:, i], target, atol=1e-12)
                or np.allclose(basis[:, i], -target, atol=1e-12)
            ]
            assert len(hits) == 1, target

    def test_matches_the_outer_product_loop(self):
        # The frame products give every column the bytes np.outer gave it.
        rng = np.random.default_rng(25)
        ps = set()
        for _ in range(300):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            dec = simultaneous_svd(*random_nuclear_graph_pair(rng, n1, n2))
            basis = tangent_subspace_basis(dec)
            # The layout too: a product with the basis rounds by it.
            assert basis.dtype == np.float64 and basis.flags.c_contiguous
            assert np.array_equal(basis, tangent_subspace_basis_loop(dec))
            ps.add(dec.p)
        assert ps == {0, 1, 2, 3, 4, 5}

    def test_dimension_and_orthonormality(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            dec = simultaneous_svd(x, y)
            basis = tangent_subspace_basis(dec)
            d = dec.p * (dec.p + 1) // 2
            assert basis.shape == (n1 * n2, d)
            assert np.allclose(basis.T @ basis, np.eye(d), atol=1e-10)
            # every column is ubar1 @ S @ vbar1.T with S symmetric
            shape = NuclearShape(n1, n2)
            for i in range(d):
                m = shape.as_matrix(basis[:, i])
                core = dec.ubar.T @ m @ dec.vbar
                assert np.allclose(core[dec.p :, :], 0.0, atol=1e-10)
                assert np.allclose(core[:, dec.p :], 0.0, atol=1e-10)
                top = core[: dec.p, : dec.p]
                assert np.allclose(top, top.T, atol=1e-10)


class TestInverseDistance:
    def test_psd_clamp_block(self):
        dec = simultaneous_svd(np.diag([3.0, 0.0]), np.diag([1.0, 0.5]))
        assert inverse_subdiff_distance(np.array([[-2.0, 0.0], [0.0, 0.0]]), dec) == pytest.approx(2.0)

    def test_off_block_mass(self):
        dec = simultaneous_svd(np.diag([3.0, 0.0]), np.diag([1.0, 0.5]))
        assert inverse_subdiff_distance(np.diag([3.0, 0.5]), dec) == pytest.approx(0.5)

    def test_member_has_zero_distance(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            dec = simultaneous_svd(x, y)
            if dec.p == 0:
                assert inverse_subdiff_distance(np.zeros((n1, n2)), dec) == pytest.approx(0.0)
                continue
            g = rng.standard_normal((dec.p, dec.p))
            z = g @ g.T  # psd coefficient block
            member = dec.ubar[:, : dec.p] @ z @ dec.vbar[:, : dec.p].T
            assert inverse_subdiff_distance(member, dec) <= 1e-10 * (1 + np.linalg.norm(z))

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            xg, yg = random_nuclear_graph_pair(rng, n1, n2)
            dec = simultaneous_svd(xg, yg)
            a = rng.standard_normal((n1, n2)) * rng.uniform(0.2, 3.0)
            fast = inverse_subdiff_distance(a, dec)
            slow = nuclear_cone_distance_oracle(a, dec)
            assert fast == pytest.approx(slow, abs=1e-8)


class TestQuadraticGrowthInvariant:
    def test_sampled_growth_never_negative(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(150):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            xbar, ybar = random_nuclear_graph_pair(rng, n1, n2)
            dec = simultaneous_svd(xbar, ybar)
            gamma = dec.gamma
            for _ in range(5):
                x = xbar + rng.standard_normal((n1, n2)) * rng.uniform(0.1, 2.0)
                nn = nuclear_norm(x)
                if nn < 1e-12:
                    continue
                lhs = nn - float(np.sum(ybar * x))
                d = inverse_subdiff_distance(x, dec)
                tight = (1.0 - gamma**2) / (2.0 * nn * (1.0 + (1.0 + gamma) ** 2))
                coarse = (1.0 - gamma) / (5.0 * nn)
                assert lhs - tight * d * d >= -1e-9
                assert lhs - coarse * d * d >= -1e-9
                checked += 1
        assert checked > 600


class TestRelativeApprox:
    def test_worked_example_push_one(self):
        x = np.diag([5.0, 0.0])
        y = np.diag([1.0, 0.9])
        lam, yhat, ytilde = relative_approx_nuclear(x, y, 2)
        assert lam == pytest.approx(0.9)
        assert np.allclose(yhat, np.eye(2), atol=1e-12)
        assert np.allclose(ytilde, np.diag([1.0, 0.0]), atol=1e-12)

    def test_worked_example_from_zero(self):
        x = np.zeros((2, 2))
        y = np.diag([0.95, 0.2])
        lam, yhat, ytilde = relative_approx_nuclear(x, y, 1)
        assert lam == pytest.approx(0.95)
        assert np.allclose(yhat, np.diag([1.0, 0.2]), atol=1e-12)
        assert np.allclose(ytilde, np.diag([0.0, 0.2]), atol=1e-12)

    def test_nothing_to_push(self):
        x = np.diag([2.0, 0.0])
        y = np.diag([1.0, 0.5])
        lam, yhat, ytilde = relative_approx_nuclear(x, y, 1)
        assert lam == 1.0
        assert np.allclose(yhat, y) and np.allclose(ytilde, y)

    def test_convex_combination_identity(self):
        rng = np.random.default_rng(28)
        for _ in range(60):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            q = p_count(y)
            k = min(n1, n2)
            p_ref = int(rng.integers(q, k + 1))
            try:
                lam, yhat, ytilde = relative_approx_nuclear(x, y, p_ref)
            except InfeasibleApproximationError:
                pytest.fail("valid reference count rejected")
            assert 0.0 < lam <= 1.0
            assert np.allclose(lam * yhat + (1 - lam) * ytilde, y, atol=1e-9)
            assert p_count(yhat) >= p_ref
            assert is_subgradient_nuclear(x, yhat, tol=1e-8).ok
            assert is_subgradient_nuclear(x, ytilde, tol=1e-8).ok

    def test_more_units_than_reference_is_infeasible(self):
        x = np.diag([2.0, 0.0])
        y = np.eye(2)
        with pytest.raises(InfeasibleApproximationError):
            relative_approx_nuclear(x, y, 1)

    def test_reference_count_out_of_range(self):
        with pytest.raises(InfeasibleApproximationError):
            relative_approx_nuclear(np.zeros((2, 2)), np.zeros((2, 2)), 3)

    def test_off_graph_rejected(self):
        with pytest.raises(NotASubgradientError):
            relative_approx_nuclear(np.diag([2.0, 0.0]), np.diag([0.0, 1.0]), 1)
