"""The prox Jacobians against central differences, and the contract of the
solver's Newton finish: it keeps ``converged`` honest, counts its steps in
``iterations``, factors each Newton point once and falls back to FISTA
where the Newton system is singular or its point is not trusted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountingProx,
    fista_loop,
    random_group_instance,
    random_nuclear_instance,
    random_orthogonal,
    random_partition,
    solution_spread,
)
from stabcert.groupnorm import GroupPartition
from stabcert.nuclear import NuclearShape
from stabcert.solver import (
    NEWTON_STEPS,
    NEWTON_SWITCH,
    NEWTON_SWITCH_SETTLED,
    ProblemSpec,
    multistart_solve,
    objective,
    prox_gradient_solve,
)
from stabcert.stability import certify

seeds = st.integers(0, 2**32 - 1)
SHAPES = [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)]


def jacobian(reg, w, t):
    """The prox Jacobian at ``w``, built from the factorization of the prox."""
    return reg.prox(w, t)[2]()


def central_differences(reg, w, t, h=1e-6):
    jac = np.empty((reg.n, reg.n))
    for j in range(reg.n):
        e = np.zeros(reg.n)
        e[j] = h
        jac[:, j] = (reg.prox(w + e, t)[0] - reg.prox(w - e, t)[0]) / (2.0 * h)
    return jac


def group_point(rng, t):
    """A partition and a point whose blocks are zero, well below or well
    above ``t``: away from the kinks, where the prox is smooth."""
    part = random_partition(rng, int(rng.integers(1, 9)))
    w = np.zeros(part.n)
    for idx in part.index_arrays:
        kind = rng.integers(3)
        if kind == 0:
            continue
        u = rng.standard_normal(idx.size)
        size = t * (rng.uniform(0.0, 0.8) if kind == 1 else rng.uniform(1.2, 3.0))
        w[idx] = size * u / np.linalg.norm(u)
    return part, w


def nuclear_point(rng, shape, t):
    """A matrix whose singular values are zero, below or above ``t`` (away
    from it) and may repeat."""
    n1, n2 = shape
    k = min(n1, n2)
    pool = [0.0, t * rng.uniform(0.0, 0.8), t * rng.uniform(1.2, 3.0), t * rng.uniform(1.2, 3.0)]
    s = np.sort(rng.choice(pool, size=k))[::-1]
    u = random_orthogonal(rng, n1)[:, :k]
    v = random_orthogonal(rng, n2)[:, :k]
    return NuclearShape(n1, n2), ((u * s) @ v.T).ravel()


def points(kind, seed, t):
    rng = np.random.default_rng(seed)
    if kind == "group":
        return group_point(rng, t)
    return nuclear_point(rng, SHAPES[int(rng.integers(len(SHAPES)))], t)


class TestProxJacobian:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["group", "nuclear"]), seeds, st.floats(0.1, 2.0))
    def test_matches_central_differences(self, kind, seed, t):
        reg, w = points(kind, seed, t)
        jac = jacobian(reg, w, t)
        assert jac.shape == (reg.n, reg.n)
        np.testing.assert_allclose(jac, central_differences(reg, w, t), rtol=0.0, atol=1e-7)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["group", "nuclear"]), seeds, st.floats(0.0, 3.0))
    def test_symmetric_with_spectrum_in_the_unit_interval(self, kind, seed, t):
        # The prox of a convex function is the gradient of a convex function
        # and firmly nonexpansive: its Jacobian is symmetric, 0 <= J <= I.
        rng = np.random.default_rng(seed)
        reg = (random_group_instance if kind == "group" else random_nuclear_instance)(rng).reg
        w = rng.standard_normal(reg.n) * rng.uniform(0.1, 3.0)
        jac = jacobian(reg, w, t)
        np.testing.assert_allclose(jac, jac.T, rtol=0.0, atol=1e-12)
        eig = np.linalg.eigvalsh(0.5 * (jac + jac.T))
        assert eig.min() >= -1e-12 and eig.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nuclear_repeated_values_and_transpose(self, shape):
        rng = np.random.default_rng(sum(shape))
        reg, w = nuclear_point(rng, shape, 0.5)
        jac = jacobian(reg, w, 0.5)
        np.testing.assert_allclose(jac, central_differences(reg, w, 0.5), rtol=0.0, atol=1e-7)
        # The transposed problem has the transposed Jacobian.
        swap = np.arange(reg.n).reshape(reg.n1, reg.n2).T.ravel()
        flipped = jacobian(NuclearShape(reg.n2, reg.n1), w[swap], 0.5)
        np.testing.assert_allclose(flipped, jac[np.ix_(swap, swap)], rtol=0.0, atol=1e-12)

    def test_zero_element_at_a_kink(self):
        part = GroupPartition(3, ((0,), (1, 2)))
        jac = jacobian(part, np.array([0.5, 3.0, 4.0]), 0.5)
        assert np.all(jac[0] == 0.0) and np.all(jac[:, 0] == 0.0)
        unit = np.array([0.6, 0.8])
        expected = (1.0 - 0.1) * np.eye(2) + 0.1 * np.outer(unit, unit)
        np.testing.assert_allclose(jac[1:, 1:], expected, rtol=0.0, atol=1e-15)
        # A nuclear singular value at the threshold: that direction is dropped.
        assert np.all(jacobian(NuclearShape(1, 1), np.array([0.5]), 0.5) == 0.0)


def newton_matrix(spec, x):
    """``I - J(w) (I - step gram)`` at ``x``, ``w`` the forward step from ``x``."""
    step = spec.mu / spec.sigma_max**2
    w = x - step * (spec.gram @ x - spec.phi_tb)
    jac = jacobian(spec.reg, w, step)
    return np.eye(spec.n) - jac @ (np.eye(spec.n) - step * spec.gram)


def twin_columns_group(rng):
    """Two equal columns under singleton blocks next to three generic ones:
    a segment of minimizers, and a Newton matrix with two equal rows."""
    col = rng.standard_normal(3)
    phi = np.column_stack([col, col, rng.standard_normal((3, 3))])
    return ProblemSpec(phi, 2.0 * rng.standard_normal(3), 0.3, GroupPartition.singletons(5))


def blind_nuclear(rng, n):
    """A design blind to a traceless direction of the full-rank solution's
    frames, with uneven row scales so that FISTA converges only linearly."""
    u, v = random_orthogonal(rng, n), random_orthogonal(rng, n)
    s = np.zeros((n, n))
    s[0, 0], s[1, 1] = 1.0, -1.0
    kernel = (u @ s @ v.T).ravel() / np.sqrt(2.0)
    basis = np.linalg.qr(np.column_stack([kernel, rng.standard_normal((n * n, n * n - 1))]))[0]
    phi = rng.uniform(0.3, 1.0, n * n - 1)[:, None] * basis[:, 1:].T
    mu = 0.7
    xbar = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T
    # phi^T (b - phi xbar) / mu = u v^T, orthogonal to the kernel: xbar solves.
    b = phi @ xbar.ravel() + mu * np.linalg.lstsq(phi.T, (u @ v.T).ravel(), rcond=None)[0]
    return ProblemSpec(phi, b, mu, NuclearShape(n, n))


KINDS = {"group": random_group_instance, "nuclear": random_nuclear_instance}


def warm_kept_attempts(make, monkeypatch, count=40):
    """Solves of ``count`` instances from a start 1e-5 off their solution,
    keeping those whose only work is one FISTA step and one kept Newton
    attempt: ``(counting regularizer, result, np.linalg.svd calls)``."""
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    rng = np.random.default_rng(5)
    for _ in range(count):
        base = make(rng)
        x0 = prox_gradient_solve(base).x + 1e-5 * rng.standard_normal(base.n)
        reg = CountingProx(base.reg)
        spec = ProblemSpec(base.phi, base.b, base.mu, reg)
        spec.sigma_max  # factor phi before counting
        monkeypatch.setattr(np.linalg, "svd", counted)
        calls.clear()
        res = prox_gradient_solve(spec, x0=x0)
        monkeypatch.setattr(np.linalg, "svd", svd)
        if res.converged and res.newton_steps >= 1 and res.iterations == 1 + res.newton_steps:
            yield reg, res, len(calls)


class TestNewtonFinish:
    def test_one_factorization_per_nuclear_newton_point(self, monkeypatch):
        # Every SVD of a nuclear solve is a prox or a value: each Newton
        # step builds one Jacobian from the factorization of its prox, so
        # an attempt of s steps factors s + 1 points.
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        rng = np.random.default_rng(31)
        steps = 0
        for _ in range(16):
            base = random_nuclear_instance(rng)
            reg = CountingProx(base.reg)
            spec = ProblemSpec(base.phi, base.b, base.mu, reg)
            spec.sigma_max  # factor phi before counting
            x0 = rng.standard_normal(spec.n)
            monkeypatch.setattr(np.linalg, "svd", counted)
            calls.clear()
            res = prox_gradient_solve(spec, x0=x0)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert res.converged
            assert len(calls) == reg.prox_calls + reg.value_calls
            assert reg.jacobian_builds == res.newton_steps
            steps += res.newton_steps
        assert steps >= 16

    @pytest.mark.parametrize("kind", ["group", "nuclear"])
    def test_a_warm_kept_attempt_takes_one_prox_per_step_and_one_more(self, kind, monkeypatch):
        # A start 1e-5 off the solution: the first FISTA step reuses the
        # start's prox and moves by at most NEWTON_SWITCH, and the attempt
        # starts where that step did, from the prox the step already took.
        # A solve whose only work is one kept attempt of s steps thus takes
        # s + 2 proxes: the start's, one per Newton point and one at the
        # kept point.
        kept = 0
        for reg, res, _ in warm_kept_attempts(KINDS[kind], monkeypatch):
            assert reg.prox_calls == res.newton_steps + 2
            assert reg.value_calls == 1
            kept += 1
        assert kept >= 30

    def test_a_kept_nuclear_attempt_factors_s_plus_one_points(self, monkeypatch):
        # The start's g and prox take one SVD each; a kept attempt of s
        # steps factors its s Newton points and the kept point.
        kept = 0
        for _, res, svds in warm_kept_attempts(random_nuclear_instance, monkeypatch):
            assert svds == 2 + res.newton_steps + 1
            kept += 1
        assert kept >= 30

    def test_scaled_reference_instance_returns_a_prox_point(self):
        # The bundled instance with (b, mu) scaled by 1e3.  The Newton
        # iterate that reaches tol has x[2] = -2.7e-13 in a block whose
        # dual has norm exactly 1, so certify rejected it (residual 2.0);
        # its prox point has that block at exact 0.
        phi = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
        spec = ProblemSpec(phi, 1e3 * np.array([2.0, -1.0]), 1e3, GroupPartition(3, ((0, 1), (2,))))
        res = prox_gradient_solve(spec)
        assert res.converged and res.newton_steps >= 1
        assert res.x[2] == 0.0
        step = spec.step
        point = spec.reg.prox(res.x - step * (spec.gram @ res.x - spec.phi_tb), step)[0]
        assert res.fixed_point_residual == float(np.linalg.norm(res.x - point))
        assert res.objective == pytest.approx(objective(spec, res.x), rel=1e-12)
        cert = certify(spec, res.x)
        assert cert.holds and cert.kkt_residual <= 1e-12

    def test_guard_keeps_a_finish_a_few_ulps_above(self, monkeypatch):
        # A 1x2 instance scaled by 1e3: from this start, the Newton prox
        # point is a fixed point of T, but its objective reads a few ulps
        # above that of the FISTA point the attempt began at.
        phi = np.array([[-0.9246979696322104, 0.06873796859826908]])
        part = GroupPartition(2, ((1,), (0,)))
        spec = ProblemSpec(phi, np.array([-1081.4341902337476]), 374.1385807154498, part)
        x0 = np.array([-123.2, 26.7])
        res = prox_gradient_solve(spec, x0=x0)
        assert res.converged and res.newton_steps == 1
        assert res.iterations == 6
        assert res.fixed_point_residual == 0.0
        assert certify(spec, res.x).holds
        # An exact comparison throws that finish away, and the solve needs
        # 6 more iterations and a second attempt.
        monkeypatch.setattr(np, "spacing", lambda a: 0.0 * a)
        exact = prox_gradient_solve(spec, x0=x0)
        assert exact.converged and exact.newton_steps == 2
        assert exact.iterations == 12

    def test_rank_one_designs_from_random_starts_agree(self):
        # One row, random starts: the Newton system is singular along the
        # design's null space, and near it a step can land ~1e15 away, where
        # the step and the shrink both round to the point itself and the
        # residual reads 0.  The objective guard throws such points away.
        polished = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            part = random_partition(rng, n)
            phi = rng.standard_normal((1, n))
            b = rng.standard_normal(1)
            top = max(float(np.linalg.norm((phi.T @ b)[idx])) for idx in part.index_arrays)
            spec = ProblemSpec(phi, b, float(rng.uniform(0.2, 0.7)) * top, part)
            starts = [np.zeros(n)] + [rng.standard_normal(n) for _ in range(4)]
            results = multistart_solve(spec, starts)
            assert all(r.converged for r in results)
            assert solution_spread(results) <= 1e-6
            polished += sum(r.newton_steps > 0 for r in results)
        assert polished >= 400

    @pytest.mark.parametrize("kind", ["group", "nuclear"])
    def test_singular_newton_system_falls_back_to_fista(self, kind):
        singular = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            spec = twin_columns_group(rng) if kind == "group" else blind_nuclear(rng, 2 + seed % 2)
            starts = [rng.standard_normal(spec.n) * 2.0 for _ in range(4)]
            results = multistart_solve(spec, starts)
            for r in results:
                assert r.converged and r.fixed_point_residual <= 1e-10
                # A thrown-away first attempt leaves room for a second.
                assert 1 <= r.newton_steps <= 2 * NEWTON_STEPS
                assert r.objective == pytest.approx(objective(spec, r.x), rel=1e-12)
                sv = np.linalg.svd(newton_matrix(spec, r.x), compute_uv=False)
                singular += bool(sv[-1] <= 1e-12 * sv[0])
            values = [r.objective for r in results]
            assert max(values) - min(values) <= 1e-9
        assert singular >= 12

    def test_a_thrown_away_first_attempt_leaves_a_second(self):
        # The first attempt starts at iteration 2, where the step is short
        # and the prox keeps the same blocks.  On this one-row design its
        # Newton system is numerically singular: the first step is ~1e16
        # times the residual it corrects, so the attempt ends after that
        # one step, and FISTA goes on as if it had not been made.  The
        # second starts at the first step of at most NEWTON_SWITCH and is
        # kept after one step.
        spec = ProblemSpec(
            np.array([[-1.04, 0.77]]), np.array([-0.16]), 0.08, GroupPartition.singletons(2)
        )
        _, first, _, _ = fista_loop(
            spec, tol=0.0, switch=NEWTON_SWITCH, settled=NEWTON_SWITCH_SETTLED
        )
        _, second, _, _ = fista_loop(spec, tol=0.0, switch=NEWTON_SWITCH)
        assert (first, second) == (2, 7)
        res = prox_gradient_solve(spec)
        assert res.converged and res.fixed_point_residual <= 1e-10
        assert res.newton_steps == 1 + 1
        assert res.iterations == second + res.newton_steps == 9
        # FISTA alone, as after a single thrown-away attempt, takes 19.
        assert fista_loop(spec)[1] == 19
        assert certify(spec, res.x).holds

    @pytest.mark.parametrize("kind", ["group", "nuclear"])
    def test_newton_steps_count_against_max_iter(self, kind):
        make = random_group_instance if kind == "group" else random_nuclear_instance
        rng = np.random.default_rng(23)
        capped = 0
        for _ in range(6):
            spec = make(rng)
            x0 = rng.standard_normal(spec.n)
            full = prox_gradient_solve(spec, x0=x0)
            if not full.newton_steps:
                continue
            # The first attempt begins after this many FISTA iterations.
            _, switch, _, _ = fista_loop(
                spec, x0=x0, tol=0.0, switch=NEWTON_SWITCH, settled=NEWTON_SWITCH_SETTLED
            )
            accepted = full.iterations == switch + full.newton_steps
            at_switch = prox_gradient_solve(spec, x0=x0, max_iter=switch)
            for budget in range(NEWTON_STEPS + 1):
                res = prox_gradient_solve(spec, x0=x0, max_iter=switch + budget)
                assert res.iterations <= switch + budget
                assert res.newton_steps == min(budget, full.newton_steps)
                if budget < full.newton_steps:
                    # Cut short: the attempt is thrown away, and no FISTA
                    # iteration is left to run.
                    assert res.iterations == switch + budget
                    assert np.array_equal(res.x, at_switch.x)
                    assert not res.converged
                    capped += 1
                elif accepted:
                    assert np.array_equal(res.x, full.x)
        assert capped >= 3
