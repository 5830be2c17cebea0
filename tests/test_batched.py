"""Batched kernels and the batched growth audit against the loops they
replaced (kept in ``helpers``), the solver loop against the plain FISTA
loop, and value semantics of the result types."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountingProx,
    block_norms_loop,
    fista_loop,
    group_distance_loop,
    group_norm_loop,
    group_snap_loop,
    nuclear_distance_loop,
    nuclear_norm_loop,
    prox_group_loop,
    qg_audit_loop,
    random_group_instance,
    random_nuclear_graph_pair,
    random_nuclear_instance,
    random_partition,
    subgrad_residual_loop,
    zero_ref,
)
from stabcert.groupnorm import (
    GroupPartition,
    block_norms,
    group_norm,
    prox_group,
    subgrad_residual,
)
from stabcert.groupnorm import inverse_subdiff_distance as group_distance
from stabcert.linalg import psd_project
from stabcert.nuclear import NuclearShape, nuclear_norm, simultaneous_svd
from stabcert.nuclear import inverse_subdiff_distance as nuclear_distance
from stabcert.solver import (
    NEWTON_STEPS,
    NEWTON_SWITCH_FIRST,
    ProblemSpec,
    objective,
    prox_gradient_solve,
)
from stabcert.stability import (
    _ball_samples,
    certify,
    empirical_lipschitz,
    qg_audit,
    snap_to_graph,
)

RTOL = 1e-12
seeds = st.integers(0, 2**32 - 1)


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL)


def spy_svd(monkeypatch):
    """The list of the inputs of every ``np.linalg.svd`` call from now on."""
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append(a.copy())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def planted_stack(rng, k, m, spectra):
    """``(S, k, m)`` matrices ``U diag(s) V^T`` with the given spectra ``s``
    and random frames."""
    u = np.linalg.qr(rng.standard_normal((len(spectra), k, k)))[0]
    v = np.linalg.qr(rng.standard_normal((len(spectra), m, k)))[0]
    return (u * spectra[:, None, :]) @ v.transpose(0, 2, 1)


def assert_within_gram_budget(norms, mats):
    """Each value within ``RTOL ||X||_F`` of the per-matrix SVD."""
    expected = np.array([nuclear_norm_loop(x) for x in mats])
    assert np.all(np.abs(norms - expected) <= RTOL * np.linalg.norm(mats, axis=(1, 2)))


def group_case(rng, rows=7):
    """A random partition, a batch with zero blocks, and a dual with unit,
    zero and interior blocks."""
    part = random_partition(rng, int(rng.integers(1, 13)))
    x = rng.standard_normal((rows, part.n)) * rng.uniform(0.1, 3.0)
    y = rng.standard_normal(part.n)
    for idx in part.index_arrays:
        x[rng.random(rows) < 0.3, idx[:, None]] = 0.0
        kind = rng.integers(3)
        if kind == 0:
            y[idx] /= np.linalg.norm(y[idx])
        elif kind == 1:
            y[idx] = 0.0
        else:
            y[idx] *= rng.uniform(0.0, 0.99) / np.linalg.norm(y[idx])
    return part, x, y


class TestGroupKernels:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_match_block_loops(self, seed):
        rng = np.random.default_rng(seed)
        part, x, y = group_case(rng)
        close(block_norms(x, part), [block_norms_loop(r, part) for r in x])
        close(group_norm(x, part), [group_norm_loop(r, part) for r in x])
        # No block of y is above norm 1, so (0, y) is a graph pair.
        unit_ref = zero_ref(y, part)
        close(group_distance(x, unit_ref), [group_distance_loop(r, y, part) for r in x])
        for r in x:
            assert isinstance(group_norm(r, part), float)
            close(block_norms(r, part), block_norms_loop(r, part))
            close(group_distance(r, unit_ref), group_distance_loop(r, y, part))
            close(subgrad_residual(r, y, part), subgrad_residual_loop(r, y, part))
            for t in (0.0, float(rng.uniform(0.0, 2.0)), 1e3):
                (out, _, _), ref = prox_group(r, t, part), prox_group_loop(r, t, part)
                close(out, ref)
                assert np.array_equal(np.signbit(out), np.signbit(ref))
            # A pair within tol of the graph: the loop's graph pair, moved
            # by 1e-12 everywhere but on its zero primal blocks.
            xg, yg = group_snap_loop(part, r, y)
            xn = xg + 1e-12 * rng.standard_normal(part.n) * (xg != 0.0)
            yn = yg + 1e-12 * rng.standard_normal(part.n)
            xs, ys, _ = snap_to_graph(part, xn, yn)
            xr, yr = group_snap_loop(part, xn, yn)
            close(xs, xr)
            close(ys, yr)
            assert np.array_equal(xs == 0.0, xr == 0.0)

    def test_prox_at_the_threshold_matches_the_loop(self):
        # Blocks whose norm is exactly t, above it and below it; a negative
        # entry at t must come out as +0.0, not -0.0.
        part = GroupPartition(4, ((0,), (1, 2), (3,)))
        for t in (0.0, 0.5, 1.3):
            x = np.array([-t, 3.0 * t, 4.0 * t, -0.5 * t])
            out, value, _ = prox_group(x, t, part)
            assert out.tobytes() == prox_group_loop(x, t, part).tobytes()
            assert value == pytest.approx(group_norm_loop(out, part), rel=1e-12, abs=1e-12)

    def test_block_ids(self):
        part = GroupPartition(5, ((3, 0), (4,), (1, 2)))
        assert part.seg.tolist() == [0, 2, 2, 0, 1]
        rows = np.arange(10.0).reshape(2, 5)
        assert part.block_sums(rows).tolist() == [[3.0, 4.0, 3.0], [13.0, 9.0, 13.0]]


class TestNuclearKernels:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_match_matrix_loops(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = (int(v) for v in rng.integers(1, 5, size=2))
        # r = extra = 0 half the time: p = 0, an empty top block
        r = 0 if rng.random() < 0.5 else None
        xg, yg = random_nuclear_graph_pair(rng, n1, n2, r=r, extra_unit=0 if r == 0 else None)
        dec = simultaneous_svd(xg, yg)
        stack = rng.standard_normal((6, n1, n2))
        close(nuclear_norm(stack), [nuclear_norm_loop(m) for m in stack])
        close(nuclear_distance(stack, dec), [nuclear_distance_loop(m, dec) for m in stack])
        for m in stack:
            assert isinstance(nuclear_norm(m), float)
            close(nuclear_norm(m), nuclear_norm_loop(m))
            close(nuclear_distance(m, dec), nuclear_distance_loop(m, dec))
        squares = rng.standard_normal((4, n1, n1))
        close(psd_project(squares), [psd_project(s) for s in squares])

    def test_stacks_with_a_side_of_two_take_no_svd(self, monkeypatch):
        # Generic, near-rank-one and zero-column matrices across scales,
        # both orientations: the closed form, within a few ulps of ||X||_F
        # of the per-matrix SVD.  A zero matrix or a 1e200 entry (whose
        # square overflows) sends its own row to one SVD, with its value and
        # its LinAlgError; the other rows keep the closed form.
        calls = spy_svd(monkeypatch)
        rng = np.random.default_rng(11)
        for m in (2, 3, 7):
            near = rng.standard_normal((30, m, 1)) * rng.standard_normal((30, 1, 2))
            near += 10.0 ** rng.uniform(-17, -3, (30, 1, 1)) * rng.standard_normal((30, m, 2))
            zero_col = rng.standard_normal((4, m, 2))
            zero_col[:2, :, 0] = zero_col[2:, :, 1] = 0.0
            stack = np.concatenate([rng.standard_normal((30, m, 2)), near, zero_col])
            stack *= 10.0 ** rng.uniform(-100, 100, (len(stack), 1, 1))
            for mats in (stack, stack.transpose(0, 2, 1).copy()):
                rows = mats.reshape(len(mats), -1)
                calls.clear()
                norms = nuclear_norm(mats)
                scale = NuclearShape(*mats.shape[1:]).growth_scale(rows)
                assert not calls
                expected = [nuclear_norm_loop(x) for x in mats]
                ulps = np.spacing(np.linalg.norm(rows, axis=1))
                assert np.all(np.abs(norms - expected) <= 8.0 * ulps)
                assert np.array_equal(scale, norms)
                for index, value in ((np.s_[2], 0.0), (np.s_[2, 0, 1], 1e200)):
                    out = mats.copy()
                    out[index] = value
                    calls.clear()
                    norms = nuclear_norm(out)
                    assert len(calls) == 1
                    expected = np.array([nuclear_norm_loop(x) for x in out])
                    assert norms[2] == expected[2]
                    rest = np.arange(len(out)) != 2
                    ulps = np.spacing(np.linalg.norm(out[rest].reshape(len(out) - 1, -1), axis=1))
                    assert np.all(np.abs(norms - expected)[rest] <= 8.0 * ulps)
                out[4, 1, 1] = np.nan
                with pytest.raises(np.linalg.LinAlgError):
                    nuclear_norm(out)

    def test_well_conditioned_stacks_with_a_longer_short_side_take_no_svd(self, monkeypatch):
        # Planted spectra in [0.3, 1] times 10^[-100, 100], shorter side 3
        # to 6, both orientations: every value from the Gram eigenvalues,
        # within the budget of the per-matrix SVD.
        calls = spy_svd(monkeypatch)
        rng = np.random.default_rng(12)
        for k, m in ((3, 3), (3, 5), (4, 4), (4, 7), (5, 6), (6, 6)):
            spectra = rng.uniform(0.3, 1.0, (40, k))
            spectra *= 10.0 ** rng.uniform(-100, 100, (40, 1))
            stack = planted_stack(rng, k, m, spectra)
            for mats in (stack, stack.transpose(0, 2, 1).copy()):
                calls.clear()
                norms = nuclear_norm(mats)
                assert not calls
                assert_within_gram_budget(norms, mats)

    def test_only_the_rows_the_bound_rejects_take_the_svd(self, monkeypatch):
        # Rows with one singular value of 1e-17 to 1e-6 (the others in
        # [0.3, 1]), with all but the first that small, or with two such
        # values 1e-9 apart fail the rounding bound; spectra clustered
        # within 1e-12 away from 0 pass it.  One SVD takes exactly the
        # failing rows.
        calls = spy_svd(monkeypatch)
        rng = np.random.default_rng(13)
        for k, m in ((3, 3), (3, 6), (4, 5), (6, 8)):
            rows = 60
            spectra = rng.uniform(0.3, 1.0, (rows, k))
            kind = np.arange(rows) % 5
            tiny = 10.0 ** rng.uniform(-17, -6, (rows, k))
            spectra[kind == 1, -1] = tiny[kind == 1, -1]
            spectra[kind == 2, 1:] = tiny[kind == 2, 1:]
            spectra[kind == 3, -2:] = tiny[kind == 3, :1] * (1.0 + 1e-9 * np.arange(2))
            spectra[kind == 4] = rng.uniform(0.3, 1.0, (rows, 1))[kind == 4] * (
                1.0 + 1e-12 * rng.standard_normal(((kind == 4).sum(), k))
            )
            spectra *= 10.0 ** rng.uniform(-100, 100, (rows, 1))
            stack = planted_stack(rng, k, m, spectra)
            rejected = np.isin(kind, (1, 2, 3))
            for mats in (stack, stack.transpose(0, 2, 1).copy()):
                calls.clear()
                norms = nuclear_norm(mats)
                assert len(calls) == 1 and np.array_equal(calls[0], mats[rejected])
                assert_within_gram_budget(norms, mats)

    def test_gram_path_keeps_the_svd_edge_values(self):
        # A zero matrix gives 0, a row with an infinite entry gives NaN, one
        # whose Gram matrix overflows its SVD value, and the others their
        # norms, with no warning; a NaN entry raises LinAlgError.
        rng = np.random.default_rng(14)
        shape = NuclearShape(4, 3)
        stack = rng.standard_normal((10, 4, 3))
        stack[2] = 0.0
        stack[5, 1, 2] = np.inf
        stack[8, 3, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = nuclear_norm(stack)
        assert norms[2] == 0.0 and np.isnan(norms[5])
        assert norms[8] == nuclear_norm_loop(stack[8])
        keep = ~np.isin(np.arange(10), (5, 8))
        assert_within_gram_budget(norms[keep], stack[keep])
        rows = stack.reshape(10, -1)
        assert np.array_equal(shape.growth_scale(rows), norms, equal_nan=True)
        stack[7, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            nuclear_norm(stack)
        assert nuclear_norm(np.zeros((0, 3, 5))).shape == (0,)

    def test_empty_top_block(self):
        dec = simultaneous_svd(np.zeros((2, 3)), np.diag([0.5, 0.2]) @ np.eye(2, 3))
        assert dec.p == 0
        stack = np.arange(12.0).reshape(2, 2, 3)
        close(nuclear_distance(stack, dec), np.linalg.norm(stack, axis=(1, 2)))


def audit_case(kind):
    if kind == "group":
        part = GroupPartition(4, ((0, 1), (2,), (3,)))
        return part, np.array([0.6, 0.8, 0.0, 0.0]), np.array([0.6, 0.8, 1.0, 0.3])
    shape = NuclearShape(2, 3)
    xbar = np.diag([2.0, 0.0]) @ np.eye(2, 3)
    ybar = np.diag([1.0, 0.5]) @ np.eye(2, 3)
    return shape, xbar.ravel(), ybar.ravel()


def assert_same_audit(rep, loop):
    used, mins, min_slack, conj_min = loop
    assert rep.used == used
    assert list(rep.slack_by_constant) == list(mins)
    close(list(rep.slack_by_constant.values()), list(mins.values()))
    close(rep.min_slack, min_slack)
    if rep.conjecture_min_slack is not None:
        close(rep.conjecture_min_slack, conj_min)


class Planted:
    """A regularizer whose slacks at chosen samples are replaced."""

    def __init__(self, reg, plants):
        self.reg = reg
        self.plants = plants  # sample bytes -> {constant: slack}

    def __getattr__(self, name):
        return getattr(self.reg, name)

    def _plant(self, rows, out):
        for i, row in enumerate(rows):
            for name, value in self.plants.get(row.tobytes(), {}).items():
                if name in out:
                    out[name][i] = value
        return out

    def growth_scale(self, rows):
        return self._plant(rows, {"scale": np.array(self.reg.growth_scale(rows))})["scale"]

    def growth_slacks(self, rows, *args):
        out = self.reg.growth_slacks(rows, *args)
        return self._plant(rows, {k: np.array(v) for k, v in out.items()})


TIGHT, COARSE, CONJ = "nuclear_growth_tight", "nuclear_growth_coarse", "nuclear_growth_conjecture"
PLANTS = {
    "nan": {13: {TIGHT: math.nan}},
    "plus_inf": {13: {COARSE: math.inf}},
    "minus_inf": {13: {TIGHT: -math.inf}},
    "minus_inf_twice": {13: {TIGHT: -math.inf}, 27: {TIGHT: -math.inf}},
    "minus_inf_two_constants": {13: {TIGHT: -math.inf}, 27: {COARSE: -math.inf}},
    "after_nan": {13: {TIGHT: math.nan}, 20: {TIGHT: -1e3}, 27: {COARSE: -5.0}},
    "tie_in_row": {20: {TIGHT: -5.0, COARSE: -5.0}},
    "tie_across_rows": {13: {COARSE: -5.0}, 20: {TIGHT: -5.0}},
    "conjecture": {13: {CONJ: math.nan}, 20: {CONJ: -2.0}, 27: {CONJ: -math.inf}},
    "conjecture_inf": {13: {CONJ: math.inf}},
    "nan_scale": {13: {"scale": math.nan}},  # kept, and its slacks are NaN
}


class TestBatchedAudit:
    @pytest.mark.parametrize("kind", ["group", "nuclear"])
    @pytest.mark.parametrize("samples", [0, 1, 300])
    def test_matches_sample_loop(self, kind, samples):
        reg, xbar, ybar = audit_case(kind)
        args = (reg, xbar, ybar, samples, 1.5, 5, kind == "nuclear")
        assert_same_audit(qg_audit(*args), qg_audit_loop(*args))

    @pytest.mark.parametrize("case", sorted(PLANTS))
    def test_planted_slacks_keep_scan_semantics(self, case):
        shape, xbar, ybar = audit_case("nuclear")
        draws = xbar + _ball_samples(np.random.default_rng(3), shape.n, 40, 1.0)
        plants = {draws[k].tobytes(): v for k, v in PLANTS[case].items()}
        reg = Planted(shape, plants)
        rep = qg_audit(reg, xbar, ybar, 40, 1.0, 3, include_conjecture=True)
        assert_same_audit(rep, qg_audit_loop(reg, xbar, ybar, 40, 1.0, 3, True))
        # every planted audited slack is negative or not finite: the audit fails
        conjecture_only = all(name == CONJ for p in PLANTS[case].values() for name in p)
        assert rep.used == 40
        assert rep.passed == conjecture_only

    @pytest.mark.parametrize("planted", [-math.inf, math.inf, math.nan], ids=["-inf", "+inf", "nan"])
    def test_a_non_finite_slack_makes_its_constant_nan(self, planted):
        shape, xbar, ybar = audit_case("nuclear")
        draws = xbar + _ball_samples(np.random.default_rng(3), shape.n, 40, 1.0)
        clean = qg_audit(shape, xbar, ybar, 40, 1.0, 3, include_conjecture=True)
        plants = {draws[13].tobytes(): {TIGHT: planted}, draws[20].tobytes(): {COARSE: -5.0}}
        rep = qg_audit(Planted(shape, plants), xbar, ybar, 40, 1.0, 3, include_conjecture=True)
        assert math.isnan(rep.slack_by_constant[TIGHT])
        assert rep.slack_by_constant[COARSE] == -5.0
        assert math.isnan(rep.min_slack) and not rep.passed
        assert rep.conjecture_min_slack == clean.conjecture_min_slack


def forward_backward(spec, v):
    """``T(z) = prox_{g/L}(z - (gram z - phi^T b / mu - v) / L)``, as the solver builds it."""
    lin = spec.phi_tb + v
    lip = spec.sigma_max * spec.sigma_max / spec.mu
    step = 1.0 / lip

    def step_map(z):
        return spec.reg.prox(z - step * (spec.gram @ z - lin), step)[0]

    return step_map


KINDS = {"group": random_group_instance, "nuclear": random_nuclear_instance}


class TestSolverLoop:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_prox_per_iteration_and_the_oracle_solution(self, kind):
        # One prox per FISTA iteration and one per Newton step, plus one at
        # the start and one at a kept Newton point; an attempt opens on the
        # prox its FISTA step already took.  g is evaluated only at the
        # start: the prox returns it everywhere else.  Each Newton step
        # applies one derivative: none at the point the attempt ends on.
        rng = np.random.default_rng(17)
        prox_calls = iterations = polished = 0
        for _ in range(12):
            base = KINDS[kind](rng)
            reg = CountingProx(base.reg)
            spec = ProblemSpec(base.phi, base.b, base.mu, reg)
            v = rng.standard_normal(spec.n) * 10.0 ** rng.uniform(-4, -1)
            x0 = rng.standard_normal(spec.n)
            res = prox_gradient_solve(spec, v=v, x0=x0)
            assert res.converged
            assert reg.derivative_calls == res.newton_steps <= NEWTON_STEPS
            assert reg.value_calls <= 1 + (res.newton_steps > 0)
            polished += res.newton_steps > 0
            prox_calls += reg.prox_calls
            iterations += res.iterations
            x, _, _, _ = fista_loop(base, v=v, x0=x0)
            assert np.linalg.norm(res.x - x) <= 1e-8
            step_map = forward_backward(base, v)
            assert res.fixed_point_residual == float(np.linalg.norm(res.x - step_map(res.x)))
            assert res.fixed_point_residual <= 1e-10
            expected = objective(base, res.x) - float(v @ res.x)
            assert res.objective == pytest.approx(expected, rel=1e-12)
        assert prox_calls < 1.5 * iterations
        assert polished >= 10

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_iterates_follow_the_plain_loop(self, kind):
        # Same steps, momentum and restarts as fista_loop, up to rounding
        # (g from the prox), up to the switch
        # iteration; from there the Newton attempt reaches the oracle
        # solution.
        rng = np.random.default_rng(19)
        compared = polished = 0
        for _ in range(8):
            spec = KINDS[kind](rng)
            v = rng.standard_normal(spec.n) * 1e-2
            x0 = rng.standard_normal(spec.n)
            _, switch, _, _ = fista_loop(spec, v=v, x0=x0, tol=0.0, switch=NEWTON_SWITCH_FIRST)
            for k in (1, 4, 12, switch):
                if k > switch:
                    continue
                x, iterations, _, _ = fista_loop(spec, v=v, x0=x0, tol=0.0, max_iter=k)
                res = prox_gradient_solve(spec, v=v, x0=x0, tol=0.0, max_iter=k)
                assert res.iterations == iterations == k
                assert res.newton_steps == 0
                close(res.x, x)
                compared += 1
            res = prox_gradient_solve(spec, v=v, x0=x0)
            assert res.converged
            if res.newton_steps:
                # Accepted at once: the attempt began at the switch iteration.
                assert res.iterations == switch + res.newton_steps
                polished += 1
            x, _, _, _ = fista_loop(spec, v=v, x0=x0)
            assert np.linalg.norm(res.x - x) <= 1e-8
        assert compared >= 20
        assert polished >= 6

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_iteration_cap_reports_the_true_residual(self, kind):
        rng = np.random.default_rng(18)
        capped = 0
        for max_iter in (0, 1, 2, 5, 10):
            spec = KINDS[kind](rng)
            x0 = rng.standard_normal(spec.n)
            res = prox_gradient_solve(spec, x0=x0, max_iter=max_iter)
            assert res.iterations <= max_iter
            step_map = forward_backward(spec, np.zeros(spec.n))
            assert res.fixed_point_residual == float(np.linalg.norm(res.x - step_map(res.x)))
            assert res.converged == (res.fixed_point_residual <= 1e-10)
            capped += not res.converged
        assert capped

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.floats(1e-3, 1e3))
    def test_step_from_the_momentum_point_bounds_the_residual(self, kind, seed, scale):
        # The stopping rule: for z = T(m), ||z - T(z)|| <= ||m - z||.
        rng = np.random.default_rng(seed)
        spec = KINDS[kind](rng)
        step_map = forward_backward(spec, rng.standard_normal(spec.n) * 0.1)
        m = rng.standard_normal(spec.n) * scale
        z = step_map(m)
        bound = float(np.linalg.norm(m - z))
        assert float(np.linalg.norm(step_map(z) - z)) <= bound * (1.0 + 1e-12) + 1e-15

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(KINDS)), seeds, st.floats(1e-3, 1e3), st.floats(0.0, 3.0))
    def test_prox_value_is_the_norm_of_its_point(self, kind, seed, scale, t):
        rng = np.random.default_rng(seed)
        reg = KINDS[kind](rng).reg
        x = rng.standard_normal(reg.n) * scale
        point, value, _ = reg.prox(x, t * scale)
        # Near the threshold the point's norm is a difference, so rounding
        # is measured against the norm of the input.
        assert value == pytest.approx(reg.value(point), rel=1e-12, abs=1e-12 * reg.value(x))


class TestSharedOperator:
    def test_perturb_factors_phi_once(self, monkeypatch):
        spec = random_group_instance(np.random.default_rng(5))
        real_svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # The solve factors phi, and the probe and its samples reuse it.
        x = prox_gradient_solve(spec).x
        empirical_lipschitz(spec, x, radius_b=0.1, radius_mu=0.05, samples=4, starts=2)
        assert len(calls) == 1

    def test_with_data_matches_a_fresh_spec(self):
        spec = random_nuclear_instance(np.random.default_rng(6))
        b = spec.b + 0.1
        shared, fresh = spec.with_data(b, 0.7), ProblemSpec(spec.phi, b, 0.7, spec.reg)
        assert shared.sigma_max == fresh.sigma_max
        assert np.array_equal(shared.gram, fresh.gram)
        assert np.array_equal(shared.phi_tb, fresh.phi_tb)


def test_results_compare_by_identity():
    spec = ProblemSpec(
        np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]]),
        np.array([2.0, -1.0]),
        1.0,
        GroupPartition(3, ((0, 1), (2,))),
    )
    x = prox_gradient_solve(spec).x
    a, b = certify(spec, x), certify(spec, x)
    nuc = NuclearShape(2, 2).classify(np.diag([2.0, 0.0]).ravel(), np.diag([1.0, 0.5]).ravel())
    audit = qg_audit(spec.reg, x, -(spec.phi.T @ (spec.phi @ x - spec.b)), samples=5)
    for obj, other in ((a, b), (a.classification, b.classification), (nuc, None), (audit, None)):
        assert obj == obj
        assert obj != other
        assert isinstance(hash(obj), int)
