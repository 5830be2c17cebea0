import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    CountingProx,
    degenerate_group_instance,
    degenerate_nuclear_instance,
    empirical_lipschitz_single_start,
    group_v_basis_gram_schmidt,
    is_subgradient_nuclear,
    margin_and_witness_two_svds,
    mutual_projection_residual,
    perturb_ratio_loop,
    random_group_instance,
    random_nuclear_graph_pair,
    random_nuclear_instance,
    solution_spread,
    solution_spread_loop,
    tilt_probe_single_start,
    tilt_ratio_loop,
)
from stabcert import stability
from stabcert.errors import NotASolutionError, NotASubgradientError
from stabcert.groupnorm import (
    GroupPartition,
    group_norm,
    inverse_subdiff_distance,
    subgrad_residual,
)
from stabcert.linalg import UNIT_TOL, restricted_min_singular
from stabcert.nuclear import NuclearShape
from stabcert.solver import (
    ProblemSpec,
    dual_from_solution,
    multistart_solve,
    objective,
    prox_gradient_solve,
)
from stabcert.stability import (
    _largest_pair_ratio,
    _largest_ratio,
    _solution_derivative,
    certify,
    empirical_lipschitz,
    margin_tolerance,
    qg_audit,
    second_quotient_probe,
    snap_to_graph,
    tilt_probe,
)

PHI = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
PAIRS = GroupPartition(3, ((0, 1), (2,)))
XBAR = np.array([0.0, 1.0, 0.0])


def pairs_problem(b2=-1.0):
    return ProblemSpec(PHI, np.array([2.0, b2]), 1.0, PAIRS)


def identity_nuclear_problem():
    # fit is the identity on vectorized 2x2 matrices
    return ProblemSpec(np.eye(4), np.diag([3.0, 0.5]).ravel(), 1.0, NuclearShape(2, 2))


class TestCertifyGroup:
    def test_reference_instance(self):
        cert = certify(pairs_problem(), XBAR)
        assert cert.kind == "group"
        assert cert.holds
        assert cert.margin == pytest.approx(1.0, abs=1e-9)
        assert cert.subspace_dim == 2
        assert cert.gamma == 0.0
        assert cert.kkt_residual <= 1e-12
        assert cert.witness is None
        span = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert mutual_projection_residual(cert.classification.v_basis, span) <= 1e-8

    def test_nan_point_is_not_a_solution(self):
        # A NaN residual fails the subgradient check; it is not within tol.
        with pytest.raises(NotASolutionError, match="residual nan"):
            certify(pairs_problem(), np.full(3, np.nan))

    def test_single_group_margin(self):
        # one block of size two: the stability subspace is the dual ray only
        part = GroupPartition(2, ((0, 1),))
        spec = ProblemSpec(np.array([[1.0, 1.0]]), np.array([3.0]), 1.0, part)
        t = (3.0 * np.sqrt(2.0) - 1.0) / 2.0
        xbar = np.full(2, t / np.sqrt(2.0))
        cert = certify(spec, xbar)
        assert cert.holds
        assert cert.subspace_dim == 1
        assert cert.margin == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_injective_design_always_holds(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            phi = rng.standard_normal((n + 2, n))
            b = rng.standard_normal(n + 2)
            spec = ProblemSpec(phi, b, 1.0, GroupPartition.singletons(n))
            res = prox_gradient_solve(spec)
            xs, _, _ = snap_to_graph(spec.reg, res.x, res.y)
            cert = certify(spec, xs)
            assert cert.holds

    def test_degenerate_duplicated_columns(self):
        rng = np.random.default_rng(51)
        spec, xbar = degenerate_group_instance(rng, n=3)
        cert = certify(spec, xbar)
        assert not cert.holds
        assert cert.margin <= margin_tolerance(spec)
        assert cert.subspace_dim == 3
        w = cert.witness
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(spec.phi @ w) <= 1e-10

    def test_rejects_non_solution(self):
        with pytest.raises(NotASolutionError):
            certify(pairs_problem(), np.array([5.0, 5.0, 5.0]))

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_unique_solution_with_an_unstable_map(self, mu):
        # The lasso on phi = [1, 1] with b = mu: x = 0 is the unique
        # minimizer, and both duals sit on the unit sphere.  The objective
        # grows quadratically on the critical cone w >= 0, but phi kills
        # (1, -1) in its span, so the certificate fails with margin 0; any
        # b > mu has a segment of minimizers, x >= 0 with x1 + x2 = b - mu.
        spec = ProblemSpec([[1.0, 1.0]], [mu], mu, GroupPartition.singletons(2))
        res = prox_gradient_solve(spec)
        assert res.converged and res.x.tolist() == [0.0, 0.0]
        cert = certify(spec, res.x)
        assert not cert.holds and cert.margin == 0.0 and cert.subspace_dim == 2
        assert cert.classification.K == (0, 1) and cert.classification.I == ()
        w = cert.witness * np.sign(cert.witness[0])
        assert np.allclose(w, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)
        shifted = spec.with_data(np.array([mu + 0.1]), mu)
        starts = [np.array([3.0, -3.0]), np.zeros(2), np.array([-3.0, 3.0])]
        results = multistart_solve(shifted, starts)
        assert all(r.converged for r in results)
        assert solution_spread(results) >= 1e-3

    def test_margin_scales_with_data(self):
        # (c phi, c b, c^2 mu) leaves the solution fixed and scales the margin
        c = 3.7
        scaled = ProblemSpec(c * PHI, c * np.array([2.0, -1.0]), c * c, PAIRS)
        cert = certify(scaled, XBAR)
        base = certify(pairs_problem(), XBAR)
        assert cert.holds == base.holds
        assert cert.margin == pytest.approx(c * base.margin, rel=1e-12)
        assert cert.gamma == base.gamma

    @pytest.mark.xfail(
        strict=True,
        reason="a block whose dual norm is within tol of 1 counts as a boundary block",
    )
    def test_a_dual_just_below_one_is_no_boundary_block(self):
        # Parallel columns; b puts column 0 active with a unit dual, so at
        # the exact minimizer (1, 0) column 1's dual is exactly a < 1.  The
        # exact verdict holds with K = {0}, but certify takes K = (0, 1)
        # and fails with margin 5e-17.
        a = 1.0 - 5e-8
        phi = np.array([[1.0, a], [0.5, 0.5 * a]])
        mu, c0 = 0.5, phi[:, 0]
        b = mu * c0 / (c0 @ c0) + phi @ np.array([1.0, 0.0])
        cert = certify(ProblemSpec(phi, b, mu, GroupPartition.singletons(2)), np.array([1.0, 0.0]))
        assert cert.holds and cert.classification.K == (0,)


class TestCertifyNuclear:
    def test_identity_design(self):
        spec = identity_nuclear_problem()
        xbar = np.diag([2.0, 0.0]).ravel()
        cert = certify(spec, xbar)
        assert cert.kind == "nuclear"
        assert cert.holds
        assert cert.margin == pytest.approx(1.0, abs=1e-12)
        assert cert.subspace_dim == 1
        assert cert.gamma == pytest.approx(0.5)
        assert cert.classification.p == 1
        assert cert.classification.r == 1

    def test_annihilated_direction_fails(self):
        rng = np.random.default_rng(52)
        spec, xbar = degenerate_nuclear_instance(rng)
        cert = certify(spec, xbar.ravel())
        assert not cert.holds
        assert cert.subspace_dim == 3
        w = cert.witness
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(spec.phi @ w) <= 1e-10

    def test_matrix_and_vector_inputs_agree(self):
        spec = identity_nuclear_problem()
        a = certify(spec, np.diag([2.0, 0.0]))
        b = certify(spec, np.diag([2.0, 0.0]).ravel())
        assert a.margin == b.margin and a.subspace_dim == b.subspace_dim

    def test_nan_point_is_not_a_solution(self):
        # As for a group point: a NaN residual, before any factorization.
        with pytest.raises(NotASolutionError, match="residual nan"):
            certify(identity_nuclear_problem(), np.full(4, np.nan))


class TestSnapToGraph:
    def test_group_snap_lands_exactly(self):
        p = pairs_problem()
        res = prox_gradient_solve(p)
        xs, ys, _ = snap_to_graph(p.reg, res.x, res.y)
        assert subgrad_residual(xs, ys, p.reg) <= 1e-14
        assert xs[2] == 0.0  # sub-tolerance block zeroed
        assert np.linalg.norm(ys[:2]) == pytest.approx(1.0, abs=1e-15)  # active dual on the sphere

    def test_group_snap_pins_the_zero_blocks_classify_calls_boundary(self):
        part = GroupPartition.singletons(3)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([1.0, 0.9999, 0.5])
        xs, ys, info = part.snap(x, y, 1e-3)
        assert ys.tolist() == [1.0, 1.0, 0.5]
        assert info.K == (0, 1)
        # At the default tolerance the 0.9999 block is interior and stays.
        _, ys, info = part.snap(x, y)
        assert ys.tolist() == y.tolist() and info.K == (0,)
        # A tolerance of 1 or more calls every block boundary; a zero dual
        # block cannot be pinned and stays zero.
        _, ys, _ = part.snap(x, np.array([1.0, 0.0, 0.5]), 1.5)
        assert ys.tolist() == [1.0, 0.0, 1.0]

    def test_nuclear_snap_lands_exactly(self):
        p = identity_nuclear_problem()
        res = prox_gradient_solve(p)
        xs, ys, _ = snap_to_graph(p.reg, res.x, res.y)
        shape = p.reg
        check = is_subgradient_nuclear(shape.as_matrix(xs), shape.as_matrix(ys), tol=1e-12)
        assert check.ok


    @pytest.mark.parametrize("make", [random_group_instance, random_nuclear_instance])
    def test_snap_carries_the_classification_of_the_snapped_pair(self, make):
        rng = np.random.default_rng(41)
        for _ in range(15):
            p = make(rng)
            res = prox_gradient_solve(p)
            xs, ys, got = snap_to_graph(p.reg, res.x, res.y)
            again = p.reg.classify(xs, ys, 1e-7)
            assert type(got) is type(again)
            assert got.as_dict().keys() == again.as_dict().keys()
            for key, value in got.as_dict().items():
                if key == "kind":
                    assert value == again.as_dict()[key]
                else:
                    np.testing.assert_allclose(value, again.as_dict()[key], rtol=1e-12, atol=1e-12)
            assert got.gamma == pytest.approx(again.gamma, rel=1e-12, abs=1e-12)
            assert got.residual <= 1e-12
            assert mutual_projection_residual(got.v_basis, again.v_basis) <= 1e-8
            with_ref = qg_audit(p.reg, xs, ys, samples=200, seed=2, ref=got)
            without = qg_audit(p.reg, xs, ys, samples=200, seed=2)
            assert with_ref.passed == without.passed
            assert with_ref.min_slack == pytest.approx(without.min_slack, rel=1e-9, abs=1e-12)


class TestQgAudit:
    def test_slack_value_at_known_point(self):
        # scalar absolute value at (1, 1), candidate x = -0.5:
        # gap 1.0, distance to the ray 0.5, modulus 1 -> slack 0.75
        part = GroupPartition.singletons(1)
        xbar = np.array([1.0])
        ybar = np.array([1.0])
        x = np.array([-0.5])
        gap = group_norm(x, part) - group_norm(xbar, part) - float(ybar @ (x - xbar))
        dist = inverse_subdiff_distance(x, ybar, part)
        modulus = 1.0 / (2.0 * np.linalg.norm(x))
        assert gap - modulus * dist**2 == pytest.approx(0.75)

    def test_group_report(self):
        part = GroupPartition.singletons(1)
        rep = qg_audit(part, np.array([1.0]), np.array([1.0]), samples=500, radius=2.0, seed=3)
        assert rep.kind == "group"
        assert rep.passed
        assert rep.samples == 500
        assert 0 < rep.used <= 500
        assert rep.min_slack >= -1e-9
        assert list(rep.slack_by_constant) == ["group_growth"]
        assert rep.slack_by_constant["group_growth"] == rep.min_slack

    def test_nuclear_report_tracks_both_constants(self):
        rep = qg_audit(
            NuclearShape(2, 2),
            np.diag([2.0, 0.0]),
            np.diag([1.0, 0.5]),
            samples=500,
            radius=1.5,
            seed=4,
        )
        assert rep.kind == "nuclear"
        assert rep.passed
        assert set(rep.slack_by_constant) == {"nuclear_growth_tight", "nuclear_growth_coarse"}
        assert rep.min_slack >= -1e-9
        assert rep.conjecture_min_slack is None

    def test_conjecture_channel_is_separate(self):
        rep = qg_audit(
            NuclearShape(2, 2),
            np.diag([2.0, 0.0]),
            np.diag([1.0, 0.5]),
            samples=300,
            radius=1.5,
            seed=4,
            include_conjecture=True,
        )
        assert rep.conjecture_min_slack is not None
        assert "nuclear_growth_conjecture" not in rep.slack_by_constant
        # a conjecture dip must not flip the audit verdict
        assert rep.passed == (rep.min_slack >= -1e-9)

    def test_nuclear_audit_is_scale_covariant(self):
        # (xbar, ybar, radius) -> (c xbar, ybar, c radius) scales every
        # sample, ||X||_* and each slack by c.  The Gram path's error budget
        # is relative to ||X||_F and the slack floor is absolute, so the
        # verdict and the count must not move with c, nor the slacks / c.
        rng = np.random.default_rng(21)
        for n1, n2 in ((3, 3), (3, 5), (4, 4), (5, 4), (6, 3), (4, 6)):
            x, y = random_nuclear_graph_pair(rng, n1, n2)
            shape = NuclearShape(n1, n2)
            base = qg_audit(shape, x, y, samples=1000, seed=3, include_conjecture=True)
            assert base.passed and base.used == 1000
            for c in (1e-3, 1e3):
                rep = qg_audit(
                    shape, c * x, y, samples=1000, radius=c, seed=3, include_conjecture=True
                )
                assert (rep.passed, rep.used) == (base.passed, base.used)
                assert rep.min_slack / c == pytest.approx(base.min_slack, rel=1e-9)
                assert rep.conjecture_min_slack / c == pytest.approx(
                    base.conjecture_min_slack, rel=1e-9
                )
                for name, value in rep.slack_by_constant.items():
                    assert value / c == pytest.approx(base.slack_by_constant[name], rel=1e-9)

    def test_seed_determinism(self):
        part = GroupPartition.singletons(2)
        xbar = np.array([1.0, 0.0])
        ybar = np.array([1.0, 0.3])
        a = qg_audit(part, xbar, ybar, samples=200, seed=9)
        b = qg_audit(part, xbar, ybar, samples=200, seed=9)
        assert a.min_slack == b.min_slack
        assert a.slack_by_constant == b.slack_by_constant

    def test_zero_samples(self):
        part = GroupPartition.singletons(1)
        rep = qg_audit(part, np.array([1.0]), np.array([1.0]), samples=0)
        assert rep.used == 0 and rep.min_slack == 0.0 and rep.passed

    def test_overflowing_samples_fail(self):
        # at this radius the gap overflows to inf on some samples
        part = GroupPartition.singletons(1)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = qg_audit(part, np.array([1.0]), np.array([1.0]), samples=50, radius=1e308)
        assert rep.used == 50
        assert not rep.passed
        assert np.isnan(rep.min_slack) and np.isnan(rep.slack_by_constant["group_growth"])


class TestSecondQuotient:
    def test_exact_curvature_in_stable_directions(self):
        p = pairs_problem()
        for w in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])):
            for t in (1e-2, 1e-3, 1e-4):
                q = second_quotient_probe(p, XBAR, np.zeros(3), w, t)
                assert q == pytest.approx(1.0, abs=1e-6)

    def test_flat_along_degenerate_witness(self):
        rng = np.random.default_rng(53)
        spec, xbar = degenerate_group_instance(rng, n=3)
        cert = certify(spec, xbar)
        w = cert.witness
        for t in (1e-2, 1e-3, 1e-4):
            q = second_quotient_probe(spec, xbar, np.zeros(3), w, t)
            assert abs(q) <= 10 * t

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            second_quotient_probe(pairs_problem(), XBAR, np.zeros(3), XBAR, 0.0)


class TestEmpiricalLipschitz:
    def test_zero_radius_gives_zero_ratio(self):
        rep = empirical_lipschitz(pairs_problem(), 0.0, 0.0, samples=3, seed=1)
        assert rep.max_ratio == 0.0
        assert rep.non_converged == 0

    def test_reference_instance_stays_bounded(self):
        # the active pattern rotates for b2 > -1, so the local constant
        # sits a little above 1; well certified instances stay O(1)
        rep = empirical_lipschitz(pairs_problem(), 0.2, 0.0, samples=12, seed=2)
        assert rep.non_converged == 0
        assert 0.2 <= rep.max_ratio <= 2.0

    def test_multistart_spread_near_zero_when_unique(self):
        rep = empirical_lipschitz(pairs_problem(), 0.1, 0.05, samples=4, seed=3, starts=3)
        assert rep.multivaluedness_spread <= 1e-6


def strictly_certified(spec, x):
    """Certified with strict complementarity and the dual off the unit
    sphere elsewhere: the solution map is smooth near the instance."""
    cert = certify(spec, x)
    c = cert.classification
    strict = len(c.K) == len(c.I) if spec.reg.kind == "group" else c.r == c.p
    return cert.holds and strict and c.gamma < 0.99


def first_starts(monkeypatch):
    """Record ``(spec, first start)`` of every sample of ``empirical_lipschitz``."""
    import stabcert.stability as stability

    seen = []
    real = stability.multistart_solve

    def spy(spec, starts, **kwargs):
        seen.append((spec, starts[0]))
        return real(spec, starts, **kwargs)

    monkeypatch.setattr(stability, "multistart_solve", spy)
    return seen


class TestSolutionDerivative:
    @pytest.mark.parametrize(
        "make", [random_group_instance, random_nuclear_instance], ids=["group", "nuclear"]
    )
    def test_matches_central_differences_of_solves(self, make):
        h = 1e-5
        checked = 0
        for seed in range(30):
            spec = make(np.random.default_rng(seed))
            x = prox_gradient_solve(spec, tol=1e-14).x
            if not strictly_certified(spec, x):
                continue
            d = _solution_derivative(spec, x)
            assert d.shape == (spec.n, spec.m + 1)
            for j in range(spec.m + 1):
                e = np.zeros(spec.m + 1)
                e[j] = h
                ends = []
                for sign in (1.0, -1.0):
                    moved = spec.with_data(spec.b + sign * e[:-1], spec.mu + sign * e[-1])
                    res = prox_gradient_solve(moved, tol=1e-14, x0=x)
                    assert res.converged
                    ends.append(res.x)
                np.testing.assert_allclose(
                    d[:, j], (ends[0] - ends[1]) / (2.0 * h), rtol=0.0, atol=1e-7
                )
            checked += 1
        assert checked >= 25

    @pytest.mark.parametrize(
        "make", [random_group_instance, random_nuclear_instance], ids=["group", "nuclear"]
    )
    def test_applies_the_derivative_once(self, make):
        # One call on the n rows of (I - t gram)^T stacked on phi and grad,
        # not one for the Newton matrix and another for the right-hand side.
        for seed in range(4):
            plain = make(np.random.default_rng(seed))
            x = prox_gradient_solve(plain).x
            reg = CountingProx(plain.reg)
            d = _solution_derivative(ProblemSpec(plain.phi, plain.b, plain.mu, reg), x)
            assert reg.derivative_rows == [plain.n + plain.m + 1]
            expected = _solution_derivative(plain, x)
            assert (d is None) == (expected is None)
            assert d is None or np.array_equal(d, expected)

    @pytest.mark.parametrize(
        "make", [degenerate_group_instance, degenerate_nuclear_instance], ids=["group", "nuclear"]
    )
    def test_degenerate_instances_start_at_the_base_solution(self, make, monkeypatch):
        # A segment of minimizers makes the system for D singular.
        seen = first_starts(monkeypatch)
        for seed in range(6):
            spec, _ = make(np.random.default_rng(seed))
            x = prox_gradient_solve(spec).x
            assert _solution_derivative(spec, x) is None
            seen.clear()
            rep = empirical_lipschitz(spec, 0.1, 0.05, samples=4, seed=seed, starts=2)
            assert len(seen) == 4
            assert all(np.array_equal(start, x) for _, start in seen)
            assert np.isfinite(rep.max_ratio) and rep.non_converged == 0

    @pytest.mark.parametrize(
        "make", [random_group_instance, random_nuclear_instance], ids=["group", "nuclear"]
    )
    def test_first_solve_takes_fewer_prox_calls_than_from_the_origin(self, make, monkeypatch):
        seen = first_starts(monkeypatch)
        checked = 0
        for seed in range(12):
            plain = make(np.random.default_rng(seed))
            spec = ProblemSpec(plain.phi, plain.b, plain.mu, CountingProx(plain.reg))
            x = prox_gradient_solve(spec).x
            if not x.any() or not strictly_certified(plain, x):
                continue
            seen.clear()
            empirical_lipschitz(spec, 0.1, 0.05, samples=5, seed=seed)
            for sample, start in seen:
                calls = []
                for x0 in (start, np.zeros(spec.n)):
                    spec.reg.prox_calls = 0
                    assert prox_gradient_solve(sample, x0=x0).converged
                    calls.append(spec.reg.prox_calls)
                assert calls[0] < calls[1]
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize(
        "make,seed",
        [(random_group_instance, 17), (random_nuclear_instance, 1)],
        ids=["group", "nuclear"],
    )
    def test_first_start_is_the_prediction(self, make, seed, monkeypatch):
        # On these instances some predictions have a higher objective on
        # their sample's problem than the base solution has; they are the
        # first starts all the same.
        seen = first_starts(monkeypatch)
        spec = make(np.random.default_rng(seed))
        x = prox_gradient_solve(spec).x
        d = _solution_derivative(spec, x)
        empirical_lipschitz(spec, 0.1, 0.05, samples=5, seed=seed)
        assert len(seen) == 5
        above = 0
        for sample, start in seen:
            predicted = x + d @ np.append(sample.b - spec.b, sample.mu - spec.mu)
            assert np.array_equal(start, predicted)
            above += objective(sample, predicted) > objective(sample, x)
        assert above >= 1


class TestTiltProbe:
    def test_zero_radius(self):
        rep = tilt_probe(pairs_problem(), XBAR, radius_v=0.0, samples=3)
        assert rep.max_ratio == 0.0

    def test_certified_instance_obeys_margin_bound(self):
        p = pairs_problem()
        cert = certify(p, XBAR)
        rep = tilt_probe(p, XBAR, radius_v=1e-4, samples=10, seed=6)
        assert rep.non_converged == 0
        assert rep.max_ratio <= 10.0 * p.mu / cert.margin**2
        assert rep.multivaluedness_spread == 0.0  # single start

    def test_degenerate_ratio_blows_up_as_radius_shrinks(self):
        rng = np.random.default_rng(54)
        spec, xbar = degenerate_group_instance(rng, n=3)
        coarse = tilt_probe(spec, xbar, radius_v=1e-1, samples=4, seed=5)
        fine = tilt_probe(spec, xbar, radius_v=1e-3, samples=4, seed=5)
        assert fine.max_ratio >= 10.0 * coarse.max_ratio

    def test_degenerate_nuclear_ratio_blows_up(self):
        rng = np.random.default_rng(55)
        spec, xbar = degenerate_nuclear_instance(rng)
        coarse = tilt_probe(spec, xbar.ravel(), radius_v=1e-1, samples=4, seed=5)
        fine = tilt_probe(spec, xbar.ravel(), radius_v=1e-3, samples=4, seed=5)
        assert fine.max_ratio >= 10.0 * coarse.max_ratio

    @pytest.mark.xfail(
        strict=True,
        reason="the solver stops on the primal residual, which the step 1/L = 5e-7 "
        "makes 5e-11 at the start of every tilted solve",
    )
    def test_a_small_mu_ratio_is_not_zero(self):
        # Each tilted solve stops at its start x after 0 iterations, so the
        # ratio reads 0.  The true ratio is about 2e-6: the tilt-to-solution
        # derivative is mu (phi^T phi)^-1 here, of norm 2.7e-6.
        spec = ProblemSpec([[1.0, 0.5], [0.3, 1.0]], [1.0, 1.0], 1e-6, GroupPartition.singletons(2))
        rep = tilt_probe(spec, prox_gradient_solve(spec).x, samples=3)
        assert 1e-6 < rep.max_ratio < 3e-6


class TestSingleStartProbes:
    """With one start each sample is one solve, with zero spread: for
    perturb from the first-order prediction of its solution (or from the
    base solution where there is none), for tilt from ``x``.  The helpers
    fold the ratios pair by pair and the probes row by row; the two sum
    the squares in different orders, so the largest ratios agree to
    rounding."""

    @pytest.mark.parametrize(
        "make", [random_group_instance, random_nuclear_instance], ids=["group", "nuclear"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_single_solve_loop(self, make, seed):
        spec = make(np.random.default_rng(70 + seed))
        x = prox_gradient_solve(spec).x
        for rep, (ratio, spread, non_converged) in (
            (
                empirical_lipschitz(spec, 0.1, 0.05, samples=5, seed=seed),
                empirical_lipschitz_single_start(spec, 0.1, 0.05, 5, seed),
            ),
            (
                tilt_probe(spec, x, radius_v=1e-3, samples=5, seed=seed),
                tilt_probe_single_start(spec, x, 1e-3, 5, seed),
            ),
        ):
            assert rep.max_ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)
            assert (rep.multivaluedness_spread, rep.non_converged) == (spread, non_converged)


def planted_rows(rng, rows, n):
    """Random rows at scales 1e-3 to 1e3, some with a NaN, a +inf or a
    1e200 entry planted."""
    a = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    for value in (np.nan, np.inf, 1e200):
        if rng.random() < 0.3:
            a[rng.integers(rows), rng.integers(n)] = value
    return a


def below_floor(rng, data, rows):
    """Make two rows of ``data`` lie 0 or 3e-16 apart, below the floor."""
    i, j = rng.choice(rows, 2, replace=False)
    data[j] = data[i]
    if rng.random() < 0.5:
        data[i] = 0.0
        data[j] = 0.0
        data[j, 0] = 3e-16


class TestPairFolds:
    """The probes fold their pair statistics one row at a time; the pair
    loops of the helpers are the folds the probes took before."""

    def test_row_folds_match_the_pair_loops(self):
        rng = np.random.default_rng(90)
        outcomes = {"nan": 0, "inf": 0, "finite": 0}
        for _ in range(400):
            rows, n, m = (int(k) for k in rng.integers(1, [9, 6, 4]))
            xs = planted_rows(rng, rows, n)
            data = np.column_stack([rng.standard_normal((rows, m)), rng.uniform(0.5, 2.0, rows)])
            tilts = rng.standard_normal((rows, n))
            if rows > 1 and rng.random() < 0.5:
                below_floor(rng, data, rows)
            if rng.random() < 0.1:
                data[:] = data[0]
            if rng.random() < 0.2:
                # Never in mu, which the probes keep finite.  Two in one
                # column make a NaN data distance, and that pair counts.
                data[rng.permutation(rows)[: int(rng.integers(1, 3))], rng.integers(m)] = np.inf
            # zero tilts and tilts of norm 3e-16, below the floor
            for k in rng.permutation(rows)[: int(rng.integers(0, 3))]:
                tilts[k] *= 0.0 if rng.random() < 0.5 else 3e-16 / np.linalg.norm(tilts[k])
            if rng.random() < 0.2:
                tilts[rng.integers(rows), rng.integers(n)] = np.inf
            x = rng.standard_normal(n)
            with np.errstate(all="ignore"):
                folds = (
                    solution_spread([SimpleNamespace(x=row) for row in xs]),
                    _largest_pair_ratio(xs, data),
                    _largest_ratio(xs - x, tilts),
                )
                loops = (
                    solution_spread_loop(xs),
                    perturb_ratio_loop(xs, data[:, :m], data[:, m]),
                    tilt_ratio_loop(xs, x, tilts),
                )
            for new, old in zip(folds, loops):
                assert np.isclose(new, old, rtol=1e-12, atol=0.0, equal_nan=True), (new, old)
                outcomes["nan" if math.isnan(old) else "inf" if math.isinf(old) else "finite"] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_perturb_takes_a_linear_number_of_norms(self, monkeypatch):
        # The pair loop took two norms per pair: 3660 for 61 solutions.  The
        # row fold takes its norms inline, one row of pairs per call.
        calls = {"norm": 0, "row": 0}

        def spy(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "norm", spy("norm", np.linalg.norm))
        monkeypatch.setattr(stability, "_largest_ratio", spy("row", stability._largest_ratio))
        rep = empirical_lipschitz(pairs_problem(), 0.1, 0.05, samples=60, seed=0)
        assert rep.non_converged == 0 and np.isfinite(rep.max_ratio)
        assert calls["norm"] <= 4 * 61 and calls["row"] == 60

    @pytest.mark.parametrize("starts", [1, 2])
    @pytest.mark.parametrize("probe", ["perturb", "tilt"])
    def test_one_start_draws_only_the_data(self, probe, starts, monkeypatch):
        # One draw of the samples' data or tilts, and one draw of random
        # starts per sample only when there are any to draw.
        calls = []
        real = stability._ball_samples
        monkeypatch.setattr(stability, "_ball_samples", lambda *a: calls.append(a[2]) or real(*a))
        spec = pairs_problem()
        if probe == "perturb":
            rep = empirical_lipschitz(spec, 0.1, 0.05, samples=60, seed=0, starts=starts)
        else:
            x = prox_gradient_solve(spec).x
            rep = tilt_probe(spec, x, samples=60, seed=0, starts=starts)
        assert rep.non_converged == 0
        assert calls == [60] + [starts - 1] * 60 * (starts > 1)

    @pytest.mark.parametrize(
        "make", [pairs_problem, identity_nuclear_problem], ids=["group", "nuclear"]
    )
    def test_overflowing_probes_warn_nothing(self, make, monkeypatch):
        # At this radius the norms overflow: every ratio is inf / inf.
        spec = make()
        x = prox_gradient_solve(spec).x
        opened = []
        real = np.errstate

        def spy(**kwargs):
            opened.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(np, "errstate", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tilt = tilt_probe(spec, x, radius_v=1e200, samples=3)
            perturb = empirical_lipschitz(spec, 1e200, 0.0, samples=3)
        assert np.isnan(tilt.max_ratio) and np.isnan(perturb.max_ratio)
        assert len(opened) == 2


class TestCertifyFactorizations:
    @pytest.mark.parametrize(
        "make",
        [lambda rng: degenerate_group_instance(rng, n=2), degenerate_nuclear_instance],
        ids=["group", "nuclear"],
    )
    def test_failing_certify_factors_once(self, make, monkeypatch):
        real = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for seed in range(8):
            spec, xbar = make(np.random.default_rng(seed))
            x = xbar.ravel()
            assert spec.sigma_max > 0  # factored and cached before counting
            y = dual_from_solution(spec, x)
            before = len(calls)
            spec.reg.classify(x, y, UNIT_TOL)
            in_classify = len(calls) - before
            before = len(calls)
            cert = certify(spec, x)
            assert len(calls) - before == in_classify + 1
            assert not cert.holds
            # The restricted kernel is one-dimensional, so the witness is
            # unique up to sign.
            basis = cert.classification.v_basis
            margin, witness = margin_and_witness_two_svds(spec.phi, basis)
            assert cert.margin == pytest.approx(margin, abs=1e-12)
            gap = min(np.abs(cert.witness - witness).max(), np.abs(cert.witness + witness).max())
            assert gap <= 1e-10


    def test_nuclear_error_path_factors_the_pair_once(self, monkeypatch):
        # The failed classification measured the residual that the
        # NotASolutionError reports: ||x - prox(x + y)||, one SVD.
        real = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        checked = 0
        for seed in range(10):
            spec = random_nuclear_instance(np.random.default_rng(seed))
            x = prox_gradient_solve(spec, tol=1e-14, max_iter=2).x
            try:
                spec.reg.classify(x, dual_from_solution(spec, x), 1e-14)
                continue
            except NotASubgradientError as exc:
                residual = exc.residual
            before = len(calls)
            with pytest.raises(NotASolutionError, match=re.escape(f"residual {residual:.3e} ")):
                certify(spec, x, tol=1e-14)
            assert len(calls) - before == 1
            checked += 1
        assert checked >= 5


def test_group_v_basis_matches_gram_schmidt_on_the_acceptance_bank():
    from test_acceptance import instance_bank

    checked = 0
    for entry in instance_bank():
        if entry.kind != "group":
            continue
        analysis = entry.cert.classification
        basis = analysis.v_basis
        reference = group_v_basis_gram_schmidt(analysis)
        assert basis.shape == reference.shape
        assert mutual_projection_residual(basis, reference) <= 1e-12
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-15
        for col, j in enumerate(analysis.K):
            outside = np.ones(basis.shape[0], dtype=bool)
            outside[entry.spec.reg.index_arrays[j]] = False
            assert not basis[outside, col].any()
        margin, _ = restricted_min_singular(entry.spec.phi, reference)
        assert entry.cert.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
        checked += 1
    assert checked == 100
