import re

import numpy as np
import pytest

from helpers import (
    CountingProx,
    degenerate_group_instance,
    degenerate_nuclear_instance,
    empirical_lipschitz_single_start,
    group_v_basis_gram_schmidt,
    margin_and_witness_two_svds,
    random_group_instance,
    random_nuclear_instance,
    tilt_probe_single_start,
)
from stabcert.errors import NotASolutionError, NotASubgradientError
from stabcert.groupnorm import (
    GroupPartition,
    group_norm,
    inverse_subdiff_distance,
    subgrad_residual,
)
from stabcert.linalg import mutual_projection_residual, restricted_min_singular
from stabcert.nuclear import NuclearShape, is_subgradient_nuclear
from stabcert.solver import ProblemSpec, dual_from_solution, prox_gradient_solve
from stabcert.stability import (
    CERT_TOL,
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
            xs, _ = snap_to_graph(spec.reg, res.x, res.y)
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

    def test_margin_scales_with_data(self):
        # (c phi, c b, c^2 mu) leaves the solution fixed and scales the margin
        c = 3.7
        scaled = ProblemSpec(c * PHI, c * np.array([2.0, -1.0]), c * c, PAIRS)
        cert = certify(scaled, XBAR)
        base = certify(pairs_problem(), XBAR)
        assert cert.holds == base.holds
        assert cert.margin == pytest.approx(c * base.margin, rel=1e-12)
        assert cert.gamma == base.gamma


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


class TestSnapToGraph:
    def test_group_snap_lands_exactly(self):
        p = pairs_problem()
        res = prox_gradient_solve(p)
        xs, ys = snap_to_graph(p.reg, res.x, res.y)
        assert subgrad_residual(xs, ys, p.reg) <= 1e-14
        assert xs[2] == 0.0  # sub-tolerance block zeroed
        assert np.linalg.norm(ys[:2]) == pytest.approx(1.0, abs=1e-15)  # active dual on the sphere

    def test_nuclear_snap_lands_exactly(self):
        p = identity_nuclear_problem()
        res = prox_gradient_solve(p)
        xs, ys = snap_to_graph(p.reg, res.x, res.y)
        shape = p.reg
        check = is_subgradient_nuclear(shape.as_matrix(xs), shape.as_matrix(ys), tol=1e-12)
        assert check.ok


    @pytest.mark.parametrize("make", [random_group_instance, random_nuclear_instance])
    def test_snap_carries_the_classification_of_the_snapped_pair(self, make):
        rng = np.random.default_rng(41)
        for _ in range(15):
            p = make(rng)
            res = prox_gradient_solve(p)
            snapped = snap_to_graph(p.reg, res.x, res.y)
            got = snapped.classification
            again = p.reg.classify(snapped.x, snapped.y, 1e-7)
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
            with_ref = qg_audit(p.reg, snapped.x, snapped.y, samples=200, seed=2, ref=got)
            without = qg_audit(p.reg, snapped.x, snapped.y, samples=200, seed=2)
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


class TestSingleStartProbes:
    """With one start each sample is one solve, with zero spread: for
    perturb from the first-order prediction of its solution (or from the
    base solution where the prediction is rejected), for tilt from ``x``."""

    @pytest.mark.parametrize(
        "make", [random_group_instance, random_nuclear_instance], ids=["group", "nuclear"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_single_solve_loop(self, make, seed):
        spec = make(np.random.default_rng(70 + seed))
        rep = empirical_lipschitz(spec, 0.1, 0.05, samples=5, seed=seed)
        fields = (rep.max_ratio, rep.multivaluedness_spread, rep.non_converged)
        assert fields == empirical_lipschitz_single_start(spec, 0.1, 0.05, 5, seed)
        x = prox_gradient_solve(spec).x
        rep = tilt_probe(spec, x, radius_v=1e-3, samples=5, seed=seed)
        fields = (rep.max_ratio, rep.multivaluedness_spread, rep.non_converged)
        assert fields == tilt_probe_single_start(spec, x, 1e-3, 5, seed)


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
            spec.reg.classify(x, y, CERT_TOL)
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
        # NotASolutionError reports: the spectra of x and y, two SVDs.
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
            assert len(calls) - before == 2
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
