import numpy as np
import pytest

from helpers import (
    degenerate_group_instance,
    is_subgradient_nuclear,
    random_group_instance,
    random_nuclear_instance,
    solution_spread,
)
from stabcert import solver
from stabcert.errors import ProblemFormatError
from stabcert.groupnorm import GroupPartition, subgrad_residual
from stabcert.nuclear import NuclearShape, prox_nuclear
from stabcert.solver import (
    ProblemSpec,
    SolveResult,
    dual_from_solution,
    multistart_solve,
    objective,
    prox_gradient_solve,
)

PHI = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
PAIRS = GroupPartition(3, ((0, 1), (2,)))


def pairs_problem(b2=-1.0):
    return ProblemSpec(PHI, np.array([2.0, b2]), 1.0, PAIRS)


class TestProblemSpec:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            ProblemSpec(PHI, np.array([2.0, -1.0]), 0.0, PAIRS)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            ProblemSpec(PHI, np.array([2.0]), 1.0, PAIRS)
        with pytest.raises(ValueError):
            ProblemSpec(PHI, np.array([2.0, -1.0]), 1.0, GroupPartition.singletons(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ProblemSpec(PHI, np.array([np.inf, 0.0]), 1.0, PAIRS)

    @pytest.mark.parametrize(
        "b",
        [
            [np.bool_(True), 1.0],
            np.array([True, False]),
            [2.0, 1 + 0j],
            [2.0, np.complex128(1.0)],
            np.array([2.0, -1.0], dtype=complex),
        ],
        ids=["numpy-bool", "bool-array", "complex", "numpy-complex", "complex-array"],
    )
    def test_rejects_what_json_cannot_hold(self, b):
        with pytest.raises(ProblemFormatError) as exc:
            ProblemSpec(PHI, b, 1.0, PAIRS)
        assert (exc.value.code, str(exc.value)) == ("BAD_TYPE", "b entry must be a number")

    @pytest.mark.parametrize(
        "phi,b,mu",
        [
            (PHI.tolist(), [np.float64(2.0), np.int64(-1)], np.int64(1)),
            (PHI.astype(np.int64), np.array([2, -1], dtype=np.int32), np.float64(1.0)),
            (PHI.astype(np.float32), np.array([2.0, -1.0], dtype=np.float32), 1),
            ([[np.int64(v) for v in row] for row in PHI], (2, -1.0), np.array(1.0)),
        ],
        ids=["numpy-scalars", "int-arrays", "float32-arrays", "numpy-int-rows"],
    )
    def test_accepts_numpy_reals(self, phi, b, mu):
        spec = ProblemSpec(phi, b, mu, PAIRS)
        assert spec.phi.dtype == spec.b.dtype == np.float64
        assert np.array_equal(spec.phi, PHI) and spec.b.tolist() == [2.0, -1.0]
        assert type(spec.mu) is float and spec.mu == 1.0

    @pytest.mark.parametrize(
        "phi,b,mu,code,message",
        [
            ([1.0, 1.0, 0.0], [2.0], 1.0, "BAD_TYPE", "phi must be a matrix"),
            (PHI, 2.0, 1.0, "DIMENSION_MISMATCH", "b has shape (), phi has 2 rows"),
            (PHI, PHI[:, :1], 1.0, "DIMENSION_MISMATCH", "b has shape (2, 1), phi has 2 rows"),
            (PHI, [2.0, -1.0], np.array([1.0]), "BAD_TYPE", "mu must be a number"),
        ],
        ids=["phi-vector", "b-number", "b-column", "mu-vector"],
    )
    def test_a_wrong_nesting_is_a_coded_error(self, phi, b, mu, code, message):
        # A number where a row belongs is read as a row of one, so the shape
        # rules name the error, as they do for an array of that shape.
        with pytest.raises(ProblemFormatError) as exc:
            ProblemSpec(phi, b, mu, PAIRS)
        assert (exc.value.code, str(exc.value)) == (code, message)

    def test_with_data_scans_no_entry_of_an_array(self, monkeypatch):
        spec = pairs_problem()
        scanned = []
        rows = solver._rows
        monkeypatch.setattr(solver, "_rows", lambda v, ndim: scanned.append(ndim) or rows(v, ndim))
        shifted = spec.with_data(np.array([3.0, 0.5]), 0.7)
        assert scanned == [0]  # mu alone; phi and b are float arrays
        assert shifted.b.tolist() == [3.0, 0.5] and shifted.mu == 0.7

    def test_operator_quantities_are_cached(self):
        p = pairs_problem()
        assert p.sigma_max**2 == pytest.approx(3.0)
        assert p.gram is p.gram
        assert np.allclose(p.gram, PHI.T @ PHI)
        assert np.allclose(p.phi_tb, PHI.T @ p.b)
        assert ProblemSpec(np.zeros((2, 3)), np.zeros(2), 2.0, PAIRS).sigma_max == 0.0

    def test_nuclear_dimension_check(self):
        phi = np.zeros((1, 4))
        spec = ProblemSpec(phi, np.zeros(1), 1.0, NuclearShape(2, 2))
        assert spec.phi.shape == (1, 4)
        with pytest.raises(ValueError):
            ProblemSpec(np.zeros((1, 5)), np.zeros(1), 1.0, NuclearShape(2, 2))


class TestObjective:
    def test_reference_point_value(self):
        assert objective(pairs_problem(), np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)

    def test_penalty_only_at_zero_fit(self):
        # x = 0: value is ||b||^2 / (2 mu)
        p = pairs_problem()
        assert objective(p, np.zeros(3)) == pytest.approx(2.5)


class TestScalarShrinkage:
    def test_soft_threshold_solution(self):
        p = ProblemSpec(np.array([[1.0]]), np.array([2.0]), 1.0, GroupPartition.singletons(1))
        res = prox_gradient_solve(p)
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)
        assert res.y[0] == pytest.approx(1.0, abs=1e-9)

    def test_subcritical_data_gives_zero(self):
        p = ProblemSpec(np.array([[1.0]]), np.array([0.5]), 1.0, GroupPartition.singletons(1))
        res = prox_gradient_solve(p)
        assert res.x[0] == pytest.approx(0.0, abs=1e-12)
        assert res.y[0] == pytest.approx(0.5, abs=1e-9)


class TestReferenceInstance:
    def test_solution_and_dual(self):
        res = prox_gradient_solve(pairs_problem())
        assert res.converged
        assert res.fixed_point_residual <= 1e-10
        assert np.allclose(res.x, [0.0, 1.0, 0.0], atol=1e-8)
        assert np.allclose(res.y, [0.0, 1.0, 1.0], atol=1e-8)
        assert res.objective == pytest.approx(2.0, abs=1e-12)

    def test_shifted_data_activates_third_coordinate(self):
        res = prox_gradient_solve(pairs_problem(b2=-1.5))
        assert np.allclose(res.x, [0.0, 1.0, 0.5], atol=1e-8)

    def test_dual_matches_formula(self):
        p = pairs_problem()
        res = prox_gradient_solve(p)
        direct = -(PHI.T @ (PHI @ res.x - p.b)) / p.mu
        assert np.array_equal(res.y, dual_from_solution(p, res.x))
        assert np.allclose(res.y, direct, atol=1e-15)


class TestZeroOperator:
    def test_all_starts_collapse_to_zero(self):
        p = ProblemSpec(np.zeros((2, 3)), np.zeros(2), 2.0, PAIRS)
        rng = np.random.default_rng(30)
        for _ in range(5):
            res = prox_gradient_solve(p, x0=rng.standard_normal(3) * 10)
            assert res.converged
            assert np.array_equal(res.x, np.zeros(3))


class TestConvergenceBehavior:
    def test_objective_never_worse_than_start(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = random_group_instance(rng)
            x0 = rng.standard_normal(p.phi.shape[1]) * 3.0
            res = prox_gradient_solve(p, x0=x0)
            assert res.objective <= objective(p, x0) + 1e-12

    def test_kkt_residual_scales_with_tolerance(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            p = random_group_instance(rng)
            res = prox_gradient_solve(p)
            assert res.converged
            lip = max(p.sigma_max**2 / p.mu, 1.0)
            assert subgrad_residual(res.x, res.y, p.reg) <= 100 * 1e-10 * lip

    def test_tilted_kkt(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            p = random_group_instance(rng)
            v = rng.standard_normal(p.phi.shape[1]) * 0.3
            res = prox_gradient_solve(p, v=v)
            lip = max(p.sigma_max**2 / p.mu, 1.0)
            # optimality: dual + tilt lands in the subdifferential
            assert subgrad_residual(res.x, res.y + v, p.reg) <= 100 * 1e-10 * lip

    def test_nonconvergence_is_flagged_not_raised(self):
        p = pairs_problem()
        res = prox_gradient_solve(p, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    @pytest.mark.parametrize("kind", ["group", "nuclear"])
    def test_a_non_finite_objective_stops_the_solve(self, kind):
        rng = np.random.default_rng(7)
        spec = random_group_instance(rng) if kind == "group" else random_nuclear_instance(rng)
        # ||b||^2 overflows: the objective is not finite at the start.
        huge_b = ProblemSpec(spec.phi, 1e200 * spec.b, spec.mu, spec.reg)
        # A huge tilt: the first iterate's objective overflows.
        cases = [(huge_b, None, 0), (spec, np.full(spec.n, 1e200), 1)]
        for problem, v, iterations in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                res = prox_gradient_solve(problem, v=v, max_iter=1000)
            assert not np.isfinite(res.objective)
            assert not res.converged
            assert res.iterations == iterations and res.newton_steps == 0

    def test_deterministic_reruns(self):
        p = pairs_problem()
        a = prox_gradient_solve(p)
        b = prox_gradient_solve(p)
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        c = prox_gradient_solve(p, v=np.zeros(3))
        assert np.array_equal(a.x, c.x)

    def test_nuclear_identity_design_matches_prox(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            bmat = rng.standard_normal((2, 3))
            mu = float(rng.uniform(0.3, 1.2))
            shape = NuclearShape(2, 3)
            p = ProblemSpec(np.eye(6), bmat.ravel(), mu, shape)
            res = prox_gradient_solve(p)
            assert res.converged
            closed, _, _, _ = prox_nuclear(bmat, mu)
            assert np.allclose(shape.as_matrix(res.x), closed, atol=1e-8)

    def test_nuclear_random_instances_reach_kkt(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            p = random_nuclear_instance(rng)
            res = prox_gradient_solve(p)
            assert res.converged
            shape = p.reg
            check = is_subgradient_nuclear(
                shape.as_matrix(res.x), shape.as_matrix(res.y), tol=1e-6
            )
            assert check.ok


class TestMultistart:
    def test_unique_solution_collapses_spread(self):
        p = pairs_problem()
        rng = np.random.default_rng(36)
        starts = [np.zeros(3)] + [rng.standard_normal(3) * 2 for _ in range(4)]
        results = multistart_solve(p, starts)
        assert len(results) == 5
        assert all(r.converged for r in results)
        assert solution_spread(results) <= 1e-6

    def test_degenerate_instance_scatters(self):
        rng = np.random.default_rng(37)
        p, _ = degenerate_group_instance(rng, n=3)
        starts = [np.zeros(3)] + [rng.uniform(0, 2, 3) for _ in range(5)]
        results = multistart_solve(p, starts)
        assert solution_spread(results) >= 1e-3
        # every endpoint is still a genuine solution: same objective value
        vals = [r.objective for r in results]
        assert max(vals) - min(vals) <= 1e-9

    def test_spread_of_identical_results_is_zero(self):
        p = pairs_problem()
        r = prox_gradient_solve(p)
        assert solution_spread([r, r]) == 0.0
        assert solution_spread([r]) == 0.0

    def test_a_nan_distance_makes_the_spread_nan(self):
        # max(d, nan) is d: a fold with max would drop both NaN distances.
        p = pairs_problem()
        results = [prox_gradient_solve(p, x0=x0) for x0 in (np.zeros(3), np.ones(3))]
        results.append(SolveResult(np.full(3, np.nan), np.zeros(3), 0, 0, np.nan, np.nan, False))
        assert solution_spread(results[:2]) <= 1e-6
        assert np.isnan(solution_spread(results))
