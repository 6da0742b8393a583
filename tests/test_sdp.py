"""Tests for the one-dimensional dual SDP solver and its rank-one optimum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay.errors import InvalidInputError
from twrelay.sdp import SdpProblem, SdpSolution, extract_rank_one, solve_sdp


def random_instance(rng, n=8, two_constraints=True):
    A = rng.standard_normal((n, n))
    F0 = A @ A.T / n + 0.05 * np.eye(n)
    B1 = rng.standard_normal((n, n))
    F1 = 0.5 * (B1 + B1.T)
    F2 = None
    if two_constraints:
        B2 = rng.standard_normal((n, n))
        F2 = 0.5 * (B2 + B2.T)
    return SdpProblem(n=n, F0=F0, F1=F1, F2=F2)


def grid_dual_value(prob, points=4001):
    """1 / min over a t grid of lambda_max(t A1 + (1 - t) A2): a dual
    bound, never above the optimum."""
    Linv = np.linalg.inv(np.linalg.cholesky(prob.F0))
    A1, A2 = (Linv @ F @ Linv.T for F in prob.constraints)
    lam = min(np.linalg.eigvalsh(t * A1 + (1.0 - t) * A2)[-1] for t in np.linspace(0, 1, points))
    return 1.0 / lam


class TestSolve:
    def test_identity_collapse(self):
        # all three matrices identity: constraints collapse to tr(X) >= 1
        n = 8
        sol = solve_sdp(SdpProblem(n=n, F0=np.eye(n), F1=np.eye(n), F2=np.eye(n)))
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) <= 1e-7
        assert float(np.min(np.linalg.eigvalsh(sol.X))) >= -1e-8

    def test_axis_aligned_optimum(self):
        n = 8
        F0 = np.diag([2.0] + [1.0] * (n - 1))
        F1 = np.diag([1.0, 1.0] + [0.0] * (n - 2))
        F2 = np.diag([0.0, 1.0] + [0.0] * (n - 2))
        sol = solve_sdp(SdpProblem(n=n, F0=F0, F1=F1, F2=F2))
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) <= 1e-7
        # optimum concentrates on the e2 axis
        assert abs(sol.X[1, 1] - 1.0) <= 1e-6
        assert abs(sol.X[0, 0]) <= 1e-6

    def test_infeasible_certificate(self):
        n = 8
        sol = solve_sdp(SdpProblem(n=n, F0=np.eye(n), F1=-np.eye(n)))
        assert sol.status == "infeasible"
        assert sol.X is None and sol.objective is None

    def test_infeasibility_tolerance_is_scaled(self):
        # lambda_max is exactly 0 (a form that can only touch zero): infeasible
        # at any scale of the problem, while a form reaching 1e-9 of the
        # scale is a feasible, if expensive, target
        n = 4
        for scale in (1e-6, 1.0, 1e6):
            F0 = scale * np.eye(n)
            flat = scale * np.diag([-1.0, 0.0, 0.0, 0.0])
            sol = solve_sdp(SdpProblem(n=n, F0=F0, F1=flat, F2=scale * np.diag([0.0, 1.0, 0.0, 0.0])))
            assert sol.status == "infeasible"
            thin = scale * np.diag([-1.0, 1e-9, 0.0, 0.0])
            sol = solve_sdp(SdpProblem(n=n, F0=F0, F1=thin))
            assert sol.status == "optimal"
            assert abs(sol.objective - 1e9) <= 1e-6 * 1e9

    def test_single_constraint(self):
        n = 8
        sol = solve_sdp(SdpProblem(n=n, F0=2.0 * np.eye(n), F1=np.eye(n)))
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-7
        assert sol.iterations == 1

    def test_dual_value_matches_grid(self, rng):
        checked = 0
        for _ in range(10):
            prob = random_instance(rng)
            sol = solve_sdp(prob)
            if sol.status != "optimal":
                continue
            checked += 1
            # weak duality on both sides: grid <= p* <= cost <= objective (1 + tol)
            grid = grid_dual_value(prob)
            cost = float(np.sum(prob.F0 * sol.X))
            assert grid <= cost * (1.0 + 1e-12)
            assert sol.objective <= cost * (1.0 + 1e-12)
            assert cost <= sol.objective * (1.0 + 1e-8)
            assert cost <= grid * (1.0 + 1e-3)
        assert checked >= 5

    def test_feasibility_of_returned_x(self, rng):
        for _ in range(20):
            prob = random_instance(rng)
            sol = solve_sdp(prob)
            if sol.status != "optimal":
                continue
            for F in prob.constraints:
                assert float(np.sum(F * sol.X)) >= 1.0 - 1e-8
            assert float(np.min(np.linalg.eigvalsh(sol.X))) >= -1e-8

    def test_objective_scaling_monotonicity(self, rng):
        prob = random_instance(rng)
        sol = solve_sdp(prob)
        scaled = SdpProblem(n=prob.n, F0=3.0 * prob.F0, F1=prob.F1, F2=prob.F2)
        sol3 = solve_sdp(scaled)
        assert sol.status == sol3.status == "optimal"
        assert abs(sol3.objective - 3.0 * sol.objective) <= 1e-6 * (1.0 + abs(sol3.objective))
        assert np.max(np.abs(sol3.X - sol.X)) <= 1e-4 * (1.0 + np.max(np.abs(sol.X)))

    def test_rejects_asymmetric(self):
        n = 4
        F = np.eye(n)
        F1 = np.eye(n)
        F1[0, 1] = 1e-3
        with pytest.raises(InvalidInputError):
            SdpProblem(n=n, F0=F, F1=F1)

    def test_rejects_indefinite_objective(self):
        n = 4
        with pytest.raises(InvalidInputError):
            SdpProblem(n=n, F0=-np.eye(n), F1=np.eye(n))

    def test_rejects_singular_objective(self):
        with pytest.raises(InvalidInputError):
            SdpProblem(n=2, F0=np.diag([1.0, 0.0]), F1=np.eye(2))


class TestExtraction:
    def test_rank_one_idempotence(self, rng):
        # feed a hand-built rank-one optimum through the extractor
        n = 4
        v = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        F1 = np.eye(n)
        prob = SdpProblem(n=n, F0=np.eye(n), F1=F1)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        x = extract_rank_one(sol, prob)
        assert abs(x @ prob.F0 @ x - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))
        assert v is not None

    def test_exactness_and_feasibility(self, rng):
        n_extracted = 0
        for k in range(40):
            prob = random_instance(rng, two_constraints=(k % 3 != 0))
            sol = solve_sdp(prob)
            if sol.status != "optimal":
                continue
            x = extract_rank_one(sol, prob)
            n_extracted += 1
            assert abs(x @ prob.F0 @ x - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))
            for F in prob.constraints:
                assert x @ F @ x >= 1.0 - 1e-6
            assert np.array_equal(sol.x_hat, x)
        assert n_extracted >= 20

    def test_crossing_meets_both_constraints(self):
        # each constraint alone is cheapest on its own axis, where the other
        # fails: the optimum mixes the axes with both forms at exactly 1
        F0 = np.eye(2)
        F1 = np.diag([2.0, -1.0])
        F2 = np.diag([-1.0, 2.0])
        prob = SdpProblem(n=2, F0=F0, F1=F1, F2=F2)
        sol = solve_sdp(prob)
        x = extract_rank_one(sol, prob)
        assert abs(x @ F1 @ x - 1.0) <= 1e-12
        assert abs(x @ F2 @ x - 1.0) <= 1e-12
        # x = (1, 1): cost 2 meets both; the dual optimum is t = 1/2
        assert abs(sol.objective - 2.0) <= 1e-8 * 2.0
        assert abs(abs(x[0]) - 1.0) <= 1e-9 and abs(abs(x[1]) - 1.0) <= 1e-9

    def test_active_constraint_at_optimum(self, rng):
        for _ in range(20):
            prob = random_instance(rng)
            sol = solve_sdp(prob)
            if sol.status != "optimal":
                continue
            ts = [float(np.sum(F * sol.X)) for F in prob.constraints]
            assert abs(min(ts) - 1.0) <= 1e-6

    def test_requires_optimal_status(self):
        prob = SdpProblem(n=4, F0=np.eye(4), F1=np.eye(4))
        with pytest.raises(InvalidInputError):
            extract_rank_one(SdpSolution(status="infeasible"), prob)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_extraction_never_gaps_property(seed):
    """Relaxation exactness: extracted rank-one matches the SDP objective."""
    rng = np.random.default_rng(seed)
    prob = random_instance(rng)
    sol = solve_sdp(prob)
    if sol.status != "optimal":
        return
    x = extract_rank_one(sol, prob)
    assert abs(x @ prob.F0 @ x - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))
