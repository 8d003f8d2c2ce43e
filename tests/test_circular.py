"""Tests for the circular-cloak problem of Theorem 1."""

import math

import pytest

from repro import LocationDatabase, NoFeasiblePolicyError, Point, Rect, ReproError
from repro.baselines import solve_exact, solve_greedy
from repro.data import uniform_users


@pytest.fixture
def centers():
    return [Point(0, 0), Point(10, 0), Point(5, 8)]


class TestExactSolver:
    def test_single_group_when_n_equals_k(self, centers):
        db = LocationDatabase([("a", 1, 0), ("b", 2, 0), ("c", 3, 0)])
        result = solve_exact(db, centers, 3)
        assert result.n_groups == 1
        # Best center is (0,0): radius 3 → cost 3·π·9.
        assert result.cost == pytest.approx(3 * math.pi * 9)

    def test_two_natural_clusters(self, centers):
        db = LocationDatabase(
            [("a", 0, 1), ("b", 1, 0), ("c", 10, 1), ("d", 9, 0)]
        )
        result = solve_exact(db, centers, 2)
        assert result.n_groups == 2
        groups = {frozenset(g) for g in result.groups}
        assert groups == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_all_groups_at_least_k(self, centers):
        db = uniform_users(10, Rect(0, 0, 10, 10), seed=61)
        result = solve_exact(db, centers, 3)
        assert all(len(g) >= 3 for g in result.groups)
        assert sum(len(g) for g in result.groups) == 10

    def test_policy_is_policy_aware_anonymous(self, centers):
        db = uniform_users(9, Rect(0, 0, 10, 10), seed=62)
        result = solve_exact(db, centers, 3)
        assert result.policy.min_group_size() >= 3

    def test_every_member_inside_its_circle(self, centers):
        db = uniform_users(8, Rect(0, 0, 10, 10), seed=63)
        result = solve_exact(db, centers, 2)
        for uid, point in db.items():
            assert result.policy.cloak_for(uid).contains(point)

    def test_cost_formula(self, centers):
        db = uniform_users(7, Rect(0, 0, 10, 10), seed=64)
        result = solve_exact(db, centers, 3)
        recomputed = sum(
            result.policy.cloak_for(uid).area for uid in db.user_ids()
        )
        assert result.cost == pytest.approx(recomputed)

    def test_infeasible(self, centers):
        db = LocationDatabase([("a", 1, 1)])
        with pytest.raises(NoFeasiblePolicyError):
            solve_exact(db, centers, 2)

    def test_size_guard(self, centers):
        db = uniform_users(20, Rect(0, 0, 10, 10), seed=65)
        with pytest.raises(ReproError, match="NP-complete"):
            solve_exact(db, centers, 2)

    def test_no_centers(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        with pytest.raises(NoFeasiblePolicyError):
            solve_exact(db, [], 2)


class TestGreedySolver:
    @pytest.mark.parametrize("seed", range(66, 74))
    def test_never_beats_exact(self, centers, seed):
        db = uniform_users(9, Rect(0, 0, 10, 10), seed=seed)
        exact = solve_exact(db, centers, 3)
        greedy = solve_greedy(db, centers, 3)
        assert greedy.cost >= exact.cost - 1e-9

    def test_greedy_feasible_and_anonymous(self, centers):
        db = uniform_users(50, Rect(0, 0, 10, 10), seed=75)
        result = solve_greedy(db, centers, 5)
        assert result.policy.min_group_size() >= 5
        assert sum(len(g) for g in result.groups) == 50

    def test_greedy_scales_past_exact_guard(self, centers):
        db = uniform_users(200, Rect(0, 0, 10, 10), seed=76)
        result = solve_greedy(db, centers, 10)
        assert result.n_groups >= 2

    def test_greedy_infeasible(self, centers):
        db = LocationDatabase([("a", 1, 1)])
        with pytest.raises(NoFeasiblePolicyError):
            solve_greedy(db, centers, 2)


class TestVerifier:
    """The polynomial certificate verifier of Theorem 1's NP membership."""

    def test_accepts_exact_and_greedy_outputs(self, centers):
        db = uniform_users(9, Rect(0, 0, 10, 10), seed=77)
        from repro.baselines import verify_solution

        exact = solve_exact(db, centers, 3)
        verify_solution(db, centers, 3, exact)
        verify_solution(db, centers, 3, exact, budget=exact.cost)
        greedy = solve_greedy(db, centers, 3)
        verify_solution(db, centers, 3, greedy)

    def test_rejects_budget_violation(self, centers):
        from repro.baselines import verify_solution

        db = uniform_users(6, Rect(0, 0, 10, 10), seed=78)
        result = solve_exact(db, centers, 3)
        with pytest.raises(ReproError, match="budget"):
            verify_solution(db, centers, 3, result, budget=result.cost / 2)

    def test_rejects_undersized_group(self, centers):
        from repro.baselines import verify_solution

        db = uniform_users(6, Rect(0, 0, 10, 10), seed=79)
        result = solve_exact(db, centers, 3)
        with pytest.raises(ReproError, match="smaller than k"):
            verify_solution(db, centers, 6, result)

    def test_rejects_foreign_center(self):
        from repro.baselines import verify_solution

        db = uniform_users(4, Rect(0, 0, 10, 10), seed=80)
        result = solve_exact(db, [Point(5, 5)], 2)
        with pytest.raises(ReproError, match="allowed set"):
            verify_solution(db, [Point(0, 0)], 2, result)
