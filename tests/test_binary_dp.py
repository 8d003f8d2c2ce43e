"""Tests for the optimized DP solver (§V) — cross-validated against the
literal Algorithm 1 and against exhaustive configuration enumeration."""

import numpy as np
import pytest

from repro import LocationDatabase, NoFeasiblePolicyError, Rect, ReproError
from repro.core.binary_dp import NodeSolution, solve
from repro.core.bulk_dp import solve_naive
from repro.core.configuration import enumerate_ksummation_configurations
from repro.data import uniform_users
from repro.trees import BinaryTree, QuadTree

from conftest import random_instance


class TestNodeSolution:
    def test_cost_at(self):
        sol = NodeSolution(0, d=5, vec=np.array([10.0, 8.0]))
        assert sol.cost_at(0) == 10.0
        assert sol.cost_at(1) == 8.0
        assert sol.cost_at(5) == 0.0  # sentinel: pass everything up
        assert sol.cost_at(3) == float("inf")

    def test_domain(self):
        sol = NodeSolution(0, d=5, vec=np.array([10.0, 8.0]))
        js, costs = sol.domain()
        assert list(js) == [0, 1, 5]
        assert list(costs) == [10.0, 8.0, 0.0]


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", range(12))
    def test_quad_tree_costs_match(self, seed):
        region, db, k = random_instance(seed)
        tree = QuadTree.build_adaptive(region, db, split_threshold=k, max_depth=3)
        try:
            expected = solve_naive(tree, k).optimal_cost
        except NoFeasiblePolicyError:
            with pytest.raises(NoFeasiblePolicyError):
                __ = solve(tree, k, prune=False).optimal_cost
            return
        assert solve(tree, k, prune=False).optimal_cost == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_binary_tree_costs_match(self, seed):
        region, db, k = random_instance(seed)
        tree = BinaryTree.build(region, db, k, max_depth=6)
        try:
            expected = solve_naive(tree, k).optimal_cost
        except NoFeasiblePolicyError:
            return
        assert solve(tree, k, prune=False).optimal_cost == pytest.approx(expected)
        # Lemma 5 pruning never changes the optimum.
        assert solve(tree, k, prune=True).optimal_cost == pytest.approx(expected)


class TestAgainstExhaustiveEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_dp_is_globally_optimal(self, seed):
        region, db, k = random_instance(seed + 100, n_range=(4, 14), k_range=(2, 4))
        tree = BinaryTree.build(region, db, k, max_depth=4)
        if len(db) < k:
            return
        best = min(
            c.cost() for c in enumerate_ksummation_configurations(tree, k, 64)
        )
        assert solve(tree, k).optimal_cost == pytest.approx(best)


class TestFeasibility:
    def test_too_few_users(self):
        region = Rect(0, 0, 8, 8)
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        tree = BinaryTree.build(region, db, 3)
        with pytest.raises(NoFeasiblePolicyError):
            __ = solve(tree, 3).optimal_cost

    def test_exactly_k_users(self):
        region = Rect(0, 0, 8, 8)
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 7, 7)])
        tree = BinaryTree.build(region, db, 3)
        solution = solve(tree, 3)
        # Everyone must share one cloak — the root (nobody fits deeper).
        assert solution.optimal_cost == pytest.approx(3 * 64)
        policy = solution.policy()
        assert policy.min_group_size() == 3

    def test_empty_db(self):
        tree = BinaryTree.build(Rect(0, 0, 8, 8), LocationDatabase(), 2)
        solution = solve(tree, 2)
        assert solution.optimal_cost == 0.0
        assert len(solution.policy()) == 0

    def test_k_validated(self):
        tree = BinaryTree.build(Rect(0, 0, 8, 8), LocationDatabase(), 2)
        with pytest.raises(ReproError):
            solve(tree, 0)


class TestExtraction:
    @pytest.mark.parametrize("seed", range(24, 36))
    def test_policy_cost_equals_dp_optimum(self, seed):
        region, db, k = random_instance(seed)
        if len(db) < k:
            return
        tree = BinaryTree.build(region, db, k, max_depth=8)
        solution = solve(tree, k)
        policy = solution.policy()
        assert policy.cost() == pytest.approx(solution.optimal_cost)
        assert policy.min_group_size() >= k

    def test_extracted_configuration_is_ksummation(self):
        region = Rect(0, 0, 64, 64)
        db = uniform_users(60, region, seed=9)
        tree = BinaryTree.build(region, db, 5)
        config = solve(tree, 5).configuration()
        config.validate()
        assert config.is_complete
        assert config.satisfies_ksummation(5)

    def test_extraction_on_quad_tree(self):
        region = Rect(0, 0, 64, 64)
        db = uniform_users(40, region, seed=10)
        tree = QuadTree.build_adaptive(region, db, split_threshold=4, max_depth=3)
        solution = solve(tree, 4, prune=False)
        policy = solution.policy()
        assert policy.cost() == pytest.approx(solution.optimal_cost)
        assert policy.min_group_size() >= 4

    def test_extraction_deterministic(self):
        region = Rect(0, 0, 64, 64)
        db = uniform_users(50, region, seed=11)
        tree = BinaryTree.build(region, db, 5)
        p1 = solve(tree, 5).policy()
        p2 = solve(tree, 5).policy()
        assert {u: c for u, c in p1.items()} == {u: c for u, c in p2.items()}


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", range(36, 44))
    def test_binary_never_worse_than_quad(self, seed):
        """Any quad-tree policy is also a binary-tree policy (§V), so
        the binary optimum is never more expensive."""
        region, db, k = random_instance(seed)
        if len(db) < k:
            return
        quad = QuadTree.build_adaptive(region, db, split_threshold=k, max_depth=3)
        binary = BinaryTree.build(region, db, k, max_depth=6)
        quad_cost = solve(quad, k, prune=False).optimal_cost
        assert solve(binary, k).optimal_cost <= quad_cost + 1e-9

    @pytest.mark.parametrize("seed", range(44, 52))
    def test_cost_monotone_in_k(self, seed):
        """Stronger anonymity can only cost more: optimal cost is
        non-decreasing in k (any k+1-anonymous policy is k-anonymous)."""
        region, db, __ = random_instance(seed, n_range=(12, 30))
        costs = []
        for k in (2, 3, 4):
            tree = BinaryTree.build(region, db, k, max_depth=6)
            try:
                costs.append(solve(tree, k).optimal_cost)
            except NoFeasiblePolicyError:
                costs.append(float("inf"))
        assert costs == sorted(costs)
