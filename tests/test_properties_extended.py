"""Second property-based suite: persistence, pyramids, workloads,
circular solvers, and policy-group algebra."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import LocationDatabase, Point, Rect
from repro.baselines import solve_greedy, verify_solution
from repro.baselines.casper_adaptive import CasperPyramid
from repro.core.binary_dp import solve
from repro.core.serialization import policy_from_dict, policy_to_dict
from repro.data import zipf_weights
from repro.trees import BinaryTree

SIDE = 64.0

coords = st.tuples(
    st.floats(min_value=0.0, max_value=SIDE, allow_nan=False, width=32),
    st.floats(min_value=0.0, max_value=SIDE, allow_nan=False, width=32),
)
point_lists = st.lists(coords, min_size=2, max_size=20)
ks = st.integers(min_value=2, max_value=4)


def db_from(points):
    return LocationDatabase((f"u{i}", x, y) for i, (x, y) in enumerate(points))


class TestSerializationProperties:
    @given(point_lists, ks)
    @settings(max_examples=25, deadline=None)
    def test_policy_json_round_trip(self, points, k):
        assume(len(points) >= k)
        db = db_from(points)
        tree = BinaryTree.build(Rect(0, 0, SIDE, SIDE), db, k, max_depth=8)
        policy = solve(tree, k).policy()
        payload = json.loads(json.dumps(policy_to_dict(policy)))
        rebuilt = policy_from_dict(payload)
        assert rebuilt.cost() == pytest.approx(policy.cost())
        assert rebuilt.min_group_size() == policy.min_group_size()
        for uid in db.user_ids():
            assert rebuilt.cloak_for(uid) == policy.cloak_for(uid)


class TestPyramidProperties:
    @given(point_lists, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_incremental_counts_match_rebuild(self, points, seed):
        db = db_from(points)
        region = Rect(0, 0, SIDE, SIDE)
        pyramid = CasperPyramid(region, db, height=4)
        rng = np.random.default_rng(seed)
        moves = {
            uid: Point(float(rng.uniform(0, SIDE)), float(rng.uniform(0, SIDE)))
            for uid in db.user_ids()
            if rng.random() < 0.5
        }
        pyramid.apply_moves(moves)
        pyramid.check_counts()
        fresh = CasperPyramid(region, db.with_moves(moves), height=4)
        for level in range(5):
            assert np.array_equal(pyramid.counts[level], fresh.counts[level])

    @given(point_lists, ks)
    @settings(max_examples=25, deadline=None)
    def test_cloaks_are_k_inside(self, points, k):
        assume(len(points) >= k)
        db = db_from(points)
        pyramid = CasperPyramid(Rect(0, 0, SIDE, SIDE), db, height=5)
        for uid, point in db.items():
            cloak = pyramid.cloak(point, k)
            assert cloak.contains(point)
            assert db.count_in(cloak) >= k


class TestCircularProperties:
    @given(point_lists, ks)
    @settings(max_examples=20, deadline=None)
    def test_greedy_output_verifies(self, points, k):
        assume(len(points) >= k)
        db = db_from(points)
        centers = [Point(SIDE / 4, SIDE / 4), Point(3 * SIDE / 4, SIDE / 2)]
        solution = solve_greedy(db, centers, k)
        verify_solution(db, centers, k, solution, budget=solution.cost)


class TestPolicyGroupAlgebra:
    @given(point_lists, ks)
    @settings(max_examples=25, deadline=None)
    def test_groups_partition_users(self, points, k):
        assume(len(points) >= k)
        db = db_from(points)
        tree = BinaryTree.build(Rect(0, 0, SIDE, SIDE), db, k, max_depth=8)
        policy = solve(tree, k).policy()
        groups = policy.groups()
        flattened = [uid for members in groups.values() for uid in members]
        assert sorted(flattened) == sorted(db.user_ids())
        # Every group is spatially consistent: members inside their cloak.
        for region, members in groups.items():
            for uid in members:
                assert region.contains(db.location_of(uid))

    @given(point_lists, ks)
    @settings(max_examples=25, deadline=None)
    def test_cost_decomposes_over_groups(self, points, k):
        assume(len(points) >= k)
        db = db_from(points)
        tree = BinaryTree.build(Rect(0, 0, SIDE, SIDE), db, k, max_depth=8)
        policy = solve(tree, k).policy()
        by_groups = sum(
            len(members) * region.area
            for region, members in policy.groups().items()
        )
        assert by_groups == pytest.approx(policy.cost())


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_zipf_is_a_distribution(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert len(weights) == n
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()
        assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
