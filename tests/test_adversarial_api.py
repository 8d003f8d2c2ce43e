"""Adversarial / wrong-usage tests: the library must fail loudly and
specifically when its contracts are violated, never silently corrupt a
privacy guarantee."""

import pytest

from repro import (
    ConfigurationError,
    LocationDatabase,
    Point,
    PolicyError,
    Rect,
)
from repro.core.binary_dp import solve
from repro.core.configuration import configuration_of_policy
from repro.core.requests import ServiceRequest
from repro.data import uniform_users
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 256, 256)


@pytest.fixture
def db(region):
    return uniform_users(60, region, seed=291)


class TestWrongSnapshotUsage:
    def test_policy_rejects_request_from_other_snapshot(self, region, db):
        policy = solve(BinaryTree.build(region, db, 5), 5).policy()
        uid = db.user_ids()[0]
        moved = db.with_moves({uid: Point(1.0, 1.0)})
        stale = ServiceRequest(uid, moved.location_of(uid))
        with pytest.raises(PolicyError, match="not valid"):
            policy.anonymize(stale)

    def test_policy_rejects_foreign_user(self, region, db):
        policy = solve(BinaryTree.build(region, db, 5), 5).policy()
        intruder = ServiceRequest("intruder", Point(10, 10))
        with pytest.raises(PolicyError):
            policy.anonymize(intruder)


class TestCrossTreeConfusion:
    def test_configuration_from_wrong_tree(self, region, db):
        tree_a = BinaryTree.build(region, db, 5)
        other_db = uniform_users(60, region, seed=292)
        tree_b = BinaryTree.build(region, other_db, 5)
        policy_b = solve(tree_b, 5).policy()
        # Reading policy B's cloaks against tree A must either map to
        # node rects (possible — same region grid) or fail; what it must
        # NOT do is produce a negative/invalid configuration silently.
        try:
            config = configuration_of_policy(tree_a, policy_b)
        except (ConfigurationError, PolicyError):
            return
        config.validate()

    def test_configuration_value_for_foreign_node(self, region, db):
        tree = BinaryTree.build(region, db, 5)
        config = solve(tree, 5).configuration()
        with pytest.raises(ConfigurationError, match="no value"):
            config[999_999]


class TestDegenerateGeometry:
    def test_all_users_on_one_point(self, region):
        db = LocationDatabase([(f"u{i}", 128.0, 128.0) for i in range(40)])
        tree = BinaryTree.build(region, db, 10, max_depth=12)
        policy = solve(tree, 10).policy()
        assert policy.min_group_size() >= 10
        # The shared cloak is the max-depth cell around the point.
        assert policy.cloak_for("u0").contains(Point(128, 128))

    def test_users_on_the_map_corner(self, region):
        db = LocationDatabase(
            [(f"c{i}", 0.0, 0.0) for i in range(5)]
            + [(f"f{i}", 256.0, 256.0) for i in range(5)]
        )
        tree = BinaryTree.build(region, db, 5, max_depth=10)
        policy = solve(tree, 5).policy()
        assert policy.min_group_size() >= 5

    def test_user_exactly_on_every_split_line(self, region):
        # The map center lies on split lines at every level.
        db = LocationDatabase(
            [("center", 128.0, 128.0)]
            + [(f"u{i}", float(10 + i), 10.0) for i in range(9)]
        )
        tree = BinaryTree.build(region, db, 3, max_depth=10)
        tree.check_invariants()
        policy = solve(tree, 3).policy()
        assert policy.cloak_for("center").contains(Point(128, 128))


class TestMutationAfterExtraction:
    def test_policy_survives_tree_moves(self, region, db):
        """A policy extracted for snapshot t keeps serving snapshot-t
        requests even after the tree advanced to t+1 (the CSP may pin
        the old policy while the new one is being computed)."""
        tree = BinaryTree.build(region, db, 5)
        solution = solve(tree, 5)
        policy = solution.policy()
        uid = db.user_ids()[0]
        old_location = db.location_of(uid)
        tree.apply_moves({uid: Point(255, 255)})
        # The extracted policy still validates against the *old* db.
        request = ServiceRequest(uid, old_location)
        ar = policy.anonymize(request)
        assert ar.cloak.contains(old_location)

    def test_fresh_extraction_after_moves_needs_repair(self, region, db):
        """Extracting from a stale solution after the tree moved is a
        contract violation the library must not satisfy silently."""
        from repro.core.binary_dp import resolve_dirty

        tree = BinaryTree.build(region, db, 5)
        solution = solve(tree, 5)
        dirty = tree.apply_moves(
            {db.user_ids()[0]: Point(255.0, 255.0)}
        )
        repaired, __ = resolve_dirty(solution, dirty)
        policy = repaired.policy()  # repaired solution is fine
        assert policy.min_group_size() >= 5
