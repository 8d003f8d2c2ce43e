"""Tests for the trajectory-linking attack (demonstrating the paper's
declared future-work gap)."""

import pytest

from repro import LocationDatabase, Rect
from repro.attacks import anonymity_erosion, trajectory_attack
from repro.core.anonymizer import IncrementalAnonymizer
from repro.core.binary_dp import solve
from repro.core.requests import AnonymizedRequest
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 2048, 2048)


class TestTrajectoryAttack:
    def test_single_snapshot_keeps_k(self, region):
        db = uniform_users(120, region, seed=161)
        policy = solve(BinaryTree.build(region, db, 10), 10).policy()
        uid = db.user_ids()[0]
        request = AnonymizedRequest(1, policy.cloak_for(uid), ())
        result = trajectory_attack([(request, policy)])
        assert result.anonymity >= 10
        assert uid in result.surviving

    def test_intersection_semantics(self, region):
        """Crafted two-snapshot scenario: the intersection of two groups
        pins the mover down to fewer than k candidates."""
        # Snapshot 1: a,b together far from c,d.
        db1 = LocationDatabase(
            [("a", 10, 10), ("b", 20, 20), ("c", 2000, 2000), ("d", 2010, 2010)]
        )
        p1 = solve(BinaryTree.build(region, db1, 2, max_depth=8), 2).policy()
        # Snapshot 2: a moved next to c; b moved far away with d.
        db2 = LocationDatabase(
            [("a", 2005, 2005), ("c", 2000, 2000), ("b", 15, 15), ("d", 20, 10)]
        )
        p2 = solve(BinaryTree.build(region, db2, 2, max_depth=8), 2).policy()
        linked = [
            (AnonymizedRequest(1, p1.cloak_for("a"), ()), p1),
            (AnonymizedRequest(2, p2.cloak_for("a"), ()), p2),
        ]
        result = trajectory_attack(linked)
        # Each snapshot alone gives ≥ 2 candidates...
        assert all(len(c) >= 2 for c in result.per_request)
        # ...but only "a" is in both groups.
        assert result.surviving == ("a",)
        assert result.identified

    def test_true_sender_always_survives(self, region):
        """The real user is consistent with every snapshot, so linking
        can never rule her out."""
        db = uniform_users(150, region, seed=162)
        anonymizer = IncrementalAnonymizer(region, 8).fit(db)
        uid = db.user_ids()[5]
        policies = [anonymizer.policy]
        current = db
        for step in range(3):
            moves = random_moves(current, 0.3, region, max_distance=400, seed=step)
            anonymizer.update(moves)
            current = current.with_moves(moves)
            policies.append(anonymizer.policy)
        erosion = anonymity_erosion(uid, policies)
        assert all(level >= 1 for level in erosion)

    def test_erosion_is_monotone_nonincreasing(self, region):
        db = uniform_users(150, region, seed=163)
        anonymizer = IncrementalAnonymizer(region, 8).fit(db)
        uid = db.user_ids()[9]
        policies = [anonymizer.policy]
        current = db
        for step in range(4):
            moves = random_moves(current, 0.4, region, max_distance=600, seed=10 + step)
            anonymizer.update(moves)
            current = current.with_moves(moves)
            policies.append(anonymizer.policy)
        erosion = anonymity_erosion(uid, policies)
        assert erosion[0] >= 8  # per-snapshot guarantee holds at start
        assert erosion == sorted(erosion, reverse=True)

    def test_erosion_happens_in_practice(self, region):
        """With enough movement, *some* user's trajectory anonymity drops
        below k — the gap the paper's future work must close."""
        db = uniform_users(200, region, seed=164)
        k = 10
        anonymizer = IncrementalAnonymizer(region, k).fit(db)
        policies = [anonymizer.policy]
        current = db
        for step in range(5):
            moves = random_moves(current, 0.5, region, max_distance=800, seed=20 + step)
            anonymizer.update(moves)
            current = current.with_moves(moves)
            policies.append(anonymizer.policy)
        eroded = 0
        for uid in db.user_ids()[:50]:
            if anonymity_erosion(uid, policies)[-1] < k:
                eroded += 1
        assert eroded > 0


class TestAttackEdgeCases:
    def test_empty_linked_sequence_rejected(self):
        """An empty observation set is not an identification — it must
        raise instead of returning 0 surviving candidates."""
        with pytest.raises(ValueError, match="at least one linked"):
            trajectory_attack([])

    def test_empty_policy_sequence_rejected(self, region):
        db = uniform_users(30, region, seed=165)
        with pytest.raises(ValueError, match="at least one policy"):
            anonymity_erosion(db.user_ids()[0], [])

    def test_erosion_clamps_at_k_floor(self, region):
        """With ``k`` given, the curve starts exactly at k and never
        exceeds it — slack above the guarantee is clipped."""
        db = uniform_users(150, region, seed=166)
        k = 8
        anonymizer = IncrementalAnonymizer(region, k).fit(db)
        policies = [anonymizer.policy]
        current = db
        for step in range(3):
            moves = random_moves(
                current, 0.4, region, max_distance=600, seed=30 + step
            )
            anonymizer.update(moves)
            current = current.with_moves(moves)
            policies.append(anonymizer.policy)
        uid = db.user_ids()[3]
        raw = anonymity_erosion(uid, policies)
        clamped = anonymity_erosion(uid, policies, k)
        assert clamped[0] == k
        assert all(level <= k for level in clamped)
        assert clamped == [min(level, k) for level in raw]
        # still monotone non-increasing after clamping
        assert clamped == sorted(clamped, reverse=True)
