"""Tests for the high-level anonymizer façade."""

import pytest

from repro import (
    IncrementalAnonymizer,
    Point,
    PolicyAwareAnonymizer,
    Rect,
    ReproError,
)
from repro.core.binary_dp import solve
from repro.core.requests import ServiceRequest
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 256, 256)


@pytest.fixture
def db(region):
    return uniform_users(150, region, seed=21)


class TestPolicyAwareAnonymizer:
    def test_requires_fit(self, region):
        anonymizer = PolicyAwareAnonymizer(region, k=5)
        with pytest.raises(ReproError, match="fit"):
            __ = anonymizer.optimal_cost
        with pytest.raises(ReproError, match="fit"):
            __ = anonymizer.policy

    def test_k_validated(self, region):
        with pytest.raises(ReproError):
            PolicyAwareAnonymizer(region, k=0)

    def test_fit_returns_self(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=5)
        assert anonymizer.fit(db) is anonymizer

    def test_cost_matches_direct_solver(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=5).fit(db)
        direct = solve(BinaryTree.build(region, db, 5), 5).optimal_cost
        assert anonymizer.optimal_cost == pytest.approx(direct)

    def test_policy_is_cached(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=5).fit(db)
        assert anonymizer.policy is anonymizer.policy

    def test_anonymize_round_trip(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=5).fit(db)
        uid = db.user_ids()[3]
        sr = ServiceRequest(uid, db.location_of(uid), (("poi", "rest"),))
        ar = anonymizer.anonymize(sr)
        assert ar.cloak.contains(sr.location)
        assert ar.payload == sr.payload

    def test_average_cloak_area(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=5).fit(db)
        assert anonymizer.average_cloak_area() == pytest.approx(
            anonymizer.optimal_cost / len(db)
        )

    def test_policy_is_k_anonymous(self, region, db):
        anonymizer = PolicyAwareAnonymizer(region, k=7).fit(db)
        assert anonymizer.policy.min_group_size() >= 7


class TestIncrementalAnonymizer:
    def test_update_matches_bulk(self, region, db):
        anonymizer = IncrementalAnonymizer(region, k=5).fit(db)
        moves = random_moves(db, 0.2, region, max_distance=30, seed=4)
        report = anonymizer.update(moves)
        assert report.moved_users == len(moves)
        moved_db = db.with_moves(moves)
        bulk = solve(BinaryTree.build(region, moved_db, 5), 5).optimal_cost
        assert anonymizer.optimal_cost == pytest.approx(bulk)

    def test_update_report_fractions(self, region, db):
        anonymizer = IncrementalAnonymizer(region, k=5).fit(db)
        moves = random_moves(db, 0.05, region, max_distance=10, seed=5)
        report = anonymizer.update(moves)
        assert 0.0 < report.recomputed_fraction <= 1.0
        assert report.recomputed_nodes <= report.total_nodes

    def test_policy_refreshed_after_update(self, region, db):
        anonymizer = IncrementalAnonymizer(region, k=5).fit(db)
        before = anonymizer.policy
        uid = db.user_ids()[0]
        anonymizer.update({uid: Point(255, 255)})
        after = anonymizer.policy
        assert after.cloak_for(uid).contains(Point(255, 255))
        assert before is not after

    def test_current_db_tracks_moves(self, region, db):
        anonymizer = IncrementalAnonymizer(region, k=5).fit(db)
        uid = db.user_ids()[0]
        anonymizer.update({uid: Point(200, 200)})
        assert anonymizer.current_db.location_of(uid) == Point(200, 200)

    def test_repeated_updates_stay_consistent(self, region, db):
        anonymizer = IncrementalAnonymizer(region, k=6).fit(db)
        current = db
        for step in range(5):
            moves = random_moves(current, 0.1, region, max_distance=25, seed=step)
            anonymizer.update(moves)
            current = current.with_moves(moves)
            bulk = solve(BinaryTree.build(region, current, 6), 6).optimal_cost
            assert anonymizer.optimal_cost == pytest.approx(bulk)
            assert anonymizer.policy.min_group_size() >= 6
