"""Tests for the operational attackers and the paper's Propositions 1–3."""

import pytest

from repro import LocationDatabase, Rect
from repro.attacks import (
    AttackResult,
    PolicyAwareAttacker,
    PolicyUnawareAttacker,
)
from repro.baselines import policy_unaware_binary
from repro.core.binary_dp import solve
from repro.core.requests import AnonymizedRequest, ServiceRequest
from repro.trees import BinaryTree

from conftest import random_instance


def anonymize_all(policy, db):
    return [
        policy.anonymize(ServiceRequest(uid, db.location_of(uid)))
        for uid in db.user_ids()
    ]


class TestAttackResult:
    def test_anonymity_and_identified(self):
        ar = AnonymizedRequest(1, Rect(0, 0, 1, 1))
        single = AttackResult(ar, ("alice",))
        multi = AttackResult(ar, ("alice", "bob"))
        assert single.anonymity == 1 and single.identified == "alice"
        assert multi.anonymity == 2 and multi.identified is None
        assert single.breaches(2) and not multi.breaches(2)


class TestPolicyUnawareAttacker:
    def test_candidates_are_cloak_population(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 9, 9)])
        attacker = PolicyUnawareAttacker(db)
        ar = AnonymizedRequest(1, Rect(0, 0, 4, 4))
        assert sorted(attacker.attack(ar).candidates) == ["a", "b"]

    def test_min_anonymity_over_set(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 9, 9)])
        attacker = PolicyUnawareAttacker(db)
        ars = [
            AnonymizedRequest(1, Rect(0, 0, 4, 4)),
            AnonymizedRequest(2, Rect(8, 8, 10, 10)),
        ]
        assert attacker.min_anonymity(ars) == 1

    def test_empty_request_set(self):
        attacker = PolicyUnawareAttacker(LocationDatabase())
        assert attacker.min_anonymity([]) == 0


class TestPolicyAwareAttacker:
    def test_candidates_are_cloak_group(self, table1_region, table1_db):
        policy = policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)
        attacker = PolicyAwareAttacker(policy)
        ar_c = policy.anonymize(
            ServiceRequest("Carol", table1_db.location_of("Carol"))
        )
        assert attacker.attack(ar_c).candidates == ("Carol",)
        assert attacker.attack(ar_c).identified == "Carol"

    def test_unknown_cloak_has_no_candidates(self, table1_region, table1_db):
        policy = policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)
        attacker = PolicyAwareAttacker(policy)
        foreign = AnonymizedRequest(99, Rect(0, 0, 0.5, 0.5))
        assert attacker.attack(foreign).anonymity == 0

    def test_identified_senders(self, table1_region, table1_db):
        policy = policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)
        attacker = PolicyAwareAttacker(policy)
        ars = anonymize_all(policy, table1_db)
        assert attacker.identified_senders(ars) == ["Carol"]


class TestPropositions:
    @pytest.mark.parametrize("seed", range(300, 312))
    def test_proposition1_aware_at_most_unaware(self, seed):
        """Prop 1 (contrapositive view): the policy-aware candidate set
        is a subset of the unaware one, so aware anonymity ≤ unaware."""
        region, db, k = random_instance(seed)
        if len(db) < k:
            return
        policy = solve(BinaryTree.build(region, db, k, max_depth=6), k).policy()
        ars = anonymize_all(policy, db)
        aware = PolicyAwareAttacker(policy)
        unaware = PolicyUnawareAttacker(db)
        for ar in ars:
            a = set(aware.attack(ar).candidates)
            u = set(unaware.attack(ar).candidates)
            assert a <= u

    @pytest.mark.parametrize("seed", range(312, 320))
    def test_proposition1_dp_output_safe_both_ways(self, seed):
        """A policy that defends policy-aware attackers also defends
        policy-unaware ones (Prop 1) — check on the DP's output."""
        region, db, k = random_instance(seed)
        if len(db) < k:
            return
        policy = solve(BinaryTree.build(region, db, k, max_depth=6), k).policy()
        ars = anonymize_all(policy, db)
        assert PolicyAwareAttacker(policy).min_anonymity(ars) >= k
        assert PolicyUnawareAttacker(db).min_anonymity(ars) >= k

    @pytest.mark.parametrize("seed", range(320, 330))
    def test_proposition2_kinside_unaware_safe(self, seed):
        region, db, k = random_instance(seed, n_range=(8, 40))
        if len(db) < k:
            return
        policy = policy_unaware_binary(region, db, k)
        ars = anonymize_all(policy, db)
        assert PolicyUnawareAttacker(db).min_anonymity(ars) >= k

    def test_proposition3_witness(self, table1_region, table1_db):
        """Not all k-inside policies defend policy-aware attackers."""
        policy = policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)
        ars = anonymize_all(policy, table1_db)
        assert PolicyUnawareAttacker(table1_db).min_anonymity(ars) >= 2
        assert PolicyAwareAttacker(policy).min_anonymity(ars) < 2
