"""Tests for the literal Definition 5/6 machinery (PREs), including the
paper's worked Examples 6–8, and cross-validation against the
operational attackers."""

import pytest

from repro import Rect, ReproError
from repro.attacks import (
    MaskingFamily,
    PolicyAwareAttacker,
    PolicyUnawareAttacker,
    SingletonFamily,
    enumerate_pres,
    provides_sender_k_anonymity,
    sender_anonymity_level,
)
from repro.baselines import policy_unaware_binary
from repro.core.binary_dp import solve
from repro.core.policy import CloakingPolicy
from repro.core.requests import ServiceRequest
from repro.data import uniform_users
from repro.trees import BinaryTree

from conftest import random_instance

PAYLOAD = (("poi", "rest"), ("cat", "ital"))


def anonymize_all(policy, db, payload=PAYLOAD):
    requests = [
        ServiceRequest(uid, db.location_of(uid), payload)
        for uid in db.user_ids()
    ]
    return [policy.anonymize(sr) for sr in requests]


class TestExample6:
    """Example 6: the policy-unaware attacker finds 3 PREs for AR_c; the
    {P1}-aware attacker finds only Carol."""

    @pytest.fixture
    def p1(self, table1_region, table1_db):
        # P1 is the 2-inside policy of Example 5 = PUB on Table I.
        return policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)

    def test_policy_unaware_sees_three_senders(self, p1, table1_db):
        sr_c = ServiceRequest("Carol", table1_db.location_of("Carol"), PAYLOAD)
        ar_c = p1.anonymize(sr_c)
        family = MaskingFamily(table1_db)
        pres = list(enumerate_pres([ar_c], table1_db, family))
        senders = {pre[ar_c].user_id for pre in pres}
        assert senders == {"Alice", "Bob", "Carol"}
        assert sender_anonymity_level([ar_c], table1_db, family) == 3

    def test_policy_aware_identifies_carol(self, p1, table1_db):
        sr_c = ServiceRequest("Carol", table1_db.location_of("Carol"), PAYLOAD)
        ar_c = p1.anonymize(sr_c)
        family = SingletonFamily(p1)
        pres = list(enumerate_pres([ar_c], table1_db, family))
        assert {pre[ar_c].user_id for pre in pres} == {"Carol"}
        assert sender_anonymity_level([ar_c], table1_db, family) == 1
        assert not provides_sender_k_anonymity([ar_c], table1_db, family, 2)


class TestExample8:
    """Example 8: the optimal policy-aware policy gives 2 PREs per AR."""

    def test_p2_style_policy_is_2_anonymous(self, table1_region, table1_db):
        policy = solve(
            BinaryTree.build(table1_region, table1_db, 2, max_depth=4), 2
        ).policy()
        ars = anonymize_all(policy, table1_db)
        family = SingletonFamily(policy)
        assert sender_anonymity_level(ars, table1_db, family) >= 2


class TestMaskingFamily:
    def test_vocabulary_constraint(self, table1_db):
        allowed = Rect(0, 0, 2, 4)
        family = MaskingFamily(table1_db, vocabulary={allowed})
        policy = CloakingPolicy(
            {
                uid: (allowed if table1_db.location_of(uid).x <= 2 else Rect(0, 0, 4, 4))
                for uid in table1_db.user_ids()
            },
            table1_db,
        )
        sr = ServiceRequest("Sam", table1_db.location_of("Sam"), PAYLOAD)
        ar = policy.anonymize(sr)  # cloak (0,0,4,4) is not in C
        assert list(enumerate_pres([ar], table1_db, family)) == []

    def test_determinism_constraint_across_requests(self, table1_db):
        """Two ARs with identical payloads cannot reverse-engineer to the
        same service request under any single deterministic policy."""
        from repro.core.requests import AnonymizedRequest

        cloak = Rect(0, 0, 1, 2)  # contains only Alice and Bob
        ar1 = AnonymizedRequest(1, cloak, PAYLOAD)
        ar2 = AnonymizedRequest(2, cloak, PAYLOAD)
        family = MaskingFamily(table1_db)
        pres = list(enumerate_pres([ar1, ar2], table1_db, family))
        for pre in pres:
            # Same-sender assignments to distinct ARs are inconsistent
            # with determinism *unless* the ARs are equal as values.
            assert not (
                pre[ar1].user_id == pre[ar2].user_id and ar1 != ar2
            ) or ar1 == ar2
        # Both users can still appear across different PREs.
        senders = {(pre[ar1].user_id, pre[ar2].user_id) for pre in pres}
        assert ("Alice", "Bob") in senders and ("Bob", "Alice") in senders

    def test_guard_against_blowup(self):
        db = uniform_users(40, Rect(0, 0, 64, 64), seed=81)
        policy = CloakingPolicy(
            {uid: Rect(0, 0, 64, 64) for uid in db.user_ids()}, db
        )
        ars = anonymize_all(policy, db)
        with pytest.raises(ReproError, match="too large"):
            list(enumerate_pres(ars, db, MaskingFamily(db)))


class TestCrossValidation:
    """The operational attackers compute exactly the Definition-6 levels."""

    @pytest.mark.parametrize("seed", range(200, 206))
    def test_policy_aware_levels_agree(self, seed):
        region, db, k = random_instance(seed, n_range=(4, 9), k_range=(2, 3))
        if len(db) < k:
            return
        policy = solve(BinaryTree.build(region, db, k, max_depth=4), k).policy()
        ars = anonymize_all(policy, db)
        operational = PolicyAwareAttacker(policy).min_anonymity(ars)
        literal = sender_anonymity_level(ars, db, SingletonFamily(policy))
        assert operational == literal

    @pytest.mark.parametrize("seed", range(206, 212))
    def test_policy_unaware_levels_agree_per_request(self, seed):
        region, db, k = random_instance(seed, n_range=(4, 8), k_range=(2, 3))
        if len(db) < k:
            return
        policy = solve(BinaryTree.build(region, db, k, max_depth=4), k).policy()
        attacker = PolicyUnawareAttacker(db)
        family = MaskingFamily(db)
        for uid in db.user_ids():
            sr = ServiceRequest(uid, db.location_of(uid), PAYLOAD)
            ar = policy.anonymize(sr)
            assert attacker.attack(ar).anonymity == sender_anonymity_level(
                [ar], db, family
            )


class TestKInsideFamily:
    """The intermediate attacker: knows the CSP runs *some* k-inside
    policy, but not which."""

    def test_sits_between_the_extremes(self, table1_region, table1_db):
        from repro.attacks import KInsideFamily

        p1 = policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)
        sr_c = ServiceRequest("Carol", table1_db.location_of("Carol"), PAYLOAD)
        ar_c = p1.anonymize(sr_c)
        unaware = sender_anonymity_level([ar_c], table1_db, MaskingFamily(table1_db))
        kinside = sender_anonymity_level(
            [ar_c], table1_db, KInsideFamily(table1_db, 2)
        )
        aware = sender_anonymity_level([ar_c], table1_db, SingletonFamily(p1))
        assert aware <= kinside <= unaware
        # R3 holds 3 users ≥ k, so the k-inside attacker learns nothing
        # beyond the unaware one here.
        assert kinside == unaware == 3
        assert aware == 1

    def test_underfull_cloak_is_inconsistent(self, table1_db):
        """A cloak holding < k users cannot come from any k-inside
        policy — the family yields no PREs for it."""
        from repro.attacks import KInsideFamily
        from repro.core.requests import AnonymizedRequest

        tiny = Rect(0.5, 0.5, 1.5, 1.5)  # contains only Alice
        ar = AnonymizedRequest(1, tiny, PAYLOAD)
        family = KInsideFamily(table1_db, 2)
        assert list(enumerate_pres([ar], table1_db, family)) == []

    def test_vocabulary_constraint_inherited(self, table1_db):
        from repro.attacks import KInsideFamily
        from repro.core.requests import AnonymizedRequest

        big = Rect(0, 0, 4, 4)
        family = KInsideFamily(table1_db, 2, vocabulary={Rect(0, 0, 2, 4)})
        ar = AnonymizedRequest(1, big, PAYLOAD)
        assert list(enumerate_pres([ar], table1_db, family)) == []
