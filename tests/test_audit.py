"""Tests for the anonymity auditor."""

import pytest

from repro import AnonymityBreachError, LocationDatabase
from repro.attacks import assert_policy_aware_k_anonymous, audit_policy
from repro.baselines import policy_unaware_binary
from repro.core.binary_dp import solve
from repro.core.policy import CloakingPolicy
from repro.trees import BinaryTree


@pytest.fixture
def breached_policy(table1_region, table1_db):
    return policy_unaware_binary(table1_region, table1_db, 2, max_depth=4)


@pytest.fixture
def safe_policy(table1_region, table1_db):
    return solve(
        BinaryTree.build(table1_region, table1_db, 2, max_depth=4), 2
    ).policy()


class TestAuditReport:
    def test_breach_fields(self, breached_policy):
        report = audit_policy(breached_policy, 2)
        assert report.policy_unaware_level == 2
        assert report.policy_aware_level == 1
        assert report.safe_policy_unaware
        assert not report.safe_policy_aware
        assert report.breached_users == ("Carol",)
        assert report.identified_users == ("Carol",)

    def test_safe_fields(self, safe_policy):
        report = audit_policy(safe_policy, 2)
        assert report.safe_policy_aware
        assert report.safe_policy_unaware
        assert report.breached_users == ()

    def test_summary_mentions_breach(self, breached_policy):
        assert "BREACH" in audit_policy(breached_policy, 2).summary()

    def test_summary_mentions_ok(self, safe_policy):
        summary = audit_policy(safe_policy, 2).summary()
        assert "BREACH" not in summary
        assert "OK" in summary

    def test_empty_policy_levels_are_zero(self):
        report = audit_policy(CloakingPolicy({}, LocationDatabase()), 2)
        assert report.policy_aware_level == 0
        assert report.policy_unaware_level == 0


class TestAssertGate:
    def test_raises_on_breach(self, breached_policy):
        with pytest.raises(AnonymityBreachError) as excinfo:
            assert_policy_aware_k_anonymous(breached_policy, 2)
        assert excinfo.value.breached_users == ("Carol",)

    def test_passes_on_safe(self, safe_policy):
        report = assert_policy_aware_k_anonymous(safe_policy, 2)
        assert report.safe_policy_aware
