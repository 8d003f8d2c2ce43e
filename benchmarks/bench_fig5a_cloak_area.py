"""Experiment ``fig5a``: average cloak area of the four policies.

Paper shape (§VI-B): Casper has the smallest cloaks; the policy-aware
optimum is nearly identical to the policy-unaware quad tree and at most
~1.7× Casper — the measured "price of the stronger guarantee".
"""

from repro.experiments import run_fig5a

from conftest import run_once


def test_fig5a_cloak_area(benchmark, profile, record_table):
    table = run_once(benchmark, run_fig5a, profile)
    record_table("fig5a", table)
    for row in table.rows:
        # Casper is the utility floor of the comparison.
        assert row["casper"] <= row["pub"] + 1e-6
        assert row["casper"] <= row["puq"] + 1e-6
        # PUB lower-bounds the policy-aware optimum (same vocabulary).
        assert row["pub"] <= row["policy_aware"] + 1e-6
        # The headline number: policy-aware ≤ ~1.7 × Casper (we allow a
        # small margin for the synthetic data).
        assert row["pa_over_casper"] <= 1.9, row
        # "Nearly identical to the policy-unaware quad tree": same
        # ballpark, not an order of magnitude apart.
        assert row["policy_aware"] <= row["puq"] * 1.5 + 1e-6
