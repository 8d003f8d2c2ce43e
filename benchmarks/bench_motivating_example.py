"""Experiment ``table1``: Table I / Example 1 / Figure 1.

Regenerates the paper's motivating example: on the five-user location
database, the 2-inside policy (the paper's P1; our PUB baseline emits
its exact cloaks) lets a policy-aware attacker identify Carol, while the
optimal policy-aware policy (the paper's P2) protects everyone.
"""

from repro.experiments import run_table1

from conftest import run_once


def test_table1_motivating_example(benchmark, record_table):
    table = run_once(benchmark, run_table1)
    record_table("table1", table)
    rows = {(r["policy"], r["user"]): r for r in table.rows}
    carol = rows[("PUB", "Carol")]
    # The breach: one policy-aware candidate, despite 3 unaware ones.
    assert carol["aware_candidates"] == 1
    assert carol["unaware_candidates"] == 3
    # The optimal policy-aware policy protects all five senders.
    for (policy, __), row in rows.items():
        if policy != "PUB":
            assert row["aware_candidates"] >= 2
