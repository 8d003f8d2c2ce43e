"""Experiment ``fig4b``: bulk anonymization time vs k at fixed |D|.

Paper shape: quasi-linear (really sub-linear) growth in k.  In this
implementation the per-node DP work grows with k while the number of
materialized nodes shrinks as |B| ≈ |D|/k, so the total stays gentle;
we assert the sub-quadratic envelope rather than a specific slope.
"""

from repro.experiments import run_fig4b

from conftest import run_once


def test_fig4b_k_scaling(benchmark, profile, record_table):
    table = run_once(benchmark, run_fig4b, profile)
    record_table("fig4b", table)
    rows = sorted(table.rows, key=lambda r: r["k"])

    # Gentle growth: time never scales worse than k² across the sweep
    # (the paper's curve is sub-linear; ours includes tree (re)builds).
    k1, t1 = rows[0]["k"], rows[0]["total_seconds"]
    for row in rows[1:]:
        ratio = row["total_seconds"] / max(t1, 1e-9)
        assert ratio <= (row["k"] / k1) ** 2 + 2.0, (row["k"], ratio)

    # Cost grows monotonically with k — stronger privacy costs utility.
    costs = [r["cost"] for r in rows]
    assert costs == sorted(costs)

    # Tree size shrinks as k grows (|B| ≈ |D| / k).
    nodes = [r["tree_nodes"] for r in rows]
    assert nodes == sorted(nodes, reverse=True)
