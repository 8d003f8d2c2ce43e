"""Experiment ``fig4a``: bulk anonymization time vs |D| and server count.

Paper shape: running time is linear in |D| (the §V complexity analysis
predicts O(k·|D|·log²(|D|/k))), and m share-nothing servers cut wall
clock by ≈ m.  The bench regenerates the whole figure once, then
asserts the two shapes on the recorded rows.
"""

from repro.experiments import run_fig4a

from conftest import run_once


def test_fig4a_bulk_anonymization(benchmark, profile, record_table):
    table = run_once(benchmark, run_fig4a, profile)
    record_table("fig4a", table)
    rows = table.rows

    # Shape 1 — near-linear scaling in |D| (single server): doubling the
    # input must not blow up super-linearly beyond a generous factor.
    single = sorted(
        (r["n_users"], r["wall_seconds"]) for r in rows if r["servers"] == 1
    )
    for (n1, t1), (n2, t2) in zip(single, single[1:]):
        growth = t2 / max(t1, 1e-9)
        assert growth <= (n2 / n1) * 2.5, (n1, n2, t1, t2)

    # Shape 2 — parallel speedup: the most-parallel configuration beats
    # the single server on the largest workload.
    biggest = max(r["n_users"] for r in rows)
    at_big = {r["servers"]: r["wall_seconds"] for r in rows if r["n_users"] == biggest}
    max_servers = max(at_big)
    if max_servers > 1:
        assert at_big[max_servers] < at_big[1]

    # Cost is independent of how many servers computed it (±1%, §VI-D).
    for n_users in {r["n_users"] for r in rows}:
        costs = [r["cost"] for r in rows if r["n_users"] == n_users]
        assert max(costs) <= min(costs) * 1.01 + 1e-9
