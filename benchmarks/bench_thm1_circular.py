"""Experiment ``thm1``: the circular-cloak problem is NP-complete.

Empirical companion to Theorem 1: the exact subset-DP's running time
grows exponentially with the number of users while the polynomial
greedy heuristic stays flat (and pays a bounded optimality gap).
"""

from repro.experiments import run_thm1

from conftest import run_once


def test_thm1_exponential_exact_vs_greedy(benchmark, record_table):
    table = run_once(benchmark, run_thm1, 13, 3)
    record_table("thm1", table)
    rows = sorted(table.rows, key=lambda r: r["n_users"])

    # The greedy heuristic never beats the exact optimum.
    assert all(r["cost_ratio"] >= 1.0 - 1e-9 for r in rows)

    # Exponential blow-up: time from the smallest to the largest n grows
    # by well over the linear factor.
    t_first = max(rows[0]["exact_seconds"], 1e-6)
    t_last = rows[-1]["exact_seconds"]
    n_ratio = rows[-1]["n_users"] / rows[0]["n_users"]
    assert t_last / t_first > 4 * n_ratio

    # The heuristic stays cheap throughout.
    assert all(r["greedy_seconds"] < 0.5 for r in rows)
