"""Experiment ``fig5b``: incremental maintenance vs bulk recomputation.

Paper shape (§VI-C): incremental beats bulk while few users move, but
once roughly 5% of users move per snapshot most leaves are dirty and
incremental degenerates into bulk.  Correctness (identical cost) must
hold at every point.
"""

from repro.experiments import run_fig5b

from conftest import run_once


def test_fig5b_incremental_maintenance(benchmark, profile, record_table):
    table = run_once(benchmark, run_fig5b, profile)
    record_table("fig5b", table)
    rows = sorted(table.rows, key=lambda r: r["percent_moving"])

    # Correctness at every move rate.
    assert all(r["costs_equal"] for r in rows)

    # At the smallest move rate, incremental repairs only part of the
    # tree and is faster than bulk.
    smallest = rows[0]
    assert smallest["recomputed_nodes"] < smallest["total_nodes"]
    assert smallest["incremental_seconds"] < smallest["bulk_seconds"]

    # Dirty work grows with the move rate.
    recomputed = [r["recomputed_nodes"] for r in rows]
    assert recomputed == sorted(recomputed)

    # At the largest move rate incremental no longer wins big: it is at
    # worst ~bulk (the paper's "degenerates into bulk anonymization").
    largest = rows[-1]
    assert largest["incremental_seconds"] <= largest["bulk_seconds"] * 2.0
