"""Experiment ``fig6``: policy-aware breaches of k-inside refinements.

Regenerates §VII's counter-examples: the k-sharing scheme of [11]
(Figure 6(a)) and a k-reciprocity-satisfying base-station circle scheme
(Figure 6(b)) both pass the policy-unaware audit yet leak the sender's
identity to a policy-aware attacker; randomized trials show the latter
breach is generic, not an artifact of the crafted layout.
"""

from repro.experiments import run_fig6

from conftest import run_once


def test_fig6_refinement_breaches(benchmark, record_table):
    table = run_once(benchmark, run_fig6, 25)
    record_table("fig6", table)
    rows = {(r["scenario"], r["scheme"]): r for r in table.rows}

    crafted_a = rows[("paper 6(a)", "k-sharing")]
    assert crafted_a["property_holds"]  # k-sharing satisfied...
    assert crafted_a["breach"]          # ...yet the sender is identified
    assert crafted_a["aware_level"] == 1

    crafted_b = rows[("paper 6(b)", "k-reciprocity")]
    assert crafted_b["property_holds"]
    assert crafted_b["breach"]

    random_b = rows[("random×25", "k-reciprocity")]
    # Per-user radii make circles essentially unique → generic breaches.
    assert random_b["breach"]
