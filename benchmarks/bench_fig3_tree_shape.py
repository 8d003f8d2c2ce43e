"""Experiment ``fig3``: shape of the lazily-materialized binary tree.

The paper (Figure 3) observes that a binary tree of height ≤ 20 covers
1M Bay-Area locations at k = 50, with no leaf holding more than k users
and denser areas producing deeper (finer-grained) nodes.  We check the
same qualitative facts at the active scale.
"""

import math

from repro.experiments import run_fig3, sample_for
from repro.trees import BinaryTree

from conftest import run_once


def test_fig3_tree_shape(benchmark, profile, record_table):
    table = run_once(benchmark, run_fig3, profile)
    record_table("fig3", table)
    for row in table.rows:
        # No leaf exceeds k (the lazy-materialization invariant).
        assert row["max_leaf_count"] < profile.k
        # Height stays logarithmic-ish: generous bound 2·log2(n/k) + 16.
        bound = 2 * math.log2(max(row["n_users"] / profile.k, 2)) + 16
        assert row["height"] <= bound


def test_fig3_density_adapts_depth(profile, record_table):
    """Denser regions get deeper leaves (the grey-scale of Fig 3(a))."""
    region, db = sample_for(profile.db_fixed, profile)
    tree = BinaryTree.build(region, db, profile.k)
    leaves = tree.leaves()
    populated = [l for l in leaves if l.count > 0]
    deep = [l for l in populated if l.depth >= tree.height - 2]
    shallow = [l for l in populated if l.depth <= tree.height // 2]
    assert deep, "expected some deep leaves in dense areas"
    if shallow:
        # Deep leaves are smaller — finer cloak granularity where dense.
        assert max(l.rect.area for l in deep) < min(
            l.rect.area for l in shallow
        )
