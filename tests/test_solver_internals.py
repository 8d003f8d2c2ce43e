"""White-box tests of the optimized solver's kernels and of the tree
invariant checker's failure detection (error injection)."""

import numpy as np
import pytest

from repro import Rect, TreeError
from repro.core.binary_dp import (
    NodeSolution,
    _aggregate_children,
    _cap_for,
    _min_plus,
    _node_step,
)
from repro.data import uniform_users
from repro.trees import BinaryTree

INF = float("inf")


class TestMinPlus:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(261)
        for __ in range(10):
            a = rng.uniform(0, 100, size=rng.integers(1, 8))
            b = rng.uniform(0, 100, size=rng.integers(1, 8))
            out = _min_plus(a, b)
            assert len(out) == len(a) + len(b) - 1
            for j in range(len(out)):
                expected = min(
                    a[i] + b[j - i]
                    for i in range(len(a))
                    if 0 <= j - i < len(b)
                )
                assert out[j] == pytest.approx(expected)

    def test_empty_operand(self):
        assert len(_min_plus(np.empty(0), np.array([1.0]))) == 0

    def test_inf_entries_ignored(self):
        a = np.array([INF, 1.0])
        b = np.array([2.0, 3.0])
        out = _min_plus(a, b)
        # out[0] can only come from a[0]+b[0] = inf.
        assert out[0] == INF
        assert out[1] == 3.0  # a[1]+b[0]

    def test_commutative(self):
        rng = np.random.default_rng(262)
        a, b = rng.uniform(0, 10, 5), rng.uniform(0, 10, 3)
        assert np.allclose(_min_plus(a, b), _min_plus(b, a))


class TestAggregateChildren:
    def test_single_child_pieces(self):
        sol = NodeSolution(0, d=5, vec=np.array([7.0, 3.0]))
        pieces = _aggregate_children([sol])
        # (0, conv([0], vec)) and (5, [0]) — dense part plus sentinel.
        as_dict = {}
        for offset, arr in pieces:
            for i, value in enumerate(arr):
                key = offset + i
                as_dict[key] = min(as_dict.get(key, INF), value)
        assert as_dict[0] == 7.0
        assert as_dict[1] == 3.0
        assert as_dict[5] == 0.0

    def test_two_children_cover_all_combos(self):
        a = NodeSolution(0, d=3, vec=np.array([10.0]))
        b = NodeSolution(1, d=4, vec=np.array([20.0, 5.0]))
        pieces = _aggregate_children([a, b])
        combos = {}
        for offset, arr in pieces:
            for i, value in enumerate(arr):
                key = offset + i
                combos[key] = min(combos.get(key, INF), value)
        # u_a ∈ {0:10, 3:0}; u_b ∈ {0:20, 1:5, 4:0}.
        assert combos[0] == 30.0       # 0+0
        assert combos[1] == 15.0       # 0+1
        assert combos[3] == 20.0       # 3+0
        assert combos[4] == pytest.approx(5.0)  # best of 0+4 (10) and 3+1 (5)
        assert combos[7] == 0.0        # 3+4 sentinel+sentinel

    def test_empty_vec_child(self):
        a = NodeSolution(0, d=2, vec=np.empty(0))
        b = NodeSolution(1, d=3, vec=np.array([1.0]))
        pieces = _aggregate_children([a, b])
        combos = {}
        for offset, arr in pieces:
            for i, value in enumerate(arr):
                combos[offset + i] = min(combos.get(offset + i, INF), value)
        assert set(combos) == {2, 5}  # only via a's sentinel
        assert combos[2] == 1.0 and combos[5] == 0.0


class TestNodeStep:
    class FakeNode:
        def __init__(self, area):
            self.rect = Rect(0, 0, area ** 0.5, area ** 0.5)

    def test_equality_and_cloak_choices(self):
        node = self.FakeNode(area=4.0)
        # temp: j=0 cost 8; j=5 cost 0 (sentinel-ish piece).
        pieces = [(0, np.array([8.0])), (5, np.array([0.0]))]
        vec = _node_step(node, pieces, k=2, cap=3)
        # u=0: either temp[0]=8, or cloak 5 from j=5: 0 + 5·4 = 20 → 8.
        assert vec[0] == 8.0
        # u=3: temp[3] missing; j ≥ 5: cloak 2 → 0 + 2·4 = 8.
        assert vec[3] == 8.0

    def test_k_gap_respected(self):
        node = self.FakeNode(area=1.0)
        pieces = [(4, np.array([0.0]))]  # only j=4 available
        vec = _node_step(node, pieces, k=3, cap=2)
        # u=0: cloak 4 ≥ 3 OK → cost 4. u=2: j=4 needs cloak 2 < k → inf.
        assert vec[0] == 4.0
        assert vec[2] == INF

    def test_negative_cap(self):
        node = self.FakeNode(area=1.0)
        assert len(_node_step(node, [], k=2, cap=-1)) == 0


class TestCapFor:
    def test_cap_formula(self):
        class N:
            count = 20
            depth = 3

        assert _cap_for(N, k=5, prune=False) == 15
        assert _cap_for(N, k=5, prune=True) == min(15, 18)

    def test_negative_when_sparse(self):
        class N:
            count = 2
            depth = 1

        assert _cap_for(N, k=5, prune=False) == -3


class TestInvariantInjection:
    """check_invariants must catch each corruption category."""

    @pytest.fixture
    def tree(self):
        region = Rect(0, 0, 256, 256)
        db = uniform_users(120, region, seed=263)
        return BinaryTree.build(region, db, 8)

    def test_clean_tree_passes(self, tree):
        tree.check_invariants()

    def test_corrupted_leaf_count(self, tree):
        leaf = next(l for l in tree.leaves() if l.count > 0)
        leaf.count += 1
        with pytest.raises(TreeError, match="count mismatch"):
            tree.check_invariants()

    def test_corrupted_internal_count(self, tree):
        internal = next(n for n in tree.nodes.values() if not n.is_leaf)
        internal.count += 1
        with pytest.raises(TreeError, match="mismatch|collapsed"):
            tree.check_invariants()

    def test_stale_leaf_assignment(self, tree):
        populated = [l for l in tree.leaves() if l.count > 0]
        leaf_a, leaf_b = populated[0], populated[1]
        row = next(iter(leaf_a.point_index))
        # Move the row's membership without updating _leaf_of.
        leaf_a.point_index.discard(row)
        leaf_a.count -= 1
        leaf_b.point_index.add(row)
        leaf_b.count += 1
        with pytest.raises(TreeError):
            tree.check_invariants()

    def test_point_outside_leaf(self, tree):
        populated = next(l for l in tree.leaves() if l.count > 0)
        row = next(iter(populated.point_index))
        tree.coords[row] = (
            populated.rect.x2 + 50.0,
            populated.rect.y2 + 50.0,
        )
        with pytest.raises(TreeError, match="outside"):
            tree.check_invariants()

    def test_registry_desync(self, tree):
        some_leaf = tree.leaves()[0]
        del tree.nodes[some_leaf.node_id]
        with pytest.raises(TreeError, match="registry"):
            tree.check_invariants()

    def test_lazy_violation(self, tree):
        # Force a leaf to look over-full.
        leaf = tree.leaves()[0]
        for fake_row in range(10_000, 10_000 + tree.split_threshold + 1):
            leaf.point_index.add(fake_row)
        leaf.count = len(leaf.point_index)
        with pytest.raises(TreeError):
            tree.check_invariants()
