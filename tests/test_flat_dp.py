"""Property tests for the flat-array DP engine (§V over arrays).

The flat engine's contract is *bit identity*: every per-node cost
vector — not just the optimum — must equal the object solver's, which
in turn matches the literal Algorithm 1.  The memoized incremental
path must preserve that identity across arbitrary move schedules while
recomputing no more nodes than the object path.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.attacks.audit import audit_policy
from repro.core.binary_dp import (
    resolve_dirty,
    solve,
    solve_best_orientation,
    solve_object,
)
from repro.core.bulk_dp import solve_naive
from repro.core.errors import NoFeasiblePolicyError
from repro.core.flat_dp import (
    FlatTreeSolution,
    SubtreeMemo,
    extract_cloaks,
    is_binary_tree,
    solve_arrays,
    solve_flat,
)
from repro.core.geometry import Rect
from repro.core.locationdb import LocationDatabase
from repro.core.policy import CloakingPolicy
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.parallel import parallel_bulk_anonymize
from repro.parallel.engine import _solve_jurisdiction
from repro.trees.binarytree import BinaryTree
from repro.trees.flat import FlatTree
from repro.trees.quadtree import QuadTree

REGION = Rect(0, 0, 256, 256)


def _random_instance(rng, n_max=70):
    n = rng.randint(0, n_max)
    k = rng.randint(1, 6)
    rows = [
        (f"u{i}", rng.uniform(0, 256), rng.uniform(0, 256)) for i in range(n)
    ]
    return LocationDatabase(rows), k


def _cost_or_none(solution):
    try:
        return solution.optimal_cost
    except NoFeasiblePolicyError:
        return None


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105, 106])
def test_flat_matches_object_and_naive(seed):
    """Flat ≡ object (bit-identical vectors) ≡ Algorithm 1 (cost)."""
    rng = random.Random(seed)
    for __ in range(6):
        db, k = _random_instance(rng)
        tree = BinaryTree.build(REGION, db, k)
        for prune in (True, False):
            flat_sol = solve_flat(tree, k, prune=prune)
            obj_sol = solve_object(tree, k, prune)
            cf, co = _cost_or_none(flat_sol), _cost_or_none(obj_sol)
            assert cf == co  # exact, including infeasibility
            for nid, ns in obj_sol.solutions.items():
                assert np.array_equal(ns.vec, flat_sol.solutions[nid].vec)
        naive_cost = _cost_or_none(solve_naive(tree, k))
        if cf is None:
            assert naive_cost is None
        else:
            assert naive_cost == pytest.approx(cf, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_flat_policy_is_k_anonymous(seed):
    """The extracted policy achieves the optimum and cloaks ≥ k users."""
    rng = random.Random(seed)
    for __ in range(4):
        db, k = _random_instance(rng)
        if len(db) < k:
            continue
        tree = BinaryTree.build(REGION, db, k)
        flat_sol = solve_flat(tree, k)
        cost = _cost_or_none(flat_sol)
        if cost is None:
            continue
        policy = flat_sol.policy()
        assert policy.cost() == pytest.approx(cost, rel=1e-9, abs=1e-9)
        assert len(policy) == len(db)
        report = audit_policy(policy, k)
        assert report.safe_policy_aware, report.summary()


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_standalone_extraction_matches_solution_policy(seed):
    """Worker-side extract_cloaks ≡ the solution's own extraction."""
    rng = random.Random(seed)
    for __ in range(4):
        db, k = _random_instance(rng)
        tree = BinaryTree.build(REGION, db, k)
        flat = FlatTree.compile(tree, with_payload=True)
        vecs = solve_arrays(flat, k)
        sol = solve_flat(tree, k)
        cost = _cost_or_none(sol)
        if cost is None:
            with pytest.raises(NoFeasiblePolicyError):
                extract_cloaks(flat, vecs, k)
            continue
        cloaks = extract_cloaks(flat, vecs, k)
        assert set(cloaks) == set(db.user_ids())
        groups = Counter(cloaks.values())
        assert all(size >= k for size in groups.values())
        total = sum((r[2] - r[0]) * (r[3] - r[1]) for r in cloaks.values())
        assert total == pytest.approx(cost, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [401, 402, 403, 404, 405])
def test_memoized_repair_equals_scratch_solve(seed):
    """resolve_dirty on the flat engine stays bit-identical to a from-
    scratch flat solve across random move schedules, and never
    recomputes more nodes than the object path."""
    rng = random.Random(seed)
    region = Rect(0, 0, 2048, 2048)
    db = uniform_users(rng.randint(40, 120), region, seed=seed)
    k = rng.randint(2, 6)
    tree_f = BinaryTree.build(region, db, k)
    tree_o = BinaryTree.build(region, db, k)
    sol_f = solve(tree_f, k)
    sol_o = solve_object(tree_o, k)
    assert isinstance(sol_f, FlatTreeSolution)
    for step in range(5):
        moves = random_moves(
            tree_f.db, 0.3, region, max_distance=600, seed=seed * 10 + step
        )
        dirty_f = tree_f.apply_moves(moves)
        dirty_o = tree_o.apply_moves(moves)
        sol_f, rec_f = resolve_dirty(sol_f, dirty_f)
        sol_o, rec_o = resolve_dirty(sol_o, dirty_o)
        scratch = solve_flat(tree_f, k)
        assert rec_f <= rec_o
        assert _cost_or_none(sol_f) == _cost_or_none(scratch)
        assert _cost_or_none(sol_f) == _cost_or_none(sol_o)
        for nid, ns in scratch.solutions.items():
            assert np.array_equal(ns.vec, sol_f.solutions[nid].vec)


def test_memo_shares_across_identical_subtrees():
    """A 2×2 grid of identical leaves hash-conses: far fewer misses
    than nodes, and a re-solve with the same memo is all hits."""
    rows = []
    for qx in (32, 96):
        for qy in (32, 96):
            for i in range(4):
                rows.append((f"u{qx}-{qy}-{i}", qx + i, qy + i))
    db = LocationDatabase(rows)
    tree = BinaryTree.build(Rect(0, 0, 128, 128), db, 2)
    memo = SubtreeMemo(2, True)
    flat = FlatTree.compile(tree)
    first = solve_arrays(flat, 2, memo=memo)
    assert memo.hits > 0  # the four congruent quadrant subtrees share
    misses_after_first = memo.misses
    again = solve_arrays(flat, 2, memo=memo)
    assert memo.misses == misses_after_first  # everything served cached
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_parallel_modes_agree():
    """Simulated servers (in-process arrays) and process-mode workers
    (shared-memory handles) produce bit-identical, k-anonymous cloaks."""
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(600, region, seed=77)
    results = {
        mode: parallel_bulk_anonymize(region, db, 10, 4, mode=mode).master.merged
        for mode in ("simulated", "process")
    }
    assert results["simulated"].cost() == results["process"].cost()
    for uid in db.user_ids():
        assert results["simulated"].cloak_for(uid) == results[
            "process"
        ].cloak_for(uid)
    for merged in results.values():
        report = audit_policy(merged, 10)
        assert report.safe_policy_aware, report.summary()


@pytest.mark.parametrize("transport", ["flat", "rows"])
def test_parallel_transports_agree(transport):
    """A server's two inputs agree: the jurisdiction's compiled flat
    arrays (what dispatch ships) and its raw point rows (what hand-off
    shards re-solve from) yield the same cloaks, and the merged policy
    built from either is k-anonymous."""
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(600, region, seed=77)
    tree = BinaryTree.build(region, db, 10)
    result = parallel_bulk_anonymize(region, db, 10, 4, partition_tree=tree)
    rows_cloaks = {}
    for jur in result.jurisdictions:
        rows = [
            (uid, db.location_of(uid).x, db.location_of(uid).y)
            for uid in tree.users_of(tree.nodes[jur.node_id])
        ]
        if rows:
            cloaks, _ = _solve_jurisdiction(jur.rect.as_tuple(), rows, 10, 40)
            rows_cloaks.update(cloaks)
    merged = {
        "flat": result.master.merged,
        "rows": CloakingPolicy(
            {uid: Rect(*tup) for uid, tup in rows_cloaks.items()}, db
        ),
    }
    assert merged["flat"].cost() == pytest.approx(
        merged["rows"].cost(), rel=1e-9
    )
    for uid in db.user_ids():
        assert merged["flat"].cloak_for(uid) == merged["rows"].cloak_for(uid)
    report = audit_policy(merged[transport], 10)
    assert report.safe_policy_aware, report.summary()


def test_orientation_matches_object():
    """The best orientation's cost equals the object walk's optimum on
    the cheaper of the two orientation trees."""
    region = Rect(0, 0, 1024, 1024)
    db = uniform_users(300, region, seed=55)
    best = solve_best_orientation(region, db, 8)
    object_costs = [
        solve_object(
            BinaryTree.build(region, db, 8, orientation=orientation), 8
        ).optimal_cost
        for orientation in ("vertical", "horizontal")
    ]
    assert best.optimal_cost == min(object_costs)


def test_engine_validation_and_fallback():
    db = uniform_users(30, REGION, seed=9)
    tree = BinaryTree.build(REGION, db, 3)
    assert is_binary_tree(tree)
    flat_sol = solve(tree, 3)
    assert isinstance(flat_sol, FlatTreeSolution)
    obj_sol = solve_object(tree, 3)
    assert flat_sol.optimal_cost == obj_sol.optimal_cost
    quad = QuadTree.build_full(REGION, db, depth=2)
    assert not is_binary_tree(quad)
    quad_sol = solve(quad, 3)  # n-ary trees take the object walk
    assert not isinstance(quad_sol, FlatTreeSolution)
    assert quad_sol.optimal_cost == solve_object(quad, 3).optimal_cost


def test_empty_and_tiny_instances():
    empty = LocationDatabase([])
    tree = BinaryTree.build(REGION, empty, 2)
    sol = solve_flat(tree, 2)
    assert sol.optimal_cost == 0.0
    assert sol.policy().cost() == 0.0
    flat = FlatTree.compile(tree, with_payload=True)
    assert extract_cloaks(flat, solve_arrays(flat, 2), 2) == {}
    # Fewer users than k: infeasible, consistently in both engines.
    two = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
    tree2 = BinaryTree.build(REGION, two, 5)
    assert _cost_or_none(solve_flat(tree2, 5)) is None
    assert _cost_or_none(solve_object(tree2, 5)) is None
