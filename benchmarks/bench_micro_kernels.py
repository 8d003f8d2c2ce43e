"""Microbenchmarks of the solver's hot kernels.

Not a paper figure — a performance-regression suite for the pieces the
macro numbers (Figure 4) are built from: min-plus convolution, the
two-stage node step, lazy tree construction, DP solve, policy
extraction, and the per-request cloak lookup.
"""

import numpy as np
import pytest

from repro.core.binary_dp import _min_plus, solve, solve_object
from repro.core.flat_dp import _min_plus_batch, extract_cloaks, solve_arrays
from repro.core.geometry import Rect
from repro.core.requests import ServiceRequest
from repro.data import uniform_users
from repro.trees import BinaryTree, FlatTree

REGION = Rect(0, 0, 65_536, 65_536)
N = 20_000
K = 50


@pytest.fixture(scope="module")
def workload():
    db = uniform_users(N, REGION, seed=37)
    tree = BinaryTree.build(REGION, db, K)
    solution = solve(tree, K)
    policy = solution.policy()
    return db, tree, solution, policy


@pytest.fixture(scope="module")
def flat_workload(workload):
    __, tree, ___, ____ = workload
    flat = FlatTree.compile(tree, with_payload=True)
    vecs = solve_arrays(flat, K)
    return flat, vecs


def test_kernel_min_plus(benchmark):
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1e9, 400)
    b = rng.uniform(0, 1e9, 400)
    out = benchmark(_min_plus, a, b)
    assert len(out) == 799
    assert out[0] == pytest.approx(a[0] + b[0])


def test_kernel_min_plus_batch(benchmark):
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1e9, (64, 400))
    b = rng.uniform(0, 1e9, (64, 400))
    out = benchmark(_min_plus_batch, a, b)
    assert out.shape == (64, 799)
    assert out[0, 0] == pytest.approx(a[0, 0] + b[0, 0])


def test_kernel_tree_build(benchmark, workload):
    db, __, ___, ____ = workload
    tree = benchmark(BinaryTree.build, REGION, db, K)
    assert tree.root.count == N


def test_kernel_flat_compile(benchmark, workload):
    __, tree, ___, ____ = workload
    flat = benchmark(FlatTree.compile, tree, with_payload=True)
    assert flat.count[0] == N


def test_kernel_solve(benchmark, workload):
    __, tree, ___, ____ = workload
    solution = benchmark(solve, tree, K)
    assert solution.optimal_cost > 0


def test_kernel_solve_object(benchmark, workload):
    __, tree, ___, ____ = workload
    solution = benchmark(solve_object, tree, K)
    assert solution.optimal_cost > 0


def test_kernel_flat_solve(benchmark, flat_workload):
    flat, __ = flat_workload
    vecs = benchmark(solve_arrays, flat, K)
    assert vecs[0][0] > 0


def test_kernel_flat_extract(benchmark, flat_workload):
    flat, vecs = flat_workload
    cloaks = benchmark(extract_cloaks, flat, vecs, K)
    assert len(cloaks) == N


def test_kernel_extraction(benchmark, workload):
    __, ___, solution, ____ = workload
    policy = benchmark(solution.policy)
    assert policy.min_group_size() >= K


def test_kernel_cloak_lookup(benchmark, workload):
    db, __, ___, policy = workload
    users = db.user_ids()
    counter = [0]

    def lookup():
        uid = users[counter[0] % len(users)]
        counter[0] += 1
        return policy.cloak_for(uid)

    cloak = benchmark(lookup)
    assert cloak.area > 0


def test_kernel_anonymize_request(benchmark, workload):
    db, __, ___, policy = workload
    uid = db.user_ids()[0]
    request = ServiceRequest(uid, db.location_of(uid), (("poi", "rest"),))
    ar = benchmark(policy.anonymize, request)
    assert ar.cloak.contains(request.location)
