"""Extension benchmark: user-specified k (the paper's future work).

Quantifies the utility of honoring per-user privacy choices: a mixed
population (80% relaxed / 20% strict) anonymized optimally per-user,
versus the uniform-k fallbacks a scalar-k deployment is stuck with.
"""

import numpy as np

from repro.core.binary_dp import solve
from repro.data import uniform_users
from repro.core.geometry import Rect
from repro.experiments import Table
from repro.extensions import audit_user_k, solve_user_k
from repro.trees import BinaryTree

from conftest import run_once

K_RELAXED, K_STRICT = 10, 40
N_USERS = 800


def _run_userk():
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(N_USERS, region, seed=23)
    rng = np.random.default_rng(23)
    k_of = {
        u: (K_STRICT if rng.random() < 0.2 else K_RELAXED)
        for u in db.user_ids()
    }
    table = Table(
        "Extension — user-specified k vs uniform fallbacks",
        ["variant", "avg_cloak_area", "honors_all_users"],
    )
    tree = BinaryTree.build(region, db, K_RELAXED)
    mixed_policy = solve_user_k(tree, k_of).policy()
    table.add(
        variant=f"per-user k ({K_RELAXED}/{K_STRICT})",
        avg_cloak_area=mixed_policy.average_cloak_area(),
        honors_all_users=audit_user_k(mixed_policy, k_of),
    )
    lax = solve(BinaryTree.build(region, db, K_RELAXED), K_RELAXED).policy()
    table.add(
        variant=f"uniform k={K_RELAXED}",
        avg_cloak_area=lax.average_cloak_area(),
        honors_all_users=audit_user_k(lax, k_of),
    )
    strict = solve(BinaryTree.build(region, db, K_STRICT), K_STRICT).policy()
    table.add(
        variant=f"uniform k={K_STRICT}",
        avg_cloak_area=strict.average_cloak_area(),
        honors_all_users=audit_user_k(strict, k_of),
    )
    return table


def test_ext_user_specified_k(benchmark, record_table):
    table = run_once(benchmark, _run_userk)
    record_table("ext_userk", table)
    rows = {r["variant"]: r for r in table.rows}
    mixed = rows[f"per-user k ({K_RELAXED}/{K_STRICT})"]
    lax = rows[f"uniform k={K_RELAXED}"]
    strict = rows[f"uniform k={K_STRICT}"]
    # Only the extension and the strict fallback honor every user...
    assert mixed["honors_all_users"]
    assert strict["honors_all_users"]
    assert not lax["honors_all_users"]
    # ...and the extension is strictly cheaper than the strict fallback.
    assert mixed["avg_cloak_area"] < strict["avg_cloak_area"]
    assert mixed["avg_cloak_area"] >= lax["avg_cloak_area"] - 1e-9
