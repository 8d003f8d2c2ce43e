"""Extension benchmark: the adaptive Casper pyramid.

The paper skipped the adaptive variant "since it only affects the
running time and not the size of the cloak" (§VI-B).  This bench makes
both halves of that sentence measurable: per-snapshot maintenance cost
of the pyramid versus rebuilding it, with cloak sizes asserted equal.
"""

from repro.baselines.casper_adaptive import CasperPyramid
from repro.data import uniform_users
from repro.core.geometry import Rect
from repro.experiments import Table, timed
from repro.lbs import random_moves

from conftest import run_once

N_USERS = 20_000
HEIGHT = 8
K = 50


def _run_adaptive():
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(N_USERS, region, seed=43)
    pyramid = CasperPyramid(region, db, height=HEIGHT)
    table = Table(
        "Adaptive Casper — incremental maintenance vs rebuild",
        [
            "percent_moving",
            "maintain_seconds",
            "rebuild_seconds",
            "cells_touched",
            "cloaks_identical",
        ],
    )
    current = db
    for percent in (0.5, 2.0, 10.0):
        moves = random_moves(
            current, percent / 100.0, region, max_distance=200.0,
            seed=int(percent * 10),
        )
        with timed() as t_inc:
            touched = pyramid.apply_moves(moves)
        current = current.with_moves(moves)
        with timed() as t_rebuild:
            fresh = CasperPyramid(region, current, height=HEIGHT)
        sample = current.user_ids()[::97]
        identical = all(
            pyramid.cloak(current.location_of(uid), K)
            == fresh.cloak(current.location_of(uid), K)
            for uid in sample
        )
        table.add(
            percent_moving=percent,
            maintain_seconds=t_inc[0],
            rebuild_seconds=t_rebuild[0],
            cells_touched=touched,
            cloaks_identical=identical,
        )
    return table


def test_adaptive_casper_maintenance(benchmark, record_table):
    table = run_once(benchmark, _run_adaptive)
    record_table("ext_adaptive_casper", table)
    for row in table.rows:
        # "Only affects the running time, not the size of the cloak".
        assert row["cloaks_identical"]
        # Maintenance beats rebuilding at every move rate measured.
        assert row["maintain_seconds"] < row["rebuild_seconds"]
