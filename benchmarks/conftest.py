"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table/figure of the paper (see the
experiment index in DESIGN.md).  Rendered result tables are printed and
also written to ``bench_results/<name>.txt`` so EXPERIMENTS.md can be
refreshed from a run.  Set ``REPRO_SCALE=quick|default|full`` to choose
workload sizes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import Table, current_scale

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def profile():
    return current_scale()


@pytest.fixture(scope="session")
def record_table():
    """Persist a rendered experiment table (and echo it to stdout)."""

    def _record(name: str, table: Table) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = table.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with open(RESULTS_DIR / f"{name}.json", "w", encoding="utf-8") as f:
            json.dump(table.to_dict(), f, indent=1)
        print("\n" + text)

    return _record


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark an expensive function with a single measured round."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
