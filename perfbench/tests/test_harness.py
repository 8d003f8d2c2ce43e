"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import stats, steady, workloads
from perfbench.trace import Tracer, covered_ns, rode_round_wait, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        (1, 0, 7, "root", 0, 100),
        (2, 1, 7, "a", 10, 30),
        (3, 1, 7, "b", 25, 50),  # overlaps a: union 10..50 = 40
        (4, 2, 7, "leaf", 12, 20),
        (5, 0, 8, "other", 200, 260),
    ]
    own = self_times(spans)
    assert own[1] == 100 - 40
    assert own[2] == 20 - 8
    assert own[3] == 25
    assert own[4] == 8
    assert own[5] == 60


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        (1, 0, 1, "root", 0, 1000),
        (2, 1, 1, "x", 100, 400),
        (3, 2, 1, "y", 150, 300),
        (4, 1, 1, "z", 500, 900),
    ]
    assert sum(self_times(spans).values()) == 1000


def test_child_coverage_is_clipped_to_the_parent():
    assert covered_ns(10, 20, [(0, 15), (18, 40)]) == 5 + 2
    assert covered_ns(10, 20, []) == 0


def test_coalesce_wait_runs_to_the_round_the_fetch_rode():
    spans = [
        (1, 0, 1, "fetch", 0, 50),
        (2, 1, 1, "round", 10, 50),
        (3, 0, 2, "fetch", 5, 50),  # joined the same window
        (4, 0, 3, "fetch", 60, 90),
        (5, 4, 3, "round", 70, 90),
    ]
    assert rode_round_wait(spans, "fetch", "round") == pytest.approx(
        (10 + 5 + 10) / 1e9
    )


class _Layer:
    def work(self, n):
        return sum(range(n))

    async def fetch(self, n):
        await asyncio.sleep(0)
        return self.work(n)


def test_tracer_nests_across_tasks_and_restores_originals():
    original = _Layer.__dict__["fetch"]
    tracer = Tracer().add(_Layer, "fetch", "fetch").add(_Layer, "work", "work")

    async def drive():
        layer = _Layer()
        return await asyncio.gather(
            asyncio.ensure_future(layer.fetch(10)),
            asyncio.ensure_future(layer.fetch(20)),
        )

    with tracer:
        assert asyncio.run(drive()) == [45, 190]
    assert _Layer.__dict__["fetch"] is original
    by_id = {s[0]: s for s in tracer.spans}
    works = [s for s in tracer.spans if s[3] == "work"]
    assert len(works) == 2
    assert all(by_id[s[1]][3] == "fetch" for s in works)


# -- percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
     (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= stats.MIN_BEYOND - 1e-9


def test_p99_needs_a_thousand_samples():
    assert stats.supports(1_000, 99.0)
    assert not stats.supports(999, 99.0)


def test_failed_requests_count_beyond_every_limit():
    import numpy as np
    from collections import Counter

    latencies = np.full(100, 0.001)
    latencies[:5] = np.nan
    window = workloads.Window(100.0, 1.0, latencies, np.zeros(100), 0,
                              Counter(shed=5), 1.0)
    assert window.latency(99.0) == float("inf")
    assert not window.meets(1.0)


# -- the rate ladder -------------------------------------------------------------


def _window(rate, ok):
    import numpy as np
    from collections import Counter

    n = int(rate)  # one second of requests, all served
    latencies = np.full(n, 0.001 if ok else 5.0)
    return workloads.Window(rate, 1.0, latencies, np.zeros(n), 0,
                            Counter(), 1.0)


def test_ladder_climbs_fixed_rates_until_rungs_in_a_row_miss():
    capacity = 330.0
    stalled = 200.0  # one rung below capacity misses (a stall of the host)
    offered = []

    async def rung(rate):
        offered.append(rate)
        return _window(rate, rate <= capacity and rate != stalled)

    params = workloads.Params(users=1, k=1, categories=1, pois_per_category=1,
                              rate=100.0, limit_s=0.2)
    windows = asyncio.run(workloads.climb(rung, _window(100.0, True), params))
    assert offered == workloads.ladder_rates(100.0, 16.0)[:len(offered)]
    assert stalled in [round(r) for r in offered]
    beyond = offered[-workloads.MISSES:]
    assert all(r > capacity for r in beyond)
    assert all(r <= capacity for r in offered[:-workloads.MISSES])
    top = max(r for r in offered if r <= capacity)
    assert workloads.highest_passing(windows, 0.2) == int(top)


def test_ladder_stops_at_the_workload_top():
    rates = workloads.ladder_rates(100.0, 4.0)
    assert rates[-1] == pytest.approx(400.0)
    assert rates == workloads.ladder_rates(100.0, 16.0)[:len(rates)]


def test_ladder_without_a_passing_rate_fails_typed():
    async def rung(rate):
        raise AssertionError("no rung after a missed nominal window")

    params = workloads.Params(users=1, k=1, categories=1, pois_per_category=1,
                              rate=100.0, limit_s=0.2)
    windows = asyncio.run(workloads.climb(rung, _window(100.0, False), params))
    with pytest.raises(workloads.BenchError) as caught:
        workloads.highest_passing(windows, 0.2)
    assert caught.value.reason == "capacity"


# -- steadiness ----------------------------------------------------------------


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


def test_spread_of_a_zero_median_is_unbounded():
    assert stats.spread([0.0, 0.0, 0.0, 0.0]) == float("inf")


def test_verdicts_exempt_setup_spread_only():
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ]}
    runs = [{"setup_s": v, "latency_p50_ms": v} for v in (1, 2, 3, 4, 5)]
    rows = {row[0]: row for row in steady.verdicts(spec, runs)}
    assert rows["setup_s"][-1] is True
    assert rows["latency_p50_ms"][-1] is False


def test_benchmark_spec_matches_the_reported_metrics():
    spec = steady.load_spec(ROOT)
    from perfbench.layers import UNITS

    assert [m["name"] for m in spec["per_layer"]] == list(UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.RUNNERS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- privacy of the emitted trace ----------------------------------------------------

# Rates give a two-second run's nominal window the thousand samples a
# p99 needs.
SMALL = {
    "churn": workloads.Params(users=2_000, k=10, categories=1,
                              pois_per_category=1, rate=1500.0, limit_s=1.0,
                              move_fraction=0.01, nominal_share=0.4,
                              batch_share=0.2, ladder_top=2.0),
    "mixed": workloads.Params(users=2_000, k=10, categories=2,
                              pois_per_category=32, rate=1000.0, limit_s=0.5,
                              move_fraction=0.02, tick_period=0.5,
                              max_inflight=1024, ladder_top=2.0),
}

_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_trace_carries_no_user_ids_or_coordinates(name):
    seed = 9_000 + sorted(SMALL).index(name)
    params = SMALL[name]
    outcome = workloads.RUNNERS[name](seed, 2.0, True, params)
    assert outcome.failed == 0
    path = os.path.join(workloads.trace_dir(), f"trace-{name}-{seed}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    finally:
        os.remove(path)
    assert json.loads(text)["traceEvents"]
    inputs = workloads.make_inputs(params, seed)
    uids = set(inputs.uids)
    coords = {v for row in inputs.db.coords_array() for v in row.tolist()}
    assert not uids & set(_WORD.findall(text))
    assert not coords & {float(tok) for tok in _FLOAT.findall(text)}
    # The probe itself finds what it looks for.
    leak = text + f' "{inputs.uids[0]}" {next(iter(coords))!r}'
    assert uids & set(_WORD.findall(leak))
    assert coords & {float(tok) for tok in _FLOAT.findall(leak)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_passes_its_gate_and_reports_every_metric(name):
    outcome = workloads.RUNNERS[name](8_000, 2.0, False, SMALL[name])
    spec = steady.load_spec(ROOT)
    assert list(outcome.metrics) == [m["name"] for m in spec["end_to_end"]]
    assert outcome.failed == 0
    assert all(value > 0 for value, __ in outcome.metrics.values())


# -- the command ---------------------------------------------------------------


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
