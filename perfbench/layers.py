"""Which library calls the traced run wraps, and the per-layer metrics.

Layer boundaries are public functions and methods of the ``repro``
package, wrapped from here for the traced run only.  Every ``_s``
metric is a **self time** (duration minus time covered by wrapped
children), so the maintenance metrics of one tick add up to the tick.
Maintenance layers are reported per tick, serving layers per request.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.core import binary_dp, flat_dp, serialization
from repro.core.locationdb import LocationDatabase
from repro.lbs.cache import AsyncAnswerCache
from repro.lbs.pipeline import CSP
from repro.lbs.provider import LBSProvider
from repro.robustness import recovery
from repro.serving.aio_provider import AsyncProviderClient
from repro.serving.batcher import CoalescingBatcher
from repro.serving.gateway import AsyncGateway
from repro.streaming.epoch import EpochManager
from repro.streaming.ingest import DirtyAccumulator
from repro.trajectory.constraint import ContinuityConstraint
from repro.trees.binarytree import BinaryTree
from repro.trees.flat import FlatTree

from .stats import percentile
from .trace import Tracer, by_name, rode_round_wait, self_times

#: roots of one maintenance tick, one per workload entry point.
TICK_ROOTS = ("streaming.advance", "lbs.advance_snapshot")


def _bytes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("robustness.bytes_written", len(args[1]))


def _decision(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("trajectory.decisions")
    tracer.count("trajectory.widened", int(bool(getattr(result, "widened"))))


def tracer() -> Tracer:
    """A tracer over every layer boundary the benchmark measures."""
    return (
        Tracer()
        .add(EpochManager, "advance", "streaming.advance")
        .add(DirtyAccumulator, "extend", "streaming.ingest")
        .add(DirtyAccumulator, "drain", "streaming.ingest")
        .add(BinaryTree, "apply_moves", "trees.apply_moves")
        .add(LocationDatabase, "with_moves", "core.with_moves")
        .add(FlatTree, "refresh", "trees.flat_refresh")
        .add(flat_dp, "resolve_dirty_flat", "core.resolve_dirty")
        .add(binary_dp.TreeSolution, "policy", "core.policy_extract")
        .add(recovery.PolicyJournal, "commit", "robustness.journal_commit")
        .add(recovery, "policy_to_dict", "core.policy_to_dict")
        .add(recovery, "checksum_of", "core.checksum")
        .add(serialization, "checksum_of", "core.checksum")
        .add(recovery, "atomic_write_json", "core.atomic_write")
        .add(recovery, "atomic_write_bytes", "core.atomic_write", _bytes)
        .add(serialization, "atomic_write_bytes", "core.atomic_write", _bytes)
        .add(CSP, "advance_snapshot", "lbs.advance_snapshot")
        .add(CSP, "prepare", "lbs.prepare")
        .add(CSP, "complete", "lbs.complete")
        .add(AsyncAnswerCache, "fetch", "lbs.cache_fetch")
        .add(LBSProvider, "serve_many", "lbs.provider_serve")
        .add(AsyncGateway, "submit", "serving.submit")
        .add(CoalescingBatcher, "fetch", "serving.batcher_fetch")
        .add(AsyncProviderClient, "serve_round", "serving.provider_round")
        .add(ContinuityConstraint, "enforce", "trajectory.enforce", _decision)
    )


#: per-layer metric → unit, in report order (BENCHMARK.json lists these).
UNITS: Dict[str, str] = {
    "streaming.ingest_s": "s/tick",
    "streaming.swap_self_s": "s/tick",
    "trees.apply_moves_self_s": "s/tick",
    "core.with_moves_s": "s/tick",
    "trees.flat_refresh_s": "s/tick",
    "core.resolve_dirty_s": "s/tick",
    "core.recomputed_nodes": "nodes/tick",
    "core.recompute_share": "ratio",
    "core.policy_extract_s": "s/tick",
    "robustness.journal_commit_s": "s/tick",
    "core.policy_to_dict_s": "s/tick",
    "core.checksum_s": "s/tick",
    "core.atomic_write_s": "s/tick",
    "robustness.bytes_written": "B/tick",
    "lbs.advance_snapshot_s": "s/tick",
    "lbs.prepare_s": "s/req",
    "lbs.cache_fetch_s": "s/req",
    "lbs.cache_hit_share": "ratio",
    "serving.coalesce_wait_s": "s/req",
    "serving.coalesced_share": "ratio",
    "serving.keys_per_round": "keys/round",
    "serving.provider_round_s": "s/req",
    "lbs.provider_serve_s": "s/req",
    "lbs.complete_s": "s/req",
    "serving.shed": "count",
    "serving.queue_depth_high_water": "count",
    "serving.inflight_high_water": "count",
    "trajectory.enforce_s": "s/req",
    "trajectory.widened_share": "ratio",
    "trajectory.rejected": "count",
    "runtime.gc_pause_s": "s/s",
    "runtime.gc_gen2_count": "count",
    "runtime.loop_lag_p99_ms": "ms",
    "failed_share": "ratio",
    "trace.self_sum_share": "ratio",
    "trace.overhead_share": "ratio",
}


def tick_self_sum(spans, ticks) -> float:
    """Σ self time of every span inside a traced tick, over the ticks'
    wall time as the benchmark clocked it around each call."""
    own = self_times(spans)
    parent_of = {s[0]: s[1] for s in spans}
    roots = {s[0] for s in spans if s[3] in TICK_ROOTS}
    inside = 0
    for s in spans:
        sid = s[0]
        while sid and sid not in roots:
            sid = parent_of.get(sid, 0)
        if sid:
            inside += own[s[0]]
    wall = sum(t.seconds for t in ticks)
    return (inside / 1e9) / wall if wall > 0 else 0.0


def derive(
    tracer: Tracer,
    gc_watch,
    window,
    ticks: List,
    *,
    plain,
    traced_ops: str,
    plain_ticks: Optional[List] = None,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced window (and the ticks inside it),
    or with ``window=None`` of the traced ticks alone."""
    spans = list(tracer.spans)
    layer = by_name(spans)
    counts = tracer.counts
    n_ticks = len(ticks)
    n_req = window.attempted if window is not None else 0

    def per_tick(value: float) -> float:
        return value / n_ticks if n_ticks else 0.0

    def per_req(value: float) -> float:
        return value / n_req if n_req else 0.0

    def own(*names: str) -> float:
        return sum(layer.get(name, (0, 0.0))[1] for name in names)

    gateway = window.gateway_stats if window is not None else None
    batcher = window.batcher_stats if window is not None else None
    served = max(1, window.served) if window is not None else 1
    decisions = counts.get("trajectory.decisions", 0)
    total_nodes = sum(t.total_nodes for t in ticks)
    if traced_ops == "ticks":
        base = statistics.mean(t.seconds for t in plain_ticks or ticks)
        cost = statistics.mean(t.seconds for t in ticks) if ticks else base
        overhead = cost / base - 1.0
        failed_share = sum(not t.promoted for t in ticks) / max(1, n_ticks)
    else:
        overhead = (window.cpu_s / max(1, window.attempted)) / (
            plain.cpu_s / max(1, plain.attempted)
        ) - 1.0
        failed_share = window.failed / max(1, window.attempted)
    values = {
        "streaming.ingest_s": per_tick(own("streaming.ingest")),
        "streaming.swap_self_s": per_tick(own("streaming.advance")),
        "trees.apply_moves_self_s": per_tick(own("trees.apply_moves")),
        "core.with_moves_s": per_tick(own("core.with_moves")),
        "trees.flat_refresh_s": per_tick(own("trees.flat_refresh")),
        "core.resolve_dirty_s": per_tick(own("core.resolve_dirty")),
        "core.recomputed_nodes": per_tick(sum(t.recomputed for t in ticks)),
        "core.recompute_share": (
            sum(t.recomputed for t in ticks) / total_nodes if total_nodes else 0.0
        ),
        "core.policy_extract_s": per_tick(own("core.policy_extract")),
        "robustness.journal_commit_s": per_tick(own("robustness.journal_commit")),
        "core.policy_to_dict_s": per_tick(own("core.policy_to_dict")),
        "core.checksum_s": per_tick(own("core.checksum")),
        "core.atomic_write_s": per_tick(own("core.atomic_write")),
        "robustness.bytes_written": per_tick(
            counts.get("robustness.bytes_written", 0)
        ),
        "lbs.advance_snapshot_s": per_tick(own("lbs.advance_snapshot")),
        "lbs.prepare_s": per_req(own("lbs.prepare")),
        "lbs.cache_fetch_s": per_req(own("lbs.cache_fetch")),
        "lbs.cache_hit_share": gateway.cache_hits / served if gateway else 0.0,
        "serving.coalesce_wait_s": per_req(rode_round_wait(
            spans, "serving.batcher_fetch", "serving.provider_round"
        )),
        "serving.coalesced_share": gateway.coalesced / served if gateway else 0.0,
        "serving.keys_per_round": batcher.keys_per_round if batcher else 0.0,
        "serving.provider_round_s": per_req(own("serving.provider_round")),
        "lbs.provider_serve_s": per_req(own("lbs.provider_serve")),
        "lbs.complete_s": per_req(own("lbs.complete")),
        "serving.shed": gateway.shed if gateway else 0,
        "serving.queue_depth_high_water": (
            gateway.queue_depth_high_water if gateway else 0
        ),
        "serving.inflight_high_water": (
            gateway.inflight_high_water if gateway else 0
        ),
        "trajectory.enforce_s": per_req(own("trajectory.enforce")),
        "trajectory.widened_share": (
            counts.get("trajectory.widened", 0) / decisions if decisions else 0.0
        ),
        "trajectory.rejected": counts.get(
            "trajectory.enforce.raised.trajectory", 0
        ),
        "runtime.gc_pause_s": gc_watch.pause_s / (
            window.elapsed if window is not None
            else sum(t.seconds for t in ticks)
        ),
        "runtime.gc_gen2_count": gc_watch.gen2,
        "runtime.loop_lag_p99_ms": (
            1e3 * percentile(window.lags, 99.0) if window is not None else 0.0
        ),
        "failed_share": failed_share,
        "trace.self_sum_share": tick_self_sum(spans, ticks),
        "trace.overhead_share": overhead,
    }
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}
