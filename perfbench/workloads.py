"""The benchmark's workloads, driven through public entry points.

Every workload builds its inputs from one seed, sets the system up
several times (``setup_s`` is the median), runs an open-loop timed
phase, checks every output against an independent oracle, and sets the
system up again.  A
failed check raises :class:`BenchError`; nothing is reported then.

* ``churn`` — an :class:`~repro.streaming.EpochManager` journalling to a
  :class:`~repro.robustness.recovery.PolicyJournal`, with no reads.  The
  run alternates, ``ROUNDS`` times, a streamed segment (moves arrive in
  open loop while a churn thread ticks back to back: move-to-live
  freshness) with back-to-back ``advance(moves)`` ticks, each handed a
  fresh batch of 0.1 % of the users (tick latency and move throughput),
  so both kinds of figure sample the whole run; the rate ladder ends it.
* ``mixed`` — a ``CSP`` with a
  :class:`~repro.trajectory.constraint.ContinuityConstraint` behind the
  gateway, while the same event loop applies a 2 % batch through
  ``CSP.advance_snapshot`` every second (the stop-the-world repair).

Latency is timed from each request's scheduled send time.  The nominal
window gives the latency percentiles; a fixed rate ladder after it gives
``max_rate_rps``.  With ``trace=True`` the ladder is skipped: the
nominal window (on ``churn``, the fixed-batch ticks) is split into an
untraced and a traced half, the difference between them is the tracing
overhead, and the traced half yields the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ReproError, ServiceUnavailableError
from repro.core.geometry import Point, Rect
from repro.core.policy import CloakingPolicy
from repro.data import bay_area_master, sample_users, zipf_weights
from repro.lbs.mobility import random_moves
from repro.lbs.pipeline import CSP
from repro.lbs.poi import generate_pois
from repro.lbs.provider import LBSProvider
from repro.robustness.recovery import PolicyJournal
from repro.serving.gateway import AsyncGateway, GatewayConfig
from repro.streaming import EpochManager
from repro.streaming.epoch import halving_chain
from repro.trajectory.audit import ServedTrajectories
from repro.trajectory.constraint import ContinuityConstraint

from . import layers
from .stats import percentile, supports
from .trace import reset_operation, set_operation

clock = time.perf_counter

#: the offered-rate ladder after the nominal window, as multiples of the
#: nominal rate, the same for every workload and every commit: four
#: rungs per doubling, so one rung more or less moves ``max_rate_rps``
#: by 19 %.  A workload climbs it up to its ``ladder_top``, or until
#: ``MISSES`` rungs in a row miss the limit (one stall of the host does
#: not end the climb); one that passes at the top reports that rung, a
#: floor of its capacity.
LADDER = tuple(2.0 ** (j / 4.0) for j in range(1, 17))
MISSES = 2
#: set-ups per run: before the timed phase at least ``SETUPS`` and at
#: least ``SETUP_BUDGET_S`` of them, so cheap set-ups repeat more, and
#: after the gate at least one and ``SETUP_BUDGET_S`` more; ``setup_s``
#: is the median of all.  The host's speed drifts over seconds, so two
#: stretches a run apart give a steadier median than one.
SETUPS = 3
SETUP_BUDGET_S = 1.0
#: the generator starts this long after the window is armed.
LEAD_S = 0.005
#: fewest fixed-batch ticks a run makes, however slow they are.
MIN_TICKS = 3
#: streamed segments and fixed-batch phases a ``churn`` run alternates.
#: The host's speed drifts over tens of seconds; a figure drawn from
#: several stretches spread over the run follows that drift less than
#: one drawn from a single stretch.
ROUNDS = 3
#: the road map every workload samples its users from (§VI's master
#: dataset); users, moves and requests come from ``--seed``.
MAP_SEED = 0


class BenchError(ReproError):
    """A correctness or validity failure of a benchmark run."""

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(f"[{reason}] {message}")
        self.reason = reason


@dataclass
class Params:
    """Sizes of one workload (the benchmark's defaults; tests shrink them)."""

    users: int
    k: int
    categories: int
    pois_per_category: int
    rate: float  # nominal offered requests per second
    limit_s: float  # p99 latency limit a ladder rung must meet
    move_fraction: float = 0.0  # share of users moved per tick
    rtt: float = 0.002
    #: gateway semaphore; None keeps the library default.
    max_inflight: Optional[int] = None
    tick_period: float = 0.0  # > 0: a tick on the event loop every period
    #: shares of ``--seconds`` given to the nominal-rate window, to each
    #: ladder rung and to the back-to-back fixed-batch ticks.
    nominal_share: float = 0.6
    rung_share: float = 0.04
    batch_share: float = 0.0
    ladder_top: float = LADDER[-1]  # highest multiple of ``rate`` tried


# rate is in streamed moves/s here, enough in the nominal window to
# support a p99; move_fraction sizes each fixed-batch tick.
CHURN = Params(users=50_000, k=50, categories=1, pois_per_category=1,
               rate=300.0, limit_s=10.0, move_fraction=0.001,
               nominal_share=0.36, rung_share=0.01, batch_share=0.36)
# The semaphore is as wide as the high-water mark, so an admitted request
# is prepared in the loop step that sends it: the gate then knows the
# exact snapshot every cloak was decided under, which the attacker's
# replay of the served stream needs.
MIXED = Params(users=5_000, k=50, categories=4, pois_per_category=128,
               rate=150.0, limit_s=1.0, move_fraction=0.02,
               max_inflight=GatewayConfig().queue_high_water,
               tick_period=1.0, nominal_share=0.8, rung_share=0.03,
               ladder_top=4.0)


# -- results -----------------------------------------------------------------


@dataclass
class Window:
    """One open-loop window at a fixed offered rate."""

    rate: float
    duration: float
    latencies: np.ndarray  # seconds from scheduled send; nan = failed
    lags: np.ndarray  # generator lateness per arrival (seconds)
    backlog: int  # requests unfinished when the last one was sent
    failures: Counter
    elapsed: float  # first scheduled send to last completion
    cpu_s: float = 0.0
    #: per arrival: requester index, snapshots at send and completion,
    #: served cloak (None when rejected) and serving rung.
    who: Optional[np.ndarray] = None
    first: Optional[np.ndarray] = None
    last: Optional[np.ndarray] = None
    cloaks: Optional[List[Any]] = None
    rungs: Optional[List[str]] = None
    gateway_stats: Any = None
    batcher_stats: Any = None

    def records(self) -> List["Served"]:
        if self.cloaks is None:
            return []
        return [
            Served(int(self.who[i]), int(self.first[i]), int(self.last[i]),
                   cloak, self.rungs[i])
            for i, cloak in enumerate(self.cloaks)
            if cloak is not None
        ]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return int(sum(self.failures.values()))

    @property
    def served(self) -> int:
        return self.attempted - self.failed

    def latency(self, p: float) -> float:
        """Percentile with failures counted as missing every limit."""
        return percentile(np.nan_to_num(self.latencies, nan=math.inf), p)

    def lag_grows(self, limit_s: float) -> bool:
        """Backlog beyond what the latency limit allows (Little's law),
        or generator lateness rising from the first quarter to the last."""
        if self.backlog > max(10.0, self.rate * limit_s):
            return True
        q = max(1, len(self.lags) // 4)
        return float(np.mean(self.lags[-q:]) - np.mean(self.lags[:q])) > limit_s / 2

    def meets(self, limit_s: float) -> bool:
        """99 % of the window's requests served within the limit (a
        failed request never is) and no growing backlog."""
        latencies = np.nan_to_num(self.latencies, nan=math.inf)
        return (float(np.mean(latencies <= limit_s)) >= 0.99
                and not self.lag_grows(limit_s))

    @property
    def achieved_rps(self) -> float:
        """Requests served per second of the window's schedule."""
        return self.served / self.duration


@dataclass
class Tick:
    started: float
    seconds: float
    moves: int
    promoted: bool
    recomputed: int
    total_nodes: int


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str] = field(default_factory=list)


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    region: Rect
    db: Any
    uids: List[str]
    pois: Any
    categories: List[str]
    rng: np.random.Generator
    user_p: np.ndarray


def make_inputs(params: Params, seed: int) -> Inputs:
    """Users from the paper's §VI recipe, POIs, and the request mix."""
    region, master = bay_area_master(seed=MAP_SEED)
    db = sample_users(master, params.users, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    names = [f"cat{c:02d}" for c in range(params.categories)]
    pois = generate_pois(
        region, {name: params.pois_per_category for name in names}, seed=rng
    )
    uids = list(db.user_ids())
    rng.shuffle(uids)  # Zipf popularity rank = position in this order
    return Inputs(region, db, uids, pois, names, rng,
                  zipf_weights(len(uids), 0.8))


def arrivals(inputs: Inputs, rate: float, duration: float):
    """Poisson send offsets plus requester and category indices."""
    rng = inputs.rng
    n = max(1, int(rng.poisson(rate * duration)))
    offsets = np.sort(rng.uniform(0.0, duration, size=n))
    who = rng.choice(len(inputs.uids), size=n, p=inputs.user_p)
    what = rng.integers(0, len(inputs.categories), size=n)
    return offsets, who, what


def setups(build: Callable[[], Any], teardown: Callable[[Any], None],
           minimum: int) -> Tuple[Any, List[float]]:
    """Build at least ``minimum`` times and for at least
    ``SETUP_BUDGET_S``, tearing down all but the last system; return it
    and each build's seconds.  Every build, and whatever follows, starts
    from a collected heap, so the timed phase opens in the same
    collector state; nothing is collected by hand inside it."""
    seconds: List[float] = []
    system = None
    while len(seconds) < minimum or sum(seconds) < SETUP_BUDGET_S:
        if system is not None:
            teardown(system)
            system = None
        gc.collect()
        start = clock()
        system = build()
        seconds.append(clock() - start)
    gc.collect()
    return system, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the open-loop generator -------------------------------------------------


async def open_loop(
    offsets: np.ndarray,
    issue: Callable[[int, float], Optional[Any]],
) -> Tuple[np.ndarray, int, float]:
    """Send each arrival at its scheduled time, never waiting for replies.

    ``issue(i, due)`` sends arrival ``i`` and returns a coroutine for an
    asynchronous send, or None when the send completed inline.  Returns
    the lateness of every send, the backlog when the last one went out,
    and the absolute start time.
    """
    start = clock() + LEAD_S
    lags = np.zeros(len(offsets))
    # Only unfinished sends are referenced, so finished ones are freed
    # at once instead of piling up for the collector.
    tasks: set = set()
    i, n = 0, len(offsets)
    while i < n:
        now = clock()
        due = start + offsets[i]
        if due > now:
            await asyncio.sleep(due - now)
            continue
        while i < n and start + offsets[i] <= now:
            due = start + offsets[i]
            lags[i] = now - due
            pending = issue(i, due)
            if pending is not None:
                task = asyncio.ensure_future(pending)
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            i += 1
    backlog = len(tasks)
    while tasks:
        await asyncio.gather(*list(tasks))
    return lags, backlog, start


@dataclass
class Served:
    """What the correctness gate needs about one served request."""

    who: int
    first: int  # snapshot at send
    last: int  # snapshot at completion
    cloak: Any
    rung: str


async def gateway_window(
    csp: CSP,
    config: GatewayConfig,
    inputs: Inputs,
    rate: float,
    duration: float,
    snapshot: List[int],
    ops: Optional[List[int]] = None,
) -> Window:
    """One open-loop window through a fresh gateway (fresh answer cache)."""
    offsets, who, what = arrivals(inputs, rate, duration)
    n = len(offsets)
    gateway = AsyncGateway(csp, config)
    latencies = np.full(n, np.nan)
    first = np.zeros(n, dtype=np.int64)
    last = np.zeros(n, dtype=np.int64)
    cloaks: List[Any] = [None] * n
    rungs: List[str] = [""] * n
    users = [inputs.uids[j] for j in who.tolist()]
    payloads = [(("poi", inputs.categories[j]),) for j in range(len(inputs.categories))]
    kinds = what.tolist()
    failures: Counter = Counter()
    finished = [0.0]

    async def one(i: int, due: float) -> None:
        if ops is not None:
            ops[0] += 1
            set_operation(ops[0])
        first[i] = snapshot[0]
        try:
            result = await gateway.submit(users[i], payloads[kinds[i]])
        except ServiceUnavailableError as exc:
            failures[exc.reason] += 1
            return
        done = clock()
        latencies[i] = done - due
        finished[0] = max(finished[0], done)
        last[i] = snapshot[0]
        cloaks[i] = result.anonymized.cloak
        rungs[i] = result.degradation

    cpu = time.process_time()
    lags, backlog, start = await open_loop(offsets, one)
    await gateway.close()
    return Window(rate, duration, latencies, lags, backlog, failures,
                  max(finished[0] - start, 1e-9),
                  cpu_s=time.process_time() - cpu, who=who, first=first,
                  last=last, cloaks=cloaks, rungs=rungs,
                  gateway_stats=gateway.stats,
                  batcher_stats=gateway.batcher.stats)


def ladder_rates(nominal_rate: float, top: float) -> List[float]:
    return [step * nominal_rate for step in LADDER if step <= top * (1 + 1e-9)]


async def climb(run_rung: Callable[[float], Any], nominal: Window,
                params: Params) -> List[Window]:
    """The nominal window, then one window per ladder rate in order,
    until ``MISSES`` windows in a row miss the limit."""
    windows = [nominal]
    if not nominal.meets(params.limit_s):
        return windows
    misses = 0
    for rate in ladder_rates(nominal.rate, params.ladder_top):
        windows.append(await run_rung(rate))
        misses = 0 if windows[-1].meets(params.limit_s) else misses + 1
        if misses == MISSES:
            break
    return windows


def highest_passing(windows: Sequence[Window], limit_s: float) -> float:
    """Achieved rate of the highest-rate window that met the limit."""
    passed = [w for w in windows if w.meets(limit_s)]
    if not passed:
        raise BenchError(
            f"no offered rate met the {1e3 * limit_s:g} ms p99 limit",
            reason="capacity")
    return max(passed, key=lambda w: w.rate).achieved_rps


def gateway_config(params: Params) -> GatewayConfig:
    if params.max_inflight is None:
        return GatewayConfig(rtt=params.rtt)
    return GatewayConfig(rtt=params.rtt, max_inflight=params.max_inflight)


def rung_seconds(seconds: float, params: Params) -> float:
    """A rung's length; with a periodic tick, whole tick periods, so
    every rung carries the same number of repairs."""
    length = seconds * params.rung_share
    if params.tick_period > 0:
        length = max(1, round(length / params.tick_period)) * params.tick_period
    return length


# -- correctness gates -------------------------------------------------------


def check_served(
    policy, region: Rect, orientation: str, k: int, records: Sequence[Served],
    uids: List[str], allow_widening: bool,
) -> List[Served]:
    """Records whose cloak matches this snapshot's oracle policy.

    A match is the user's oracle cloak, or (with the trajectory defense)
    a hierarchy ancestor of it whose group under the widening still has
    at least ``k`` members.
    """
    groups = Counter(cloak for __, cloak in policy.items())
    matched: List[Served] = []
    widened_groups: Dict[Rect, int] = {}
    for rec in records:
        fine = policy.cloak_for(uids[rec.who])
        if rec.cloak == fine:
            if groups[fine] < k:
                raise BenchError(
                    f"oracle group of size {groups[fine]} < k={k}", reason="k"
                )
            matched.append(rec)
            continue
        if not allow_widening or not isinstance(rec.cloak, Rect):
            continue
        if not any(r == rec.cloak for r in halving_chain(region, orientation, fine)):
            continue
        size = widened_groups.get(rec.cloak)
        if size is None:
            size = sum(n for cloak, n in groups.items()
                       if rec.cloak.contains_rect(cloak))
            widened_groups[rec.cloak] = size
        if size < k:
            raise BenchError(
                f"widened group of size {size} < k={k}", reason="k"
            )
        matched.append(rec)
    return matched


class FrozenPolicy(CloakingPolicy):
    """A copy of one snapshot's policy that builds its groups once.

    The linking attacker's replay (``ServedTrajectories.audit``) asks the
    policy for its groups on every request it replays; a snapshot's
    policy never changes, so one build serves all its requests.
    """

    @classmethod
    def of(cls, policy: CloakingPolicy) -> "FrozenPolicy":
        return cls(dict(policy.items()), policy.db, name=policy.name)

    def groups(self):
        cached = self.__dict__.get("_frozen_groups")
        if cached is None:
            cached = self.__dict__["_frozen_groups"] = super().groups()
        return cached


def same_policy(a, b) -> bool:
    return dict(a.items()) == dict(b.items())


def replay_gate(
    inputs: Inputs,
    params: Params,
    records: Sequence["Served"],
    moves_log: Sequence[Dict[str, Any]],
    csp: CSP,
    *,
    allow_widening: bool,
    audit: Optional[ServedTrajectories] = None,
) -> None:
    """Replay the run's snapshots through a fresh sync ``CSP`` (the
    oracle) and check every served cloak against the oracle's policy at
    the snapshot the request was prepared under.  With ``audit``, every
    served cloak is also recorded, under that policy, for the linking
    attacker's replay."""
    orientation = getattr(csp.anonymizer.tree, "orientation", "vertical")
    oracle = CSP(inputs.region, params.k, inputs.db, LBSProvider(inputs.pois))
    by_snapshot: Dict[int, List[Served]] = {}
    for rec in records:
        by_snapshot.setdefault(rec.first, []).append(rec)
    for s in range(len(moves_log) + 1):
        recs = by_snapshot.pop(s, [])
        if recs:  # the oracle extracts only the policies it checks
            policy = oracle.policy
            ok = check_served(policy, inputs.region, orientation, params.k,
                              recs, inputs.uids, allow_widening)
            if len(ok) != len(recs):
                raise BenchError(
                    f"{len(recs) - len(ok)} served cloaks differ from the "
                    f"sync oracle at snapshot {s}", reason="oracle")
            if audit is not None:
                frozen = FrozenPolicy.of(policy)
                for rec in recs:
                    audit.observe(inputs.uids[rec.who], rec.cloak, frozen)
        if s < len(moves_log):
            oracle.advance_snapshot(moves_log[s])
    if by_snapshot:
        raise BenchError("requests served at snapshots the run never had",
                         reason="snapshot")


# -- tracing -----------------------------------------------------------------


class GcWatch:
    """Collector pauses and generation-2 collections while installed."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = clock()
        else:
            self.pause_s += clock() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)


def trace_dir() -> str:
    root = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(root, "out")
    os.makedirs(path, exist_ok=True)
    return path


# -- mixed -------------------------------------------------------------------


def run_mixed(seed: int, seconds: float, trace: bool,
              params: Params = MIXED) -> Outcome:
    inputs = make_inputs(params, seed)
    config = gateway_config(params)

    def build() -> CSP:
        csp = CSP(inputs.region, params.k, inputs.db, LBSProvider(inputs.pois),
                  trajectory=ContinuityConstraint(params.k))
        csp.policy
        return csp

    csp, before = setups(build, lambda __: None, SETUPS)
    snapshot = [0]
    moves_log: List[Dict[str, Any]] = []
    ticks: List[Tick] = []
    traced_from = [math.inf]

    async def ticker(stopped: asyncio.Event, ops=None) -> None:
        due = clock() + params.tick_period
        while not stopped.is_set():
            try:
                await asyncio.wait_for(stopped.wait(), max(0.0, due - clock()))
                break
            except asyncio.TimeoutError:
                pass
            moves = random_moves(csp.anonymizer.current_db,
                                 params.move_fraction, inputs.region,
                                 seed=inputs.rng)
            token = None
            if ops is not None:
                ops[0] += 1
                token = set_operation(ops[0])
            started = clock()
            report = csp.advance_snapshot(moves)
            ticks.append(Tick(started, clock() - started, len(moves), True,
                              report.recomputed_nodes, report.total_nodes))
            if token is not None:
                reset_operation(token)
            moves_log.append(moves)
            snapshot[0] += 1
            due += params.tick_period

    tracer = layers.tracer() if trace else None
    gcw = GcWatch()
    windows: List[Window] = []

    async def timed() -> None:
        stopped = asyncio.Event()
        if trace:
            half = seconds * params.nominal_share / 2
            tick_task = asyncio.ensure_future(ticker(stopped))
            plain = await gateway_window(csp, config, inputs, params.rate,
                                         half, snapshot)
            stopped.set()
            await tick_task
            windows.append(plain)
            stopped = asyncio.Event()
            ops = [0]
            assert tracer is not None
            traced_from[0] = clock()
            with tracer, gcw:
                tick_task = asyncio.ensure_future(ticker(stopped, ops))
                traced = await gateway_window(csp, config, inputs, params.rate,
                                              half, snapshot, ops)
                stopped.set()
                await tick_task
            windows.append(traced)
            return
        tick_task = asyncio.ensure_future(ticker(stopped))
        try:
            first = await gateway_window(csp, config, inputs, params.rate,
                                         seconds * params.nominal_share, snapshot)
            windows.extend(await climb(
                lambda rate: gateway_window(csp, config, inputs, rate,
                                            rung_seconds(seconds, params),
                                            snapshot),
                first, params))
        finally:
            stopped.set()
            await tick_task

    asyncio.run(timed())
    nominal = windows[0]
    rss = peak_rss_mb()

    # Gate: the served stream against a sync CSP without the defense,
    # and the linking attacker's replay of that stream.
    audit = ServedTrajectories()
    gate_started = clock()
    replay_gate(inputs, params, [r for w in windows for r in w.records()],
                moves_log, csp, allow_widening=True, audit=audit)
    report = audit.audit(params.k)
    gate_s = clock() - gate_started
    if not report.all_hold:
        raise BenchError(
            f"{len(report.failing)} of {report.audited} users fall below "
            f"k={params.k} under the linking attack (min "
            f"{report.min_surviving})", reason="trajectory")

    attempted = sum(w.attempted for w in windows) + len(ticks)
    failed = sum(w.failed for w in windows) + sum(not t.promoted for t in ticks)
    notes = _capacity_notes(windows, params, trace) + [
        f"oracle replay and linking audit of {audit.requests} requests: "
        f"{gate_s:.1f} s"]
    if trace:
        traced_ticks = [t for t in ticks if t.started >= traced_from[0]]
        metrics = layers.derive(tracer, gcw, windows[1], traced_ticks,
                                plain=windows[0], traced_ops="requests")
        tracer.write(os.path.join(trace_dir(), f"trace-mixed-{seed}.json"))
    else:
        __, after = setups(build, lambda __: None, 1)
        metrics = _end_to_end(statistics.median(before + after), nominal,
                              windows, ticks, rss, params)
    return Outcome(attempted, failed, metrics, notes)


# -- churn -------------------------------------------------------------------


def move_stream(inputs: Inputs, positions: Dict[str, Point], rate: float,
                duration: float, max_distance: float = 200.0):
    """Poisson move offsets, movers (uniform over users, as
    ``random_moves`` picks them) and their new points, each at most
    ``max_distance`` from the mover's latest point, clipped to the map."""
    rng = inputs.rng
    n = max(1, int(rng.poisson(rate * duration)))
    offsets = np.sort(rng.uniform(0.0, duration, size=n))
    who = rng.integers(0, len(inputs.uids), size=n).tolist()
    distance = rng.uniform(0.0, max_distance, size=n).tolist()
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n).tolist()
    region = inputs.region
    users, points = [], []
    for j, d, a in zip(who, distance, angle):
        uid = inputs.uids[j]
        origin = positions[uid]
        x = min(max(origin.x + d * math.cos(a), region.x1), region.x2)
        y = min(max(origin.y + d * math.sin(a), region.y1), region.y2)
        positions[uid] = Point(x, y)
        users.append(uid)
        points.append(positions[uid])
    return offsets, users, points


def run_churn(seed: int, seconds: float, trace: bool,
              params: Params = CHURN) -> Outcome:
    """Streamed segments and fixed-batch ticks, alternating ``ROUNDS``
    times on one journalled manager, then the rate ladder.

    Streamed segment: moves arrive open loop at the nominal rate (on the
    ladder, at each ladder rate in one continuous schedule) while a churn
    thread runs ``advance()`` back to back, each tick draining what
    arrived.  A move's latency runs from its scheduled time to the end of
    the first promoting tick that started after it was ingested: when
    the epoch carrying it went live.

    Fixed-batch ticks: back-to-back ``advance(moves)`` ticks, each handed
    a fresh batch of ``move_fraction`` of the users, so a tick's work is
    the same whatever the tick costs; these give ``advance_p50_ms`` and
    ``moves_per_s``.  With ``trace=True`` only these run, the first half
    untraced and the second half traced.
    """
    inputs = make_inputs(params, seed)
    work = tempfile.mkdtemp(prefix="journal-", dir=trace_dir())
    made: List[str] = []

    def build() -> EpochManager:
        path = tempfile.mkdtemp(dir=work)
        made.append(path)
        return EpochManager(inputs.region, params.k, inputs.db,
                            journal=PolicyJournal(path, keep_last=2))

    def teardown(manager: EpochManager) -> None:
        manager.close()
        shutil.rmtree(made[-1], ignore_errors=True)

    def again() -> List[float]:
        extra, after = setups(build, teardown, 1)
        teardown(extra)
        return after

    try:
        manager, before = setups(build, teardown, SETUPS)
        try:
            return _churn_timed(inputs, params, seed, seconds, trace, manager,
                                before, again, made[-1])
        finally:
            manager.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fixed_batches(
    current_db: Callable[[], Any], advance: Callable[[Dict[str, Point]], Any],
    inputs: Inputs, params: Params, seconds: float, traced: bool = False,
) -> Tuple[List[Tick], List[Dict[str, Point]]]:
    """Back-to-back ticks for ``seconds`` (and at least ``MIN_TICKS``),
    each handing ``advance`` a fresh ``random_moves`` batch of
    ``move_fraction`` of the users, so every tick does the same work
    whatever it costs.  Returns the ticks and their batches."""
    ticks: List[Tick] = []
    batches: List[Dict[str, Point]] = []
    end = clock() + seconds
    while clock() < end or len(ticks) < MIN_TICKS:
        moves = random_moves(current_db(), params.move_fraction,
                             inputs.region, seed=inputs.rng)
        token = set_operation(len(ticks) + 1) if traced else None
        started = clock()
        report = advance(moves)
        ticks.append(Tick(started, clock() - started, len(moves),
                          getattr(report, "promoted", True),
                          report.recomputed_nodes, report.total_nodes))
        if token is not None:
            reset_operation(token)
        batches.append(moves)
    return ticks, batches


def streamed(manager: EpochManager, inputs: Inputs,
             positions: Dict[str, Point], steps: Sequence[Tuple[float, float]]):
    """One streamed segment: moves at each (rate, seconds) step in turn, in
    one continuous schedule, while a churn thread ticks back to back.
    Returns one window per step, the ticks the thread ran, and the
    number of moves."""
    schedule = []  # per step: (step start offset, offsets, users, points)
    at = 0.0
    for rate, duration in steps:
        schedule.append((at,) + move_stream(inputs, positions, rate, duration))
        at += duration
    offsets = np.concatenate([start + o for start, o, __, __ in schedule])
    users = [u for step in schedule for u in step[2]]
    points = [p for step in schedule for p in step[3]]
    ingested = np.zeros(len(offsets))

    ticks: List[Tick] = []
    failures: List[BaseException] = []
    stop = threading.Event()
    last_ingest = [math.inf]

    def churn() -> None:
        try:
            while not (stop.is_set() and ticks and ticks[-1].promoted
                       and ticks[-1].started > last_ingest[0]):
                started = clock()
                swap = manager.advance()
                ticks.append(Tick(started, clock() - started, swap.moved_users,
                                  swap.promoted, swap.recomputed_nodes,
                                  swap.total_nodes))
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    def issue(i: int, due: float) -> None:
        manager.ingest(((users[i], points[i]),))
        ingested[i] = clock()

    thread = threading.Thread(target=churn, name="churn")
    thread.start()
    try:
        lags, __, t0 = asyncio.run(open_loop(offsets, issue))
        last_ingest[0] = clock()
    finally:
        stop.set()
        thread.join(timeout=150.0)
    if thread.is_alive():
        raise BenchError("churn thread did not stop", reason="hang")
    if failures:
        raise failures[0]

    # When each move went live: the end of the first promoting tick that
    # started after the move was ingested.
    live_starts = [t.started for t in ticks if t.promoted]
    live_ends = [t.started + t.seconds for t in ticks if t.promoted]
    visible = np.array([live_ends[bisect.bisect_right(live_starts, when)]
                        for when in ingested])
    latency = visible - (t0 + offsets)
    windows: List[Window] = []
    for (step_start, step_offsets, __, __), (rate, duration) in zip(schedule,
                                                                    steps):
        lo = int(np.searchsorted(offsets, step_start))
        hi = lo + len(step_offsets)
        end = t0 + step_start + duration
        windows.append(Window(
            rate, duration, latency[lo:hi], lags[lo:hi],
            int(np.sum(visible[lo:hi] > end)), Counter(),
            max(float(visible[lo:hi].max()) - (t0 + step_start), 1e-9)))
    return windows, ticks, len(offsets)


def merged(parts: Sequence[Window]) -> Window:
    """Windows at one rate, taken apart in time, as one window."""
    return Window(
        parts[0].rate, sum(w.duration for w in parts),
        np.concatenate([w.latencies for w in parts]),
        np.concatenate([w.lags for w in parts]),
        max(w.backlog for w in parts), Counter(),
        sum(w.elapsed for w in parts))


def _churn_timed(inputs: Inputs, params: Params, seed: int, seconds: float,
                 trace: bool, manager: EpochManager, before: List[float],
                 again: Callable[[], List[float]], journal_dir: str) -> Outcome:
    positions = dict(inputs.db.items())
    tracer = layers.tracer() if trace else None
    gcw = GcWatch()
    windows: List[Window] = []
    stream_ticks: List[Tick] = []
    streamed_moves = 0

    def batches(share: float, traced: bool = False) -> List[Tick]:
        done, handed = fixed_batches(lambda: manager.active.db,
                                     manager.advance, inputs, params,
                                     seconds * share, traced)
        for batch in handed:
            positions.update(batch)
        return done

    if trace:
        assert tracer is not None
        plain = batches(0.5)
        with tracer, gcw:
            ticks = batches(0.5, traced=True)
    else:
        segment = [(params.rate, seconds * params.nominal_share / ROUNDS)]
        parts: List[Window] = []
        ticks = []
        for __ in range(ROUNDS):
            done, stream, moved = streamed(manager, inputs, positions, segment)
            parts += done
            stream_ticks += stream
            streamed_moves += moved
            ticks += batches(params.batch_share / ROUNDS)
        rungs = [(rate, rung_seconds(seconds, params))
                 for rate in ladder_rates(params.rate, params.ladder_top)]
        windows, stream, moved = streamed(manager, inputs, positions, rungs)
        windows.insert(0, merged(parts))
        stream_ticks += stream
        streamed_moves += moved
    rss = peak_rss_mb()

    # Gate: no move is lost (the final epoch places every mover where its
    # last move put it), the final epoch is bit-identical to a bulk
    # re-solve of its snapshot, and a restore from the run's journal
    # reproduces it.
    final = manager.active
    for uid, point in positions.items():
        if final.db.location_of(uid) != point:
            raise BenchError("a move never reached the active epoch",
                             reason="lost-move")
    if not same_policy(final.policy, manager.oracle_policy(final)):
        raise BenchError("final epoch differs from oracle_policy()",
                         reason="oracle")
    restored = EpochManager.restore(PolicyJournal(journal_dir))
    try:
        if restored.active.serial != final.serial or not same_policy(
            restored.active.policy, final.policy
        ):
            raise BenchError("journal restore does not reproduce the final "
                             "epoch", reason="restore")
    finally:
        restored.close()

    if trace:
        metrics = layers.derive(tracer, gcw, None, ticks, plain=None,
                                traced_ops="ticks", plain_ticks=plain)
        tracer.write(os.path.join(trace_dir(), f"trace-churn-{seed}.json"))
        all_ticks = plain + ticks
        return Outcome(len(all_ticks), sum(not t.promoted for t in all_ticks),
                       metrics, [f"{len(plain)} untraced and {len(ticks)} "
                                 f"traced fixed-batch ticks"])
    all_ticks = stream_ticks + ticks
    failed = sum(not t.promoted for t in all_ticks)
    notes = _capacity_notes(windows, params, trace) + [
        f"{len(ticks)} fixed-batch ticks of {ticks[0].moves} moves"]
    metrics = _end_to_end(statistics.median(before + again()), windows[0],
                          windows, ticks, rss, params)
    return Outcome(streamed_moves + len(all_ticks), failed, metrics, notes)


# -- end-to-end metrics ------------------------------------------------------


def _capacity_notes(windows: Sequence[Window], params: Params,
                    trace: bool) -> List[str]:
    nominal = windows[0]
    notes = [
        f"nominal window: {nominal.attempted} requests at "
        f"{nominal.rate:g}/s ({nominal.attempted / 100:.0f} beyond the "
        f"p99), backlog "
        f"{nominal.backlog} at last send, generator lag p99 "
        f"{1e3 * percentile(nominal.lags, 99):.3f} ms"
    ]
    if nominal.cpu_s > 0:
        notes[0] += (f", event loop busy "
                     f"{100 * nominal.cpu_s / nominal.elapsed:.0f} %")
    if nominal.lag_grows(params.limit_s):
        notes.append("nominal window OVER CAPACITY: lag or backlog grew, "
                     "so its latencies describe a growing queue")
    if not trace:
        passed = [w.rate for w in windows if w.meets(params.limit_s)]
        top = ladder_rates(params.rate, params.ladder_top)[-1]
        if passed and max(passed) >= top:
            notes.append(f"max_rate_rps is a floor: the top ladder rate "
                         f"{top:g}/s met the limit")
    return notes


def _end_to_end(
    setup_s: float, nominal: Window, windows: Sequence[Window],
    ticks: List[Tick], rss: float, params: Params,
) -> Dict[str, Tuple[float, str]]:
    if not supports(nominal.attempted, 99.0):
        raise BenchError(
            f"{nominal.attempted} samples cannot support a p99",
            reason="samples")
    promoted = [t for t in ticks if t.promoted]
    if not promoted:
        raise BenchError("no maintenance tick promoted", reason="ticks")
    tick_s = [t.seconds for t in ticks]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (1e3 * nominal.latency(50.0), "ms"),
        "latency_p99_ms": (1e3 * nominal.latency(99.0), "ms"),
        "max_rate_rps": (highest_passing(windows, params.limit_s), "req/s"),
        "advance_p50_ms": (1e3 * statistics.median(tick_s), "ms"),
        # moves promoted per second of tick wall time, the whole run's
        "moves_per_s": (
            sum(t.moves for t in promoted) / sum(tick_s), "moves/s"
        ),
        "peak_rss_mb": (rss, "MB"),
    }


RUNNERS = {"churn": run_churn, "mixed": run_mixed}
