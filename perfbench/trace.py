"""Span tracing installed from outside the library.

A :class:`Tracer` replaces chosen public functions and methods of the
``repro`` package with thin wrappers for the duration of a ``with``
block, and restores the originals on exit.  Each call records one span:
``(span id, parent span id, operation id, name, start ns, end ns)``.
The parent comes from a context variable, so spans nest correctly both
in plain calls and across asyncio tasks (a task inherits the context it
was created in).  The operation id is the request or tick number the
benchmark assigned; every span one request causes carries it.

Spans hold names, integer times and integer ids only.  Nothing a
wrapped function receives or returns is stored, so a trace cannot carry
a user id or a coordinate; ``on_result`` hooks see the call's
arguments and result but may only add to integer counters.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_parent", default=0
)
_operation: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_operation", default=0
)

#: one recorded call: (sid, parent sid, operation id, name, start, end)
Span = Tuple[int, int, int, str, int, int]

ResultHook = Callable[["Tracer", tuple, Any], None]


def set_operation(op_id: int) -> contextvars.Token:
    """Tag every span started in this context (and tasks it creates)."""
    return _operation.set(op_id)


def reset_operation(token: contextvars.Token) -> None:
    _operation.reset(token)


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._targets: List[Tuple[Any, str, str, Optional[ResultHook]]] = []

    def add(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> "Tracer":
        """Wrap ``owner.attr`` as span ``name`` once installed."""
        self._targets.append((owner, attr, name, on_result))
        return self

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += int(n)

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, on_result in self._targets:
                original = inspect.getattr_static(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_result))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(
        self, original: Any, name: str, on_result: Optional[ResultHook]
    ) -> Any:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = _parent.get()
                token = _parent.set(sid)
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                except BaseException as exc:
                    tracer.count(f"{name}.raised.{_reason(exc)}")
                    raise
                finally:
                    end = clock()
                    _parent.reset(token)
                    spans.append(
                        (sid, parent, _operation.get(), name, start, end)
                    )
                if on_result is not None:
                    on_result(tracer, args, result)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = _parent.get()
            token = _parent.set(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.count(f"{name}.raised.{_reason(exc)}")
                raise
            finally:
                end = clock()
                _parent.reset(token)
                spans.append((sid, parent, _operation.get(), name, start, end))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    # -- export ----------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (opens in any trace viewer)."""
        origin = min((s[4] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) // 1000,
                "dur": max(0, (end - start) // 1000),
                "args": {"id": sid, "parent": parent, "op": op},
            }
            for sid, parent, op, name, start, end in self.spans
        ]
        return {
            "traceEvents": events,
            "otherData": {"counts": dict(sorted(self.counts.items()))},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def _reason(exc: BaseException) -> str:
    """A failure label: the exception's ``reason`` or its class name."""
    reason = getattr(exc, "reason", None)
    return str(reason) if isinstance(reason, str) else type(exc).__name__


# -- derivation ----------------------------------------------------------------


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id → its duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for sid, parent, __, __, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered_ns(start, end, children.get(sid, ()))
        for sid, __, __, __, start, end in spans
    }


def by_name(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """Span name → (calls, total self seconds)."""
    spans = list(spans)
    own = self_times(spans)
    calls: Counter = Counter()
    seconds: Dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span[3]] += 1
        seconds[span[3]] += own[span[0]] / 1e9
    return {name: (calls[name], seconds[name]) for name in calls}


def rode_round_wait(
    spans: Iterable[Span], fetch_name: str, round_name: str
) -> float:
    """Seconds each ``fetch_name`` span waited before the round it rode.

    A batcher fetch rides the first round launched after it joined the
    open window, so its wait is that round's start minus the fetch's
    start; the round itself is provider time, not coalescing wait.
    """
    spans = list(spans)
    starts = sorted(s[4] for s in spans if s[3] == round_name)
    waited = 0
    for s in spans:
        if s[3] != fetch_name:
            continue
        i = bisect.bisect_left(starts, s[4])
        ride = starts[i] if i < len(starts) and starts[i] <= s[5] else s[5]
        waited += ride - s[4]
    return waited / 1e9
