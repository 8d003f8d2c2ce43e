"""Async port of retry/backoff, and a virtual-time event loop.

The sync stack (:mod:`repro.robustness.retry`) blocks a whole worker on
every backoff sleep; one CSP thread therefore serves one in-flight LBS
query at a time.  This module re-expresses the exact same semantics as
awaitables so a single event loop overlaps many provider round-trips
under the same budgets:

* :func:`retry_call_async` — :func:`~repro.robustness.retry.retry_call`
  for coroutines.  It reuses the *same* :class:`RetryPolicy` (delays are
  bit-identical, deterministic jitter included) and the *same*
  :class:`CircuitBreaker` instance — sync and async callers can share
  one breaker, because its state transitions are synchronous and the
  event loop never preempts between ``allow()`` and
  ``record_failure()``.
* :class:`VirtualTimeLoop` / :func:`run_virtual` — an event loop whose
  clock jumps straight to the next timer instead of waiting for it.

Every async layer (gateway, pooled client, batcher, this retry loop)
reads one clock — the running loop's ``time()`` — and waits with
``asyncio.sleep`` / ``call_later``.  Run the same coroutines under
:func:`run_virtual` and that one clock becomes simulated time: a
capacity sweep of the production gateway over seconds of arrivals costs
milliseconds of wall time and replays bit for bit, and no component can
disagree with another about what time it is.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Callable, Coroutine, Optional, Tuple, Type, TypeVar

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
)
from .retry import CircuitBreaker, RetryPolicy

__all__ = ["VirtualTimeLoop", "retry_call_async", "run_virtual"]

T = TypeVar("T")


class _VirtualSelector(selectors.DefaultSelector):
    """Turns every timed wait of the loop into a jump of virtual time.

    The loop asks its selector to block for ``timeout`` seconds exactly
    when nothing is runnable before its next timer; advancing the clock
    by ``timeout`` and polling instead makes that timer due at once.
    """

    def __init__(self, loop: "VirtualTimeLoop"):
        super().__init__()
        self._loop = loop

    def select(self, timeout: Optional[float] = None) -> Any:
        events = super().select(0)
        if timeout is None and not events:
            raise ReproError(
                "virtual-time loop is idle with no timer pending: every "
                "task awaits something that can never happen (deadlock)"
            )
        if timeout is not None and timeout > 0:
            self._loop._now += timeout
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop on simulated time, starting at 0.0.

    ``time()`` reads a counter that only the selector advances, so the
    coroutines it runs must wait on timers, never on real I/O or
    threads: a wait with no timer left raises :class:`ReproError`
    instead of hanging.
    """

    def __init__(self) -> None:
        self._now = 0.0
        super().__init__(_VirtualSelector(self))

    def time(self) -> float:
        return self._now


def run_virtual(coro: Coroutine[Any, Any, T]) -> T:
    """``asyncio.run`` on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


async def retry_call_async(
    fn: Callable[[], "asyncio.Future"],
    *,
    policy: RetryPolicy,
    deadline: Optional[float] = None,
    retryable: Tuple[Type[BaseException], ...] = (Exception,),
    breaker: Optional[CircuitBreaker] = None,
    on_attempt: Optional[Callable[[int, Optional[BaseException]], None]] = None,
):
    """Await ``fn()`` under ``policy`` — the async twin of ``retry_call``.

    Semantics match :func:`repro.robustness.retry.retry_call` clause for
    clause: only ``retryable`` exceptions retry; ``deadline`` bounds the
    total budget (work + backoff) measured on the loop clock;
    ``breaker`` is consulted before and informed after every attempt;
    ``on_attempt`` observes each outcome.  ``asyncio.CancelledError``
    always propagates immediately — cancellation is a caller decision,
    never a provider failure, so it neither trips the breaker nor burns
    an attempt.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    for attempt in range(policy.max_attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit open after {breaker.opened_times} trip(s); "
                "call rejected without attempting"
            )
        try:
            value = await fn()
        except asyncio.CancelledError:
            raise
        except retryable as exc:
            if breaker is not None:
                breaker.record_failure()
            if on_attempt is not None:
                on_attempt(attempt, exc)
            if attempt + 1 >= policy.max_attempts:
                raise
            delay = policy.delay_for(attempt)
            if deadline is not None and loop.time() + delay - start > deadline:
                raise DeadlineExceededError(
                    f"deadline of {deadline:g}s exhausted after "
                    f"{attempt + 1} attempt(s)"
                ) from exc
            await asyncio.sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            if on_attempt is not None:
                on_attempt(attempt, None)
            return value
    raise ReproError("unreachable: retry loop exited without outcome")
