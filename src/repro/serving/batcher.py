"""Time/size-windowed request coalescing for the async gateway.

Two amortizations stack here, mirroring the paper's observation that
sharing is what makes anonymization cheap at scale:

1. **Coalescing** — concurrent requests whose anonymized form is
   identical (same quad/binary-tree node cloak, same payload) are one
   provider query.  The cloak *is* the natural coalescing key: k-anonymity
   guarantees every member of a group shares it, so a burst of k users
   from one group costs the LBS a single query whose answer fans out to
   every waiter.  (This is also privacy-positive: the LBS sees one
   request where it would have seen k duplicates — the §VII caching
   argument, applied to *in-flight* duplicates the cache cannot catch.)
2. **Batching** — the distinct cloaks that accumulate within a short
   window (``max_wait`` seconds, capped at ``max_batch`` keys) ride one
   provider *round* (one RTT) via
   :meth:`~repro.serving.aio_provider.AsyncProviderClient.serve_round`.

Failure fan-out is all-or-nothing per round: the shared exception
instance reaches every waiter of every key in the round, and the retry/
breaker layer above counts the round **once** — a thousand coalesced
waiters cannot trip a breaker a thousand times.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.requests import AnonymizedRequest
from ..lbs.provider import QueryAnswer

__all__ = ["BatcherStats", "CoalescingBatcher"]

#: Coalescing key: what the LBS would see (cloak + payload).
BatchKey = Tuple[object, tuple]


@dataclass
class BatcherStats:
    """Lifetime counters of one batcher."""

    #: distinct keys sent to the provider (== provider queries issued).
    keys_flushed: int = 0
    #: provider rounds flushed (each ≤ max_batch distinct keys).
    rounds: int = 0
    #: submissions that joined an already-pending key.
    coalesced: int = 0
    #: rounds that failed and fanned the error out to their waiters.
    failed_rounds: int = 0

    @property
    def keys_per_round(self) -> float:
        return self.keys_flushed / self.rounds if self.rounds else 0.0


class _PendingKey:
    __slots__ = ("request", "future", "waiters")

    def __init__(self, request: AnonymizedRequest, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.waiters = 1


class CoalescingBatcher:
    """Groups concurrent anonymized requests by cloak and flushes the
    distinct cloaks of each window as one provider round.

    ``round_fn`` is the downstream exchange — typically the pooled async
    client's ``serve_round`` wrapped in retry/breaker by the gateway.
    It receives the window's requests (one per distinct key) and must
    return answers in the same order.

    A window flushes when it reaches ``max_batch`` distinct keys, or
    ``max_wait`` seconds after its first key arrived, whichever comes
    first.  ``max_wait=0`` degenerates to per-submission flushing (still
    coalescing identical in-flight keys).
    """

    def __init__(
        self,
        round_fn: Callable[
            [Sequence[AnonymizedRequest]], Awaitable[Sequence[QueryAnswer]]
        ],
        *,
        max_batch: int = 16,
        max_wait: float = 0.001,
    ):
        if max_batch < 1:
            raise ReproError("max_batch must be ≥ 1")
        if max_wait < 0:
            raise ReproError("max_wait must be ≥ 0")
        self._round_fn = round_fn
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.stats = BatcherStats()
        self._window: Dict[BatchKey, _PendingKey] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._rounds_in_flight: List[asyncio.Task] = []

    @staticmethod
    def _key(request: AnonymizedRequest) -> BatchKey:
        return (request.cloak, request.payload)

    # -- submission ----------------------------------------------------------

    async def fetch(self, request: AnonymizedRequest) -> QueryAnswer:
        """Resolve one anonymized request through the current window.

        Identical in-flight keys share one future; the answer is
        re-stamped with each waiter's request id on the way out.
        """
        key = self._key(request)
        pending = self._window.get(key)
        if pending is not None:
            pending.waiters += 1
            self.stats.coalesced += 1
            answer = await asyncio.shield(pending.future)
            return QueryAnswer(request.request_id, answer.candidates)
        loop = asyncio.get_event_loop()
        future = loop.create_future()
        # Pre-consume so a round whose waiters were all cancelled does
        # not warn under asyncio debug mode (waiters still re-raise).
        future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self._window[key] = _PendingKey(request, future)
        if len(self._window) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            if self.max_wait == 0:
                # Flush on the next loop tick, once the synchronous
                # burst that is currently submitting has drained.
                self._timer = loop.call_soon(self._flush)
            else:
                self._timer = loop.call_later(self.max_wait, self._flush)
        answer = await asyncio.shield(future)
        return QueryAnswer(request.request_id, answer.candidates)

    # -- flushing ------------------------------------------------------------

    def _flush(self) -> None:
        """Close the current window and launch its provider round."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._window:
            return
        window, self._window = self._window, {}
        task = asyncio.get_event_loop().create_task(self._run_round(window))
        self._rounds_in_flight.append(task)
        task.add_done_callback(self._rounds_in_flight.remove)

    async def _run_round(self, window: Dict[BatchKey, _PendingKey]) -> None:
        order = list(window.values())
        requests = [pending.request for pending in order]
        try:
            answers = await self._round_fn(requests)
        except asyncio.CancelledError:
            for pending in order:
                if not pending.future.done():
                    pending.future.cancel()
            raise
        except BaseException as exc:  # noqa: BLE001 — shared fan-out
            self.stats.failed_rounds += 1
            for pending in order:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        self.stats.rounds += 1
        self.stats.keys_flushed += len(order)
        for pending, answer in zip(order, answers):
            if not pending.future.done():
                pending.future.set_result(answer)

    async def drain(self) -> None:
        """Flush the open window and await every in-flight round."""
        self._flush()
        while self._rounds_in_flight:
            await asyncio.gather(
                *list(self._rounds_in_flight), return_exceptions=True
            )

    async def close(self) -> None:
        """Cancel in-flight rounds (gateway shutdown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for pending in self._window.values():
            if not pending.future.done():
                pending.future.cancel()
        self._window.clear()
        for task in list(self._rounds_in_flight):
            task.cancel()
        await asyncio.gather(
            *list(self._rounds_in_flight), return_exceptions=True
        )
