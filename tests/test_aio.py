"""Async robustness primitives: retry/backoff port, the virtual-time
event loop, and the single-flight answer cache.

The async ports must be semantically identical to their sync twins —
same policies, same delays (deterministic jitter included), shareable
breaker instances — so the sync path can stay the privacy oracle while
the gateway overlaps I/O.
"""

import asyncio

import pytest

from repro.core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
)
from repro.core.requests import AnonymizedRequest, normalize_payload
from repro.lbs.cache import AsyncAnswerCache
from repro.lbs.provider import QueryAnswer
from repro.robustness import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    retry_call,
    retry_call_async,
    run_virtual,
)


def run(coro):
    return asyncio.run(coro)


class Flaky:
    """Fails ``failures`` times, then succeeds with ``value``."""

    def __init__(self, failures, value="ok", exc=TimeoutError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    async def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom {self.calls}")
        return self.value


async def elapsed(coro):
    """Await ``coro``; return ``(result or exception, loop seconds)``."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    try:
        result = await coro
    except Exception as exc:  # noqa: BLE001 — returned to the test
        result = exc
    return result, loop.time() - start


class TestVirtualClock:
    """The clock of :class:`~repro.robustness.aio.VirtualTimeLoop`."""

    def test_sleep_accumulates_and_yields(self):
        order = []

        async def sleeper(name, seconds):
            await asyncio.sleep(seconds)
            order.append((name, asyncio.get_running_loop().time()))

        async def use():
            await asyncio.gather(sleeper("late", 2.0), sleeper("early", 1.5))
            await asyncio.sleep(0.5)
            return asyncio.get_running_loop().time()

        assert run_virtual(use()) == 2.5
        assert order == [("early", 1.5), ("late", 2.0)]

    def test_hour_long_sleep_costs_no_wall_time(self):
        import time

        start = time.perf_counter()
        assert run_virtual(elapsed(asyncio.sleep(3600.0)))[1] == 3600.0
        assert time.perf_counter() - start < 5.0

    def test_idle_loop_raises_instead_of_hanging(self):
        async def deadlock():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ReproError, match="idle"):
            run_virtual(deadlock())

    def test_wait_for_times_out_on_virtual_time(self):
        async def drive():
            return await elapsed(asyncio.wait_for(asyncio.sleep(5.0), 0.25))

        result, seconds = run_virtual(drive())
        assert isinstance(result, asyncio.TimeoutError)
        assert seconds == pytest.approx(0.25)


class TestRetryCallAsync:
    def test_succeeds_after_transient_failures(self):
        fn = Flaky(2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=4)
        result, seconds = run_virtual(
            elapsed(retry_call_async(fn, policy=policy))
        )
        assert result == "ok"
        assert fn.calls == 3
        assert seconds == policy.delay_for(0) + policy.delay_for(1)

    def test_backoff_identical_to_sync_twin(self):
        """The async port reuses RetryPolicy verbatim: total backoff must
        equal the sync retry_call's to the last jittered microsecond."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.07, seed=9)

        sync_clock = ManualClock()
        with pytest.raises(TimeoutError):
            retry_call(
                _always_fail_sync, policy=policy, clock=sync_clock
            )

        result, seconds = run_virtual(
            elapsed(retry_call_async(_always_fail_async, policy=policy))
        )
        assert isinstance(result, TimeoutError)
        assert seconds == sync_clock.slept > 0.0

    def test_exhaustion_reraises_last_error(self):
        fn = Flaky(5)
        with pytest.raises(TimeoutError, match="boom 2"):
            run_virtual(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                )
            )

    def test_non_retryable_propagates_immediately(self):
        fn = Flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            run_virtual(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(max_attempts=5, base_delay=0.0),
                    retryable=(TimeoutError,),
                )
            )
        assert fn.calls == 1

    def test_deadline_refuses_doomed_backoff(self):
        fn = Flaky(10)
        result, seconds = run_virtual(
            elapsed(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(
                        max_attempts=10, base_delay=1.0, jitter=0.0
                    ),
                    deadline=2.5,
                )
            )
        )
        assert isinstance(result, DeadlineExceededError)
        # The overrunning backoff is refused, never slept toward.
        assert 0.0 < seconds <= 2.5

    def test_breaker_shared_with_sync_path(self):
        """One breaker instance guards both serving paths: async failures
        push it open, and the sync path then fails fast too."""
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout=60.0,
            clock=ManualClock(),
        )
        with pytest.raises(TimeoutError):
            run_virtual(
                retry_call_async(
                    Flaky(9),
                    policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                    breaker=breaker,
                )
            )
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            retry_call(
                _always_fail_sync,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                clock=ManualClock(),
                breaker=breaker,
            )

    def test_cancellation_neither_retries_nor_trips_breaker(self):
        breaker = CircuitBreaker(
            failure_threshold=1,
            clock=ManualClock(),
        )
        started = 0

        async def hang():
            nonlocal started
            started += 1
            await asyncio.sleep(3600)

        async def drive():
            task = asyncio.ensure_future(
                retry_call_async(
                    hang,
                    policy=RetryPolicy(max_attempts=3, base_delay=0.0),
                    breaker=breaker,
                )
            )
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        run_virtual(drive())
        assert started == 1  # cancellation burned no retry attempt
        assert breaker.state == "closed"  # and is not a provider failure


def _always_fail_sync():
    raise TimeoutError("down")


async def _always_fail_async():
    raise TimeoutError("down")


def _request(request_id, cloak="cloak-a", category="rest"):
    return AnonymizedRequest(
        request_id=request_id,
        cloak=cloak,
        payload=normalize_payload([("poi", category)]),
    )


class CountingLoader:
    def __init__(self, delay=0.0, exc=None):
        self.calls = 0
        self.delay = delay
        self.exc = exc

    async def __call__(self, request):
        self.calls += 1
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.exc is not None:
            raise self.exc
        return QueryAnswer(request.request_id, ())


class TestAsyncAnswerCache:
    def test_single_flight_fill(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader(delay=0.01)

        async def drive():
            return await asyncio.gather(
                *(cache.fetch(_request(i), loader) for i in range(8))
            )

        results = run(drive())
        assert loader.calls == 1  # one provider call for 8 racers
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 7
        assert cache.stats.hits == 0
        # Everyone got the answer, re-stamped with their own id.
        assert [a.request_id for a, __, ___ in results] == list(range(8))
        hit_flags = [hit for __, hit, ___ in results]
        coalesced_flags = [c for __, ___, c in results]
        assert hit_flags.count(True) == 0
        assert coalesced_flags.count(True) == 7

    def test_hit_after_fill(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader()

        async def drive():
            await cache.fetch(_request(1), loader)
            return await cache.fetch(_request(2), loader)

        answer, hit, coalesced = run(drive())
        assert hit and not coalesced
        assert loader.calls == 1
        assert cache.stats.hits == 1
        assert cache.deferred_billing == {"rest": 1}
        assert answer.request_id == 2

    def test_distinct_keys_do_not_share(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader()

        async def drive():
            await asyncio.gather(
                cache.fetch(_request(1, cloak="a"), loader),
                cache.fetch(_request(2, cloak="b"), loader),
            )

        run(drive())
        assert loader.calls == 2
        assert cache.stats.misses == 2

    def test_failed_fill_fans_same_exception_and_leaves_no_trace(self):
        cache = AsyncAnswerCache()
        boom = ConnectionError("wire down")
        loader = CountingLoader(delay=0.01, exc=boom)

        async def drive():
            return await asyncio.gather(
                *(cache.fetch(_request(i), loader) for i in range(5)),
                return_exceptions=True,
            )

        results = run(drive())
        assert all(exc is boom for exc in results)  # the same instance
        assert len(cache) == 0
        assert cache.stats.misses == 0  # failures are not misses
        assert cache.stats.hits == 0
        # A later fetch retries from scratch and can succeed.
        ok_loader = CountingLoader()
        answer, hit, coalesced = run(cache.fetch(_request(9), ok_loader))
        assert not hit and not coalesced
        assert ok_loader.calls == 1

    def test_cancelled_waiter_does_not_kill_shared_fill(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader(delay=0.02)

        async def drive():
            first = asyncio.ensure_future(cache.fetch(_request(1), loader))
            await asyncio.sleep(0.001)
            second = asyncio.ensure_future(cache.fetch(_request(2), loader))
            await asyncio.sleep(0.001)
            second.cancel()
            with pytest.raises(asyncio.CancelledError):
                await second
            return await first

        answer, hit, coalesced = run(drive())
        assert answer.request_id == 1
        assert loader.calls == 1
        assert cache.stats.misses == 1

    def test_flush_returns_billing(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader()

        async def drive():
            await cache.fetch(_request(1), loader)
            await cache.fetch(_request(2), loader)
            await cache.fetch(_request(3), loader)

        run(drive())
        assert cache.flush() == {"rest": 2}
        assert len(cache) == 0
        assert cache.deferred_billing == {}


class TestAsyncCacheCloseDiscipline:
    """Regression for the fail-closed linter fix: ``close()`` swallows
    only the cancellation it requested; anything else propagates."""

    def test_close_cancels_inflight_fills_quietly(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader(delay=60.0)

        async def drive():
            waiter = asyncio.ensure_future(cache.fetch(_request(1), loader))
            await asyncio.sleep(0)
            await cache.close()
            with pytest.raises(asyncio.CancelledError):
                await waiter

        run(drive())
        assert len(cache._fills) == 0 and len(cache._inflight) == 0

    def test_close_propagates_unexpected_task_failure(self):
        cache = AsyncAnswerCache()

        async def explode():
            raise ValueError("boom — not a cancellation")

        async def drive():
            task = asyncio.get_event_loop().create_task(explode())
            await asyncio.sleep(0)
            cache._fills["bogus"] = task
            with pytest.raises(ValueError, match="boom"):
                await cache.close()

        run(drive())

    def test_loader_failure_reaches_waiters_not_close(self):
        cache = AsyncAnswerCache()
        loader = CountingLoader(exc=TimeoutError("wire down"))

        async def drive():
            with pytest.raises(TimeoutError):
                await cache.fetch(_request(1), loader)
            await cache.close()  # nothing left to swallow or raise

        run(drive())
        assert cache.stats.misses == 0 and len(cache) == 0
