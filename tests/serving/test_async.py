"""Tests for the asyncio front-end (async_run / async_run_batch)."""

import asyncio
import time

import pytest

from repro.errors import ServingError
from repro.rtl.parser import parse_spec
from repro.serving import (
    EXECUTOR_NAMES,
    BatchRequest,
    RunRequest,
    SimulationPool,
    async_run,
    async_run_batch,
)
from repro.serving.chaos import SleepyOverride


class TestAsyncRunBatch:
    def test_owns_its_pool_by_default(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 6, cycles=10)
        batch = asyncio.run(async_run_batch(request))
        assert batch.ok
        assert (batch.executor, batch.pool_size) == ("serial", 1)
        assert [r.value("count") for r in batch.results] == [2] * 6

    def test_reuses_a_provided_pool(self, counter_spec):
        async def scenario():
            with SimulationPool(counter_spec, max_workers=2) as pool:
                first = await async_run_batch(
                    BatchRequest.repeat(counter_spec, 2, cycles=4), pool=pool
                )
                second = await async_run_batch(
                    BatchRequest.repeat(counter_spec, 2, cycles=4), pool=pool
                )
                assert not pool.closed  # a borrowed pool is not closed
                return first, second

        first, second = asyncio.run(scenario())
        assert first.ok and second.ok

    def test_spec_mismatch_raises(self, counter_spec, counter_spec_text):
        other = parse_spec(counter_spec_text.replace("next 7", "next 3"))

        async def scenario():
            with SimulationPool(counter_spec, max_workers=1) as pool:
                await async_run_batch(
                    BatchRequest.repeat(other, 1, cycles=1), pool=pool
                )

        with pytest.raises(ServingError):
            asyncio.run(scenario())

    def test_per_item_errors_are_captured_not_raised(self, counter_spec):
        request = BatchRequest(
            counter_spec, [RunRequest(cycles=3), RunRequest(cycles=-1)]
        )
        batch = asyncio.run(async_run_batch(request, max_workers=2))
        assert not batch.ok
        assert [item.ok for item in batch.items] == [True, False]

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_event_loop_stays_responsive(self, counter_spec, executor):
        """A concurrent coroutine ticks while the batch's run executes,
        on every strategy (serial and lane run inline on whichever thread
        calls the pool, so the batch must not run on the loop's)."""
        ticks = []

        async def scenario():
            # a slowed run (~100 ms) the loop must not wait on
            request = BatchRequest(counter_spec, [RunRequest(
                cycles=10, override=SleepyOverride(seconds_per_call=0.002),
            )])
            task = asyncio.ensure_future(async_run_batch(
                request, max_workers=1, executor=executor,
            ))
            while not task.done():
                ticks.append(time.monotonic())
                await asyncio.sleep(0.001)
            return await task

        batch = asyncio.run(scenario())
        assert batch.ok, [str(item.error) for item in batch.failures]
        spans = {span.name: span for span in batch.items[0].spans}
        run = spans["worker_run"]
        assert any(run.start < tick < run.end for tick in ticks)
        if executor == "process":
            # the IPC return leg is traced like a synchronous batch's
            assert "chunk_ipc" in spans


class TestAsyncRun:
    def test_single_request(self, counter_spec):
        async def scenario():
            with SimulationPool(counter_spec, max_workers=1) as pool:
                return await async_run(pool, RunRequest(cycles=10))

        result = asyncio.run(scenario())
        assert result.value("count") == 2
