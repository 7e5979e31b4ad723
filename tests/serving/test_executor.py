"""Tests for the execution strategies (serial / process / lane).

The process strategy is the interesting one: the lowered program is
pickled to worker processes once at pool startup, requests travel in
chunks, and per-item error capture must survive the process boundary —
including requests that cannot cross it at all (an unpicklable override).
"""

import threading

import pytest

from repro.compiler.cache import DiskCache, PrepareCache
from repro.compiler.compiled import CompiledBackend
from repro.compiler.threaded import ThreadedBackend
from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.errors import ServingError, SimulationError
from repro.serving import (
    EXECUTOR_NAMES,
    BatchRequest,
    RunRequest,
    SimulationPool,
    WorkerContext,
    run_batch,
)
from repro.serving.executor import worker_context_for


def _observables(result):
    return (
        result.final_values,
        result.memory_contents,
        [(event.address, event.value) for event in result.outputs],
    )


def stuck_wrapped(name, value, cycle):
    """Module-level override (picklable by reference for process workers)."""
    return 0 if name == "wrapped" else value


class CustomCompiledBackend(CompiledBackend):
    """A third-party-style backend: ships to workers as a pickled instance."""


class TestStrategyEquivalence:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_every_strategy_matches_sequential(self, counter_spec,
                                               backend_name, executor):
        runs = [RunRequest(cycles=cycles) for cycles in (1, 4, 9, 16)]
        prepared = make_backend(backend_name).prepare(counter_spec)
        sequential = [
            _observables(prepared.run(cycles=run.cycles, io=run.make_io()))
            for run in runs
        ]
        with SimulationPool(counter_spec, backend=backend_name,
                            executor=executor, max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert [_observables(item.result) for item in batch.items] == sequential
        assert batch.executor == executor

    def test_unknown_executor_rejected(self, counter_spec):
        with pytest.raises(ServingError, match="unknown executor"):
            SimulationPool(counter_spec, executor="fiber")

    def test_retired_thread_executor_rejected(self, counter_spec):
        # only the wire protocol aliases "thread"; Python callers are told
        with pytest.raises(ServingError, match="serial"):
            SimulationPool(counter_spec, executor="thread")

    def test_nonpositive_chunk_size_rejected(self, counter_spec):
        with pytest.raises(ServingError, match="chunk_size"):
            SimulationPool(counter_spec, chunk_size=0)


class TestSerialStrategy:
    def test_single_worker_in_submission_order(self, counter_spec):
        with SimulationPool(counter_spec, executor="serial",
                            max_workers=5) as pool:
            batch = pool.run_batch([RunRequest(cycles=c) for c in (2, 5, 7)])
        assert batch.ok
        assert pool.max_workers == 1  # serial always runs one worker
        assert batch.runs_by_worker == {"serial-0": 3}
        assert [item.result.cycles_run for item in batch.items] == [2, 5, 7]

    def test_hook_may_submit_reentrantly(self, counter_spec):
        """Serial execution happens outside the submit lock, so a run
        hook that itself submits to the pool must not deadlock."""
        with SimulationPool(counter_spec, executor="serial") as pool:
            nested_cycles = []

            def nested(name, value, cycle):
                if cycle == 0 and name == "next" and not nested_cycles:
                    nested_cycles.append(
                        pool.run(RunRequest(cycles=1)).cycles_run
                    )
                return value

            result = pool.run(RunRequest(cycles=2, override=nested))
        assert result.cycles_run == 2
        assert nested_cycles == [1]

    def test_runs_on_the_calling_thread(self, counter_spec):
        seen = []

        def spy(name, value, cycle):
            seen.append(threading.get_ident())
            return value

        with SimulationPool(counter_spec, executor="serial") as pool:
            pool.run_batch([RunRequest(cycles=1, override=spy)])
        assert set(seen) == {threading.get_ident()}


class TestProcessStrategy:
    def test_workers_are_separate_processes(self, counter_spec):
        import os

        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 8)
        assert batch.ok
        workers = set(batch.runs_by_worker)
        assert all(worker.startswith("pid-") for worker in workers)
        assert f"pid-{os.getpid()}" not in workers

    def test_chunk_size_bounds_scheduling(self, counter_spec):
        # one chunk spanning the whole batch: a single worker runs it all
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=8) as pool:
            batch = pool.run_batch([RunRequest(cycles=3)] * 8)
        assert batch.ok
        assert len(batch.runs_by_worker) == 1

    def test_per_item_error_capture_crosses_processes(self, counter_spec):
        runs = [RunRequest(cycles=5), RunRequest(cycles=-1),
                RunRequest(cycles=7)]
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch(runs)
        assert [item.ok for item in batch.items] == [True, False, True]
        assert isinstance(batch.failures[0].error, SimulationError)
        assert batch.items[2].result.cycles_run == 7

    def test_picklable_override_runs_in_workers(self, counter_spec):
        runs = [RunRequest(cycles=5, override=stuck_wrapped),
                RunRequest(cycles=5)]
        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert batch.items[0].result.value("count") == 0
        assert batch.items[1].result.value("count") == 5

    def test_unpicklable_request_poisons_only_its_chunk(self, counter_spec):
        runs = [RunRequest(cycles=5, override=lambda n, v, c: v),
                RunRequest(cycles=5)]
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch(runs)
        assert [item.ok for item in batch.items] == [False, True]
        assert batch.failures[0].worker is None  # never reached a worker

    def test_unpicklable_backend_rejected_eagerly(self, counter_spec):
        # a non-built-in backend must pickle; an instance attribute holding
        # a lambda defeats that, and the pool must say so at construction
        backend = CustomCompiledBackend(cache=False)
        backend.unpicklable = lambda: None
        with pytest.raises(ServingError, match="picklable"):
            SimulationPool(counter_spec, backend=backend, executor="process")

    def test_batch_request_form_and_module_level_run_batch(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 4, cycles=10,
                                      backend="compiled")
        batch = run_batch(request, max_workers=2, executor="process")
        assert batch.ok
        assert batch.executor == "process"
        assert batch.pool_size == 2

    def test_closed_process_pool_rejects_submissions(self, counter_spec):
        pool = SimulationPool(counter_spec, executor="process", max_workers=1)
        pool.close()
        with pytest.raises(ServingError):
            pool.run(RunRequest(cycles=1))

    def test_artifact_cache_can_be_disabled(self, counter_spec):
        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=1,
                            artifact_cache=False) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 2)
        assert batch.ok  # workers regenerate code instead of reading disk

    def test_artifact_cache_directory_is_seeded(self, counter_spec, tmp_path):
        disk = DiskCache(tmp_path)
        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=1,
                            artifact_cache=disk) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)])
        assert batch.ok
        # the parent seeded both artifact kinds before any worker started
        assert list(tmp_path.glob("*.ir"))
        assert list(tmp_path.glob("*.py"))


class TestWorkerContext:
    """The worker bootstrap: bind a prepared simulation from the shipped
    program without re-lowering (the pool initializer runs this in every
    worker process; here it is exercised in-process for observability)."""

    def _context(self, spec, backend):
        warm = backend.prepare(spec)
        return worker_context_for(spec, backend, warm, None), warm

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_builtin_backends_ship_by_name(self, counter_spec, backend_name):
        context, warm = self._context(counter_spec,
                                      make_backend(backend_name))
        assert context.backend is None
        assert context.backend_name == backend_name
        assert context.program is warm.program

    def test_bind_reuses_the_shipped_program(self, counter_spec):
        context, warm = self._context(counter_spec, ThreadedBackend())
        prepared = context.bind()
        # no re-lowering: the worker's prepare is a hit on the shipped IR
        assert prepared.program is context.program
        assert prepared.cache_hit

    def test_bind_interpreter_skips_lowering(self, counter_spec):
        context, warm = self._context(
            counter_spec, make_backend("interpreter")
        )
        prepared = context.bind()
        assert prepared.program is context.program
        assert prepared.prepare_seconds == 0.0

    def test_bound_simulation_matches_the_warm_one(self, counter_spec):
        context, warm = self._context(counter_spec, CompiledBackend())
        assert _observables(context.bind().run(cycles=10)) == _observables(
            warm.run(cycles=10)
        )

    def test_context_survives_pickling(self, counter_spec):
        import pickle

        context, _ = self._context(counter_spec, CompiledBackend())
        shipped = pickle.loads(pickle.dumps(context))
        result = shipped.bind().run(cycles=10)
        assert result.value("count") == 2

    def test_custom_picklable_backend_ships_as_instance(self, counter_spec):
        backend = CompiledBackend(cache=False)
        context, _ = self._context(counter_spec, backend)
        # exact built-in type ships by name; a subclass ships pickled
        assert context.backend_name == "compiled"

        custom = CustomCompiledBackend(cache=False)
        warm = custom.prepare(counter_spec)
        context = worker_context_for(counter_spec, custom, warm, None)
        assert context.backend is custom


class TestPerWorkerAggregates:
    def test_items_carry_worker_and_queue_wait(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=2) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 6)
        assert batch.ok
        assert all(item.worker is not None for item in batch.items)
        assert all(item.queue_seconds >= 0.0 for item in batch.items)

    def test_per_worker_rates_cover_every_labelled_item(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=3) as pool:
            batch = pool.run_batch([RunRequest(cycles=50)] * 9)
        rates = batch.per_worker_runs_per_second
        counts = batch.runs_by_worker
        assert set(rates) == set(counts)
        assert sum(counts.values()) == 9
        assert all(rate > 0.0 for rate in rates.values())

    def test_queue_stats_present_and_ordered(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=20)] * 4)
        assert batch.queue_seconds_max >= batch.queue_seconds_mean >= 0.0

    def test_empty_batch_degenerate_aggregates(self):
        from repro.serving import BatchResult

        empty = BatchResult(backend="threaded", pool_size=1)
        assert empty.per_worker_runs_per_second == {}
        assert empty.runs_by_worker == {}
        assert empty.queue_seconds_mean == 0.0
        assert empty.queue_seconds_max == 0.0


class TestAsyncOverStrategies:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_async_run_batch_on_every_strategy(self, counter_spec, executor):
        import asyncio

        from repro.serving import async_run_batch

        request = BatchRequest.repeat(counter_spec, 4, cycles=10)
        batch = asyncio.run(
            async_run_batch(request, max_workers=2, executor=executor)
        )
        assert batch.ok
        assert batch.executor == executor
