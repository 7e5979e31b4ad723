"""Asyncio front-end over :class:`~repro.serving.pool.SimulationPool`.

Async callers (a web handler serving simulation requests, a notebook
driving many experiments) should not block their event loop on a batch.
:func:`async_run_batch` and :func:`async_run` hand the pool's own
``run_batch`` / ``run`` to a worker thread (:func:`asyncio.to_thread`)
and await it, so the loop stays responsive on every strategy — including
``serial`` and ``lane``, which execute inline on whichever thread calls
the pool.

The pool semantics are unchanged — one warm prepare, per-item error
capture, the resilience counters and the per-item trace spans of
:meth:`~repro.serving.pool.SimulationPool.run_batch` — only the waiting
is asynchronous.
"""

from __future__ import annotations

import asyncio

from repro.core.results import SimulationResult
from repro.serving.batch import BatchRequest, BatchResult, RunRequest
from repro.serving.pool import SimulationPool


async def async_run(pool: SimulationPool, request: RunRequest) -> SimulationResult:
    """Await one run on *pool* without blocking the event loop."""
    return await asyncio.to_thread(pool.run, request)


async def async_run_batch(
    request: BatchRequest,
    max_workers: int | None = None,
    pool: SimulationPool | None = None,
    executor: str = "serial",
    chunk_size: int | None = None,
    lane_width: int | None = None,
) -> BatchResult:
    """Run a batch from async code; returns the same :class:`BatchResult`.

    With ``pool=None`` a pool is built for the request's spec, backend and
    *executor* strategy and closed afterwards; pass an open pool to
    amortise it across batches (the request's spec must then match the
    pool's, and the pool's own strategy wins).
    """
    if pool is not None:
        return await asyncio.to_thread(pool.run_batch, request)

    def run_owned() -> BatchResult:
        with SimulationPool(
            request.spec,
            backend=request.backend,
            max_workers=max_workers,
            executor=executor,
            chunk_size=chunk_size,
            lane_width=lane_width,
        ) as owned:
            return owned.run_batch(request)

    return await asyncio.to_thread(run_owned)
