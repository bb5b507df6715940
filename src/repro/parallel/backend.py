"""Multicore sharded execution: shared-memory slabs + affine carry scan.

This module adds the host-side *grid level* to the paper's hierarchy
(warp → block → grid): the ``(num_chunks, m)`` work matrix lives in one
:mod:`multiprocessing.shared_memory` segment, each pool worker owns a
contiguous slab of chunk rows, and the solve runs in two barriered
stages mirroring the paper's two phases:

**Stage A** — every worker runs :func:`~repro.plr.phase1.phase1_inplace`
on its slab view (zero-copy), publishes the slab's local carries into a
second shared segment, and returns the slab's *affine carry summary*
``(M^s, d)``: its exit carries as an affine function of whatever carries
enter it.  **Host scan** — the summaries are combined with a Blelloch
log-depth scan over affine-map composition
(:func:`~repro.parallel.scan.exclusive_affine_scan`); the exclusive
prefix at slab i, applied to the zero initial history, is exactly the
global carries entering slab i.  **Stage B** — every worker propagates
its slab's carries from that base and applies the element-wise
correction in place.

For integer dtypes the wraparound arithmetic is a ring, so the scan's
reassociation is exact and the sharded result is bit-identical to the
single-process solver; floats round differently at slab boundaries and
match within the usual tolerance.

Failure semantics: a worker that dies (broken pool) or stalls past the
:class:`~repro.parallel.sharding.ShardOptions` timeout raises
:class:`~repro.core.errors.WorkerError`; the shared buffers are always
unlinked, and no partial output ever escapes.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np

from repro.core.errors import WorkerError
from repro.obs.context import TraceContext
from repro.obs.tracer import NULL_TRACER, Tracer, coerce_tracer, merge_worker_events
from repro.plr.factors import CorrectionFactorTable
from repro.plr.phase1 import phase1_inplace
from repro.plr.phase2 import (
    add_carry_products,
    local_carries,
    phase2,
    propagate_carries,
    transition_matrix,
)

from repro.parallel.sharding import ShardOptions, resolve_workers, slab_spans

__all__ = ["solve_sharded"]


def _pool_context():
    """Fork when available (cheap, inherits numpy), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context("spawn")


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a host-created segment.

    Fork-context workers share the host's resource-tracker process, and
    its registry is a set — the worker's attach-time re-register is
    idempotent and the host's ``unlink()`` clears the one entry, so no
    per-worker unregister bookkeeping is needed (an explicit unregister
    here would race the host's unlink and double-remove the name).
    """
    return shared_memory.SharedMemory(name=name)


def _maybe_inject(inject: str | None, slab_index: int) -> None:
    """Test-only fault hook: slab 0's stage-A worker dies or hangs."""
    if inject is None or slab_index != 0:
        return
    if inject == "die":
        os._exit(13)
    if inject == "hang":
        time.sleep(3600)


def _slab_context(context_wire: dict | None) -> TraceContext | None:
    """Rehydrate the slab's trace context shipped across the pool.

    Contexts cross the process boundary in wire (dict) form — the same
    form they cross sockets in — so a worker's spans carry the request's
    trace_id and parent to the host-side stage span, and
    :func:`~repro.obs.tracer.merge_worker_events` stitches the lanes
    back into one request tree.
    """
    if context_wire is None:
        return None
    return TraceContext.from_wire(context_wire)


def _phase1_slab_task(
    work_name: str,
    carries_name: str,
    shape: tuple[int, int],
    dtype_str: str,
    span: tuple[int, int],
    slab_index: int,
    table: CorrectionFactorTable,
    x: int,
    trace: bool,
    inject: str | None,
    context_wire: dict | None = None,
):
    """Stage A, in a worker: Phase 1 on the slab + its affine summary.

    Returns ``(slab_index, power, exit_carries, events)`` where
    ``power = M^s`` and ``exit_carries`` are the slab's last global
    carries under zero entering history — together the slab's affine map
    ``G_exit = power @ G_in + exit_carries``.
    """
    _maybe_inject(inject, slab_index)
    tracer = Tracer() if trace else NULL_TRACER
    slab_ctx = _slab_context(context_wire)
    dtype = np.dtype(dtype_str)
    start, stop = span
    work_shm = _attach(work_name)
    carries_shm = _attach(carries_name)
    try:
        work = np.ndarray(shape, dtype=dtype, buffer=work_shm.buf)
        carries = np.ndarray(
            (shape[0], table.order), dtype=dtype, buffer=carries_shm.buf
        )
        slab = work[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            with tracer.span(
                "phase1_slab",
                cat="parallel",
                args={"slab": slab_index, "rows": stop - start},
                link=slab_ctx,
            ):
                phase1_inplace(slab, table, x, tracer=tracer)
            matrix = transition_matrix(table)
            locals_ = local_carries(slab, table.order)
            carries[start:stop] = locals_
            with tracer.span(
                "slab_summary",
                cat="parallel",
                args={"slab": slab_index},
                link=slab_ctx.child() if slab_ctx is not None else None,
            ):
                power = np.linalg.matrix_power(matrix, stop - start)
                exit_carries = propagate_carries(np.asarray(carries[start:stop]), matrix)[-1].copy()
        events = list(tracer.events)
        work = None
        carries = None
        slab = None
        locals_ = None
        return slab_index, power, exit_carries, events
    finally:
        work_shm.close()
        carries_shm.close()


def _phase2_slab_task(
    work_name: str,
    carries_name: str,
    shape: tuple[int, int],
    dtype_str: str,
    span: tuple[int, int],
    slab_index: int,
    table: CorrectionFactorTable,
    base: np.ndarray | None,
    trace: bool,
    context_wire: dict | None = None,
):
    """Stage B, in a worker: propagate from the scanned base and correct.

    ``base`` is the global carries entering the slab (None for slab 0,
    which has no history — keeping its arithmetic bit-identical to the
    serial spine).  The correction runs in place on the shared slab.
    """
    tracer = Tracer() if trace else NULL_TRACER
    slab_ctx = _slab_context(context_wire)
    dtype = np.dtype(dtype_str)
    start, stop = span
    work_shm = _attach(work_name)
    carries_shm = _attach(carries_name)
    try:
        work = np.ndarray(shape, dtype=dtype, buffer=work_shm.buf)
        carries = np.ndarray(
            (shape[0], table.order), dtype=dtype, buffer=carries_shm.buf
        )
        slab = work[start:stop]
        locals_ = np.asarray(carries[start:stop])
        matrix = transition_matrix(table)
        with np.errstate(over="ignore", invalid="ignore"):
            with tracer.span(
                "phase2_slab",
                cat="parallel",
                args={"slab": slab_index, "rows": stop - start},
                link=slab_ctx,
            ):
                global_ = propagate_carries(locals_, matrix, base=base)
                if base is None:
                    # First slab: chunk 0 is already globally correct.
                    if stop - start > 1:
                        add_carry_products(
                            slab[1:], global_[:-1], table.live_factors, table.unit_rows
                        )
                else:
                    prev = np.concatenate([base[None, :], global_[:-1]])
                    add_carry_products(slab, prev, table.live_factors, table.unit_rows)
        events = list(tracer.events)
        work = None
        carries = None
        slab = None
        return slab_index, events
    finally:
        work_shm.close()
        carries_shm.close()


class _ShmPair:
    """Host-owned shared segments with exception-safe teardown."""

    def __init__(self, sizes: list[int]) -> None:
        self.segments = [
            shared_memory.SharedMemory(create=True, size=max(1, size))
            for size in sizes
        ]

    def close(self) -> None:
        for shm in self.segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _collect(futures: dict, timeout_s: float, stage: str) -> list:
    """Gather worker results, translating pool failures to WorkerError.

    One deadline covers the whole stage: workers run concurrently, so a
    per-future budget would multiply the wait for a wedged pool.
    """
    deadline = time.monotonic() + timeout_s
    results = []
    for future, slab_index in futures.items():
        remaining = deadline - time.monotonic()
        try:
            results.append(future.result(timeout=max(0.001, remaining)))
        except concurrent.futures.process.BrokenProcessPool as exc:
            raise WorkerError(
                f"worker for slab {slab_index} died during {stage} "
                f"(process pool broken)"
            ) from exc
        except concurrent.futures.TimeoutError as exc:
            raise WorkerError(
                f"worker for slab {slab_index} did not finish {stage} "
                f"within {timeout_s:.1f}s"
            ) from exc
    return results


def _shutdown(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear the pool down without waiting on wedged workers.

    The process handles must be captured *before* ``shutdown`` — it
    drops ``pool._processes`` when ``wait=False`` — and a wedged worker
    never reads its exit sentinel, so it is killed outright.  The
    executor's management thread sees the death, marks the pool broken,
    and cleans itself up; without the kill the interpreter would block
    forever joining that thread at exit.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass


def solve_sharded(
    padded: np.ndarray,
    table: CorrectionFactorTable,
    x: int,
    options: ShardOptions | None = None,
    tracer=NULL_TRACER,
    context: TraceContext | None = None,
) -> np.ndarray:
    """Run both phases over a padded 1D input across a process pool.

    ``padded`` is the post-map-stage input, already zero-padded to a
    whole number of chunks (exactly what :func:`~repro.plr.phase1.phase1`
    accepts).  Returns the fully corrected ``(num_chunks, m)`` result as
    an ordinary array; the shared segments are unlinked before return,
    success or failure.

    With one slab (or one usable worker) the solve runs inline in this
    process — same arithmetic, no pool overhead.

    ``context`` names the owning request's trace: stage spans become its
    children and each slab submission carries a wire-encoded child
    context across the process boundary, so the merged worker lanes
    reconnect to one parent-linked tree.
    """
    options = options or ShardOptions()
    tracer = coerce_tracer(tracer)
    m = table.chunk_size
    if padded.ndim != 1 or padded.size % m:
        raise ValueError(
            f"expected a padded 1D input with length a multiple of m={m}, "
            f"got shape {padded.shape}"
        )
    num_chunks = padded.size // m
    spans = slab_spans(num_chunks, resolve_workers(options.workers, num_chunks))
    if len(spans) <= 1:
        work = padded.reshape(-1, m).copy()
        phase1_inplace(work, table, x, tracer=tracer)
        return phase2(work, table, tracer=tracer, out=work)

    k = table.order
    dtype = padded.dtype
    shms = _ShmPair(
        [num_chunks * m * dtype.itemsize, num_chunks * k * dtype.itemsize]
    )
    work_shm, carries_shm = shms.segments
    work = np.ndarray((num_chunks, m), dtype=dtype, buffer=work_shm.buf)
    np.copyto(work, padded.reshape(num_chunks, m))

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=len(spans), mp_context=_pool_context()
    )
    trace = tracer.enabled
    try:
        p1_ctx = context.child() if context is not None else None
        with tracer.span(
            "phase1_shards",
            cat="parallel",
            args={"slabs": len(spans)},
            link=p1_ctx,
        ):
            futures = {
                pool.submit(
                    _phase1_slab_task,
                    work_shm.name,
                    carries_shm.name,
                    (num_chunks, m),
                    dtype.str,
                    span,
                    i,
                    table,
                    x,
                    trace,
                    options.inject,
                    p1_ctx.child().to_wire() if p1_ctx is not None else None,
                ): i
                for i, span in enumerate(spans)
            }
            summaries: list = [None] * len(spans)
            for slab_index, power, exit_carries, events in _collect(
                futures, options.timeout_s, "phase 1"
            ):
                summaries[slab_index] = (power, exit_carries)
                merge_worker_events(tracer, slab_index, events)

        with tracer.span(
            "carry_scan",
            cat="parallel",
            args={"slabs": len(spans)},
            link=context.child() if context is not None else None,
        ):
            from repro.parallel.scan import exclusive_affine_scan

            prefixes = exclusive_affine_scan(summaries, k, dtype)
            # Initial history is zero, so the carries entering slab i are
            # the b-component of the exclusive prefix map.
            bases = [b for _, b in prefixes]

        p2_ctx = context.child() if context is not None else None
        with tracer.span(
            "phase2_shards",
            cat="parallel",
            args={"slabs": len(spans)},
            link=p2_ctx,
        ):
            futures = {
                pool.submit(
                    _phase2_slab_task,
                    work_shm.name,
                    carries_shm.name,
                    (num_chunks, m),
                    dtype.str,
                    span,
                    i,
                    table,
                    None if i == 0 else bases[i],
                    trace,
                    p2_ctx.child().to_wire() if p2_ctx is not None else None,
                ): i
                for i, span in enumerate(spans)
            }
            for slab_index, events in _collect(futures, options.timeout_s, "phase 2"):
                merge_worker_events(tracer, slab_index, events)

        return np.array(work, copy=True)
    finally:
        _shutdown(pool)
        work = None
        shms.close()

