"""Multi-dimensional recurrences: batched rows, 2D filters, SATs.

The paper's future work lists "multiple dimensions"; its two image-
processing baselines (Alg3, Rec) exist precisely because 2D recursive
filtering matters.  This module provides that on top of the 1D
machinery:

* :func:`solve_batch` — many independent sequences at once.  The
  algorithm is unchanged; the win is that Phase 1's merges and Phase
  2's carry spine vectorize across the batch (the per-chunk-index loop
  advances *every* row simultaneously), so filtering a 4096-row image
  costs barely more Python overhead than one row.  Rows of different
  lengths are packed into one grid of chunks whose carry spine
  restarts at each row.
* :func:`filter_axis` — apply a recurrence along either axis of a 2D
  array (rows are independent sequences, exactly how Alg3/Rec treat
  scanlines).
* :func:`filter2d` — separable row-then-column filtering, the
  composition Nehab et al. optimize.
* :func:`summed_area_table` — prefix sums along both axes, the classic
  SAT primitive (Hensley et al.; cited in Related Work).

All of it validates against row-/column-wise serial references.
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.core.signature import Signature
from repro.obs.tracer import NULL_TRACER
# phase1 stays importable here: the benchmark's traced run wraps it by
# attribute on this module.
from repro.plr.phase1 import check_integer_coefficients, phase1  # noqa: F401
from repro.plr.planner import ExecutionPlan, plan_execution
from repro.plr.solver import cached_factor_table
from repro.plr.tiled import packed_starts, solve_tiled

__all__ = ["solve_batch", "filter_axis", "filter2d", "summed_area_table"]


def solve_batch(
    values: np.ndarray,
    recurrence: Recurrence | Signature | str,
    dtype: np.dtype | None = None,
    plan: ExecutionPlan | None = None,
    tracer=NULL_TRACER,
    backend: str = "single",
    shard_options=None,
) -> np.ndarray:
    """Compute the recurrence independently over every row of ``values``.

    ``values`` has shape (rows, n); each row is its own sequence with
    its own zero history.  Returns an array of the same shape.  This is
    the vectorized core the batched execution engine
    (:mod:`repro.batch`) builds on, and the same tiled pass
    (:func:`~repro.plr.tiled.solve_tiled`) :class:`~repro.plr.PLRSolver`
    runs as a batch of one: short rows share a tile, so Phase 1 merges
    and the carry spine advance all of them at once.

    ``plan`` overrides the paper's planner (the batch engine passes the
    plan it grouped requests under); ``tracer`` threads an optional
    :class:`~repro.obs.tracer.Tracer` into the phase kernels.

    ``backend="process"`` shards the *batch axis* across a multicore
    pool (:func:`repro.parallel.solve_batch_sharded`): rows are
    independent, so each worker completes its rows end to end with no
    carry exchange; ``shard_options`` tunes the pool.

    ``values`` may instead be a list or tuple of 1-D rows of any
    lengths; a list of outputs comes back.  The plan defaults to the
    longest row's.  The rows are packed into one grid of chunks
    (:func:`~repro.plr.tiled.packed_starts`) and solved in one tiled
    pass whose carry spine restarts at each row, so every output equals
    ``PLRSolver.solve(row, plan=plan)`` bit for bit.  Ragged rows always
    take this single pass; ``backend`` applies to (rows, n) arrays.
    """
    if backend not in ("single", "process"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'single' or 'process'"
        )
    recurrence = Recurrence.coerce(recurrence)
    if isinstance(values, (list, tuple)):
        return _solve_ragged(values, recurrence, dtype, plan, tracer)
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2D (rows, n) array, got shape {values.shape}")
    rows, n = values.shape
    if dtype is None:
        dtype = resolve_dtype(recurrence.signature, values.dtype)
    dtype = np.dtype(dtype)
    if rows == 0 or n == 0:
        return values.astype(dtype)
    check_integer_coefficients(
        recurrence.signature.feedforward + recurrence.signature.feedback, dtype
    )

    if plan is None:
        plan = plan_execution(recurrence.signature, n)
    m = plan.chunk_size
    table = cached_factor_table(recurrence.recursive_signature, m, dtype)

    if backend == "process":
        from repro.parallel.backend import solve_batch_sharded

        chunks = -(-n // m)
        padded = np.zeros((rows, chunks * m), dtype=dtype)
        work = values.astype(dtype, copy=False)
        padded[:, :n] = (
            recurrence.apply_map_stage(work) if recurrence.has_map_stage else work
        )
        corrected = solve_batch_sharded(
            padded, table, plan.values_per_thread, options=shard_options, tracer=tracer
        )
        return corrected.reshape(rows, chunks * m)[:, :n]

    # One tiled pass: each tile holds whole rows or a run of one row's
    # chunks, and the carry spine walks every row of a tile at once.
    out, _ = solve_tiled(
        values, recurrence.signature.feedforward, table, plan.values_per_thread,
        tracer=tracer,
    )
    return out[:, :n]


def ragged_batch(
    values, signature: Signature, dtype=None
) -> tuple[list[np.ndarray], int, np.dtype]:
    """Check a sequence of 1-D rows: the rows as arrays, the longest
    length, and the working dtype (``dtype``, else the one the rows'
    common dtype resolves to)."""
    rows = [np.asarray(row) for row in values]
    if any(row.ndim != 1 for row in rows):
        raise ValueError("expected a sequence of 1D rows")
    if dtype is None:
        source = np.result_type(*{row.dtype for row in rows}) if rows else np.float32
        dtype = resolve_dtype(signature, source)
    return rows, max((row.size for row in rows), default=0), np.dtype(dtype)


def _solve_ragged(
    values, recurrence: Recurrence, dtype, plan, tracer
) -> list[np.ndarray]:
    """:func:`solve_batch` over a sequence of 1-D rows of any lengths."""
    rows, n, dtype = ragged_batch(values, recurrence.signature, dtype)
    if n == 0:
        return [np.zeros(0, dtype=dtype) for _ in rows]
    check_integer_coefficients(
        recurrence.signature.feedforward + recurrence.signature.feedback, dtype
    )
    if plan is None:
        plan = plan_execution(recurrence.signature, n)
    m = plan.chunk_size
    table = cached_factor_table(recurrence.recursive_signature, m, dtype)
    filled = [row for row in rows if row.size]
    starts = packed_starts([row.size for row in filled], m)
    out, _ = solve_tiled(
        filled, recurrence.signature.feedforward, table, plan.values_per_thread,
        tracer=tracer, row_starts=starts,
    )
    offsets = iter(starts)
    outputs = []
    for row in rows:
        start = next(offsets) * m if row.size else 0
        outputs.append(out[0, start : start + row.size])
    return outputs


def filter_axis(
    image: np.ndarray,
    recurrence: Recurrence | Signature | str,
    axis: int = 1,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Apply a recurrence along one axis of a 2D array.

    ``axis=1`` filters each row left to right (the paper's 1D case per
    scanline); ``axis=0`` filters each column top to bottom.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if axis == 1:
        return solve_batch(image, recurrence, dtype=dtype)
    return solve_batch(image.T, recurrence, dtype=dtype).T


def filter2d(
    image: np.ndarray,
    row_recurrence: Recurrence | Signature | str,
    column_recurrence: Recurrence | Signature | str | None = None,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Separable 2D filtering: rows first, then columns.

    With ``column_recurrence`` omitted the same filter runs both ways —
    the symmetric case Alg3/Rec optimize for images.
    """
    if column_recurrence is None:
        column_recurrence = row_recurrence
    horizontal = filter_axis(image, row_recurrence, axis=1, dtype=dtype)
    return filter_axis(horizontal, column_recurrence, axis=0, dtype=dtype)


def summed_area_table(image: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """The summed-area table: SAT[i, j] = sum of image[:i+1, :j+1].

    Two passes of the standard prefix sum — the primitive behind fast
    box filtering (Hensley et al. 2005, cited by the paper).
    """
    return filter2d(image, Signature.prefix_sum(), dtype=dtype)
