"""Multi-dimensional recurrences: batched rows, 2D filters, SATs.

The paper's future work lists "multiple dimensions"; its two image-
processing baselines (Alg3, Rec) exist precisely because 2D recursive
filtering matters.  This module provides that on top of the 1D
machinery:

* :func:`solve_batch` — many independent sequences at once.  The
  algorithm is unchanged; the win is that Phase 1 and Phase 2's
  carry spine vectorize across the batch (the per-chunk-index loop
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
from repro.core.signature import Signature
from repro.obs.tracer import NULL_TRACER
# phase1, plan_execution and cached_factor_table stay importable here:
# the benchmark's traced run wraps them by attribute on this module.
from repro.plr.phase1 import phase1  # noqa: F401
from repro.plr.planner import ExecutionPlan, plan_execution  # noqa: F401
from repro.plr.solver import cached_factor_table  # noqa: F401
from repro.plr.solver import check_backend, check_batch, prepare

__all__ = ["solve_batch", "filter_axis", "filter2d", "summed_area_table"]


def solve_batch(
    values: np.ndarray,
    recurrence: Recurrence | Signature | str,
    dtype: np.dtype | None = None,
    plan: ExecutionPlan | None = None,
    tracer=NULL_TRACER,
    backend: str = "single",
) -> np.ndarray:
    """Compute the recurrence independently over every row of ``values``.

    ``values`` has shape (rows, n); each row is its own sequence with
    its own zero history.  Returns an array of the same shape.  This is
    the vectorized core the batched execution engine
    (:mod:`repro.batch`) builds on, and the same tiled pass
    (:func:`~repro.plr.tiled.solve_tiled`) :class:`~repro.plr.PLRSolver`
    runs as a batch of one: short rows share a tile, so Phase 1 and the
    carry spine advance all of them at once.

    ``plan`` overrides the paper's planner (the batch engine passes the
    plan it grouped requests under); ``tracer`` threads an optional
    :class:`~repro.obs.tracer.Tracer` into the phase kernels.

    ``backend`` takes every name in
    :data:`~repro.plr.solver.SOLVE_BACKENDS`, as the other entry points
    do (:func:`~repro.plr.solver.prepare`).  ``"process"`` runs the
    same in-process pass as ``"single"``: only a 1-D solve shards.
    ``"native"`` runs each row through the compiled kernel and degrades
    to the single backend when none can be built.

    ``values`` may instead be a list or tuple of 1-D rows of any
    lengths; a list of outputs comes back.  The plan defaults to the
    longest row's.  The rows are packed into one grid of chunks
    (:func:`~repro.plr.tiled.packed_starts`) and solved in one tiled
    pass whose carry spine restarts at each row, so every output equals
    ``PLRSolver.solve(row, plan=plan)`` bit for bit.
    """
    check_backend(backend)
    recurrence = Recurrence.coerce(recurrence)
    values, rows, n, dtype = check_batch(values, recurrence.signature, dtype)
    if rows == 0 or n == 0:
        if isinstance(values, list):
            return [np.zeros(0, dtype=dtype) for _ in values]
        return values.astype(dtype)
    handle = prepare(recurrence, n, dtype, backend, plan)
    return handle(values, tracer)[0]


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
