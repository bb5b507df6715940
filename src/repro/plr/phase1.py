"""Phase 1: hierarchical pairwise chunk merging (Section 2.1).

Phase 1 turns each size-m chunk of the input into the locally correct
recurrence result (correct under the assumption that everything before
the chunk is zero).  It mirrors the generated CUDA code's structure:

1. *Thread-local step* — each thread solves its x consecutive values
   serially (a chunk of size x is trivially correct on its own).  On
   the GPU this is in-register work; here it is one vectorized sweep
   across all threads at once, run lane-major (see
   :func:`phase1_inplace`) so the sweep walks long contiguous vectors.
2. *Doubling steps* — chunk widths x, 2x, 4x, ..., m/2 are merged
   pairwise.  The second chunk of each pair is corrected by adding, for
   each carry j, ``factors[j][i] * carry_j`` to its element at offset
   i.  The first log2(warp_size) of these levels correspond to shuffle
   exchanges, the rest to shared-memory exchanges; the arithmetic is
   identical, which is what makes the approach hierarchical.

The key invariant (tested directly): after the level that produces
chunks of width w, the first w outputs of every chunk-aligned window
are final, and in particular the first w outputs of the whole sequence
equal the serial reference.

Integer prefix families — prefix, tuple and higher-order prefix sums,
whose recursion factors as a product of ``(1 - z^s)`` — skip both steps
on a CPU: each chunk gets one running sum per factor, which integer
wraparound makes exactly equal to the merged result.  This is the
paper's specialization by table structure (§3.1) applied to the whole
chunk rather than to one factor row.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NumericalError
from repro.obs.tracer import NULL_TRACER
from repro.plr.factors import CorrectionFactorTable
from repro.plr.phase2 import TILE_BYTES

__all__ = [
    "thread_local_solve",
    "merge_level",
    "phase1",
    "phase1_inplace",
    "phase1_scratch",
    "running_sum",
    "lane_width",
    "doubling_widths",
    "check_integer_coefficients",
]


def check_integer_coefficients(coefficients, dtype: np.dtype) -> None:
    """Reject lossy coefficient casts before they corrupt a solve.

    Casting a fractional coefficient (``b = 0.5``) to an integer working
    dtype silently truncates it to 0, turning the recurrence into a
    different one without any error.  Integral-valued floats (``2.0``)
    cast losslessly and are allowed.  Raises
    :class:`~repro.core.errors.NumericalError` so callers (and the
    resilience chain) see a typed failure instead of corrupt output.
    """
    if not np.issubdtype(np.dtype(dtype), np.integer):
        return
    lossy = [c for c in coefficients if float(c) != int(c)]
    if lossy:
        raise NumericalError(
            f"coefficients {lossy} are fractional and cannot be computed in "
            f"{np.dtype(dtype).name} arithmetic without truncation; solve in "
            f"a floating-point dtype instead"
        )


def thread_local_solve(
    chunks: np.ndarray, feedback: list, x: int, scratch: np.ndarray | None = None
) -> None:
    """Solve each width-x thread chunk serially, in place.

    ``chunks`` has shape (num_threads, x), or (num_threads, x, L) with a
    trailing lane axis of L independent chunk sets (the lane-major
    layout :func:`phase1_inplace` uses).  Column i receives
    ``sum_j b_j * column[i-j]`` for the in-chunk history only.  The loop
    runs over x (small: <= 11) and k, vectorized over all threads and
    lanes.

    The inner accumulation reuses one scratch column via
    ``np.multiply(..., out=)`` instead of building a fresh
    ``coeff * column`` array per (i, j) step — same values in the same
    order (bit-identical; pinned by the Phase 1 invariant tests), but
    no temporary churn in the hottest loop of the thread-local stage.
    A coefficient of 1 (prefix sums) adds the column without the
    multiply, which is exact.  ``scratch`` optionally supplies the
    column's storage: a flat buffer of at least ``chunks.size // x``
    elements.
    """
    k = len(feedback)
    if np.issubdtype(chunks.dtype, np.integer):
        coeffs = [np.asarray(b, dtype=chunks.dtype) for b in feedback]
    else:
        coeffs = [chunks.dtype.type(b) for b in feedback]
    column_shape = chunks.shape[:1] + chunks.shape[2:]
    if scratch is None:
        column_scratch = np.empty(column_shape, dtype=chunks.dtype)
    else:
        column_scratch = scratch[: chunks.size // x].reshape(column_shape)
    for i in range(1, x):
        column = chunks[:, i]
        for j in range(1, min(i, k) + 1):
            if coeffs[j - 1] == 1:
                column += chunks[:, i - j]
                continue
            np.multiply(chunks[:, i - j], coeffs[j - 1], out=column_scratch)
            column += column_scratch


def merge_level(
    pairs: np.ndarray,
    table: CorrectionFactorTable,
    width: int,
    scratch: np.ndarray | None = None,
) -> None:
    """Merge adjacent chunk pairs of the given width, in place.

    ``pairs`` has shape (num_pairs, 2*width), or (num_pairs, 2*width, L)
    with a trailing lane axis.  For each carry j that actually exists
    at this width (the paper's term-suppression optimization: carry
    w[width-1-j] only exists when j < width), the second half gets
    ``factors[j][i] * carry_j`` added at offset i.  The factor rows come
    from :meth:`~repro.plr.factors.CorrectionFactorTable.rows_for_width`,
    cut at their exact-zero tails, so only the columns they cover are
    touched; an all-ones row (the table's ``unit_rows``) adds its carry
    without a multiply.
    ``scratch`` optionally supplies the products' storage: a flat buffer
    of at least ``pairs.size // 2`` elements.
    """
    second = pairs[:, width:]
    lanes = pairs.ndim == 3
    units = table.unit_rows
    for j, factor_row in enumerate(table.rows_for_width(width)):
        if factor_row.size == 0:
            continue
        carry = pairs[:, width - 1 - j, None]
        target = second[:, : factor_row.size]
        if units[j]:
            target += carry
            continue
        factor = factor_row[:, None] if lanes else factor_row
        if scratch is None:
            target += factor * carry
        else:
            product = scratch[: target.size].reshape(target.shape)
            np.multiply(factor, carry, out=product)
            target += product


def doubling_widths(x: int, chunk_size: int) -> list[int]:
    """The sequence of pair widths Phase 1 merges: x, 2x, ..., m/2.

    ``chunk_size`` must be x times a power of two; this is guaranteed by
    the planner (m = 1024 * x) and validated here.
    """
    widths = []
    width = x
    while width < chunk_size:
        widths.append(width)
        width *= 2
    if width != chunk_size:
        raise ValueError(
            f"chunk size {chunk_size} is not x={x} times a power of two"
        )
    return widths


LANE_WORDS = 64
"""Lower bound on the lane-major segment width W0, in words; see
:func:`lane_width`."""


def lane_width(x: int, chunk_size: int) -> int:
    """W0: the smallest ``x * 2^j`` of at least :data:`LANE_WORDS` words,
    capped at the chunk size.

    Phase 1 runs the widths below W0 with each W0-word segment
    transposed onto a contiguous lane axis (see :func:`phase1_inplace`).
    W0 is sized in words, not as a number of x-word threads: 8 threads
    made it 8 words at x = 1, where the 8-word merge then walked 8-word
    runs in the natural layout.  A wider W0 moves more levels onto the
    lanes, but numpy's transposed copies get slower as it grows.  On
    1 MiB tiles at m = 1024, x = 1 (2-vCPU x86_64), 64 words against 8
    cut float32 filters from 17-19 to about 9.5 ns/word; float64 was
    level within noise from 32 to 128 words.  W0 is a multiple of x
    that divides any chunk size x * 2^L.
    """
    width = x
    while width < LANE_WORDS:
        width *= 2
    return min(width, chunk_size)


def phase1_scratch(words: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The two flat buffers :func:`phase1_inplace` works in.

    The first holds the lane-major copy of a block and, once that is
    copied back, the wide levels' products; the second holds the
    narrow levels' products.  ``words`` (a whole number of chunks)
    bounds the block size.  Between Phase 1 calls the first buffer is
    free, so the tiled pass also forms its fill and correction products
    there.
    """
    return np.empty(words, dtype=dtype), np.empty(words, dtype=dtype)


def phase1_inplace(
    work: np.ndarray,
    table: CorrectionFactorTable,
    x: int,
    tracer=NULL_TRACER,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Run Phase 1 over a ``(num_chunks, m)`` chunk matrix, in place.

    The zero-copy core shared by :func:`phase1` (which copies first to
    keep its input pristine), the tiled pass
    (:mod:`repro.plr.tiled`) and the multicore backend
    (:mod:`repro.parallel`), whose workers call this directly on their
    shared-memory slab views — each chunk row is independent, so any
    contiguous row range is a valid unit of work.  ``work`` must be a
    C-contiguous 2D buffer whose row length equals the table's chunk
    size; it is overwritten with the locally correct partial result.

    The matrix is processed in blocks of whole chunks of at most
    :data:`~repro.plr.phase2.TILE_BYTES`, so every level of a block
    runs in cache.  An integer table whose recursion is a product of
    running sums (its
    :attr:`~repro.plr.factors.CorrectionFactorTable.running_sum_strides`)
    takes no merges at all: each block gets one in-place
    :func:`running_sum` per stride, which wraps in the integer ring
    exactly as the merges would, and x plays no part.  Every other
    table runs the merge tree.  Within a block, the levels narrower
    than W0 (:func:`lane_width`) — the thread-local step and the first
    merges, whose rows are a few words long — run on a transposed copy
    in which word i of every W0-word segment lies on one contiguous
    lane, so each broadcast walks long vectors instead of thousands of
    short runs.  The block is then copied back for the levels from W0
    to m/2.  Both layouts apply the same factors in the same order, so
    the result equals the natural-layout composition bit for bit,
    except where the merges skip factors that
    :meth:`~repro.plr.factors.CorrectionFactorTable.rows_for_width`
    proves are exactly zero: there the sign of a zero can differ, and a
    non-finite carry no longer turns ``0 * inf`` into NaN (the batch
    engine and ``ResilientSolver`` route non-finite inputs to the
    serial path).

    ``scratch`` is a :func:`phase1_scratch` pair the caller reuses;
    its size sets the block.  Without it, the merge tree allocates one
    pair per call.  With an enabled ``tracer``, each block emits one
    ``running_sum`` span per stride, or one ``thread_local_solve`` span
    (for x > 1) and one ``merge_level`` span per width (cat ``phase1``)
    recording the width and how many pairs merged.
    """
    m = table.chunk_size
    if work.ndim != 2 or work.shape[1] != m:
        raise ValueError(
            f"expected a (num_chunks, {m}) chunk matrix, got shape {work.shape}"
        )
    num_chunks = work.shape[0]
    if num_chunks == 0:
        return
    widths = doubling_widths(x, m)
    strides = table.running_sum_strides
    if scratch is not None:
        block = scratch[0].size // m
    else:
        block = min(num_chunks, max(1, TILE_BYTES // (m * work.itemsize)))
        if strides is None:
            scratch = phase1_scratch(block * m, work.dtype)
    feedback = [
        b if isinstance(b, int) else float(b) for b in table.signature.feedback
    ]
    for start in range(0, num_chunks, block):
        chunks = work[start : start + block]
        if strides is None:
            _phase1_block(chunks, table, x, feedback, widths, tracer, scratch)
            continue
        for stride in strides:
            with tracer.span(
                "running_sum",
                cat="phase1",
                args={"stride": stride} if tracer.enabled else None,
            ):
                running_sum(chunks, stride)


def running_sum(work: np.ndarray, stride: int) -> None:
    """``y[i] = v[i] + y[i - stride]`` along every chunk, in place.

    ``work`` is a ``(num_chunks, m)`` chunk matrix and every chunk
    starts from a zero history.  One ``np.add.accumulate`` runs over a
    ``(num_chunks, m/stride, stride)`` view when the stride divides m;
    any other stride accumulates each of its residue classes
    ``work[:, r::stride]`` in turn.
    """
    num_chunks, m = work.shape
    if m % stride == 0:
        views = [work.reshape(num_chunks, m // stride, stride)]
    else:
        views = [work[:, r::stride] for r in range(stride)]
    for view in views:
        np.add.accumulate(view, axis=1, out=view)


def _phase1_block(work, table, x, feedback, widths, tracer, scratch) -> None:
    """Phase 1 on one cache-sized block of chunks; see :func:`phase1_inplace`."""
    lane_buffer, products = scratch
    size = work.size
    w0 = lane_width(x, table.chunk_size)
    segments = work.reshape(size // w0, w0)
    lanes = lane_buffer[:size].reshape(w0, size // w0)
    np.copyto(lanes, segments.T)
    if x > 1:
        with tracer.span(
            "thread_local_solve", cat="phase1", args={"x": x} if tracer.enabled else None
        ):
            thread_local_solve(lanes.reshape(w0 // x, x, -1), feedback, x, products)
    narrow = [width for width in widths if width < w0]
    for width in narrow:
        pairs = lanes.reshape(w0 // (2 * width), 2 * width, -1)
        _merge(pairs, table, width, size, products, tracer)
    np.copyto(segments, lanes.T)
    # The lane copy is dead now: its buffer takes the wide levels'
    # products, so they share cache with the block alone.
    for width in widths[len(narrow) :]:
        pairs = work.reshape(size // (2 * width), 2 * width)
        _merge(pairs, table, width, size, lane_buffer, tracer)


def _merge(pairs, table, width, size, products, tracer) -> None:
    """One :func:`merge_level`, in a span when tracing."""
    if not tracer.enabled:
        merge_level(pairs, table, width, products)
        return
    with tracer.span(
        "merge_level", cat="phase1", args={"width": width, "pairs": size // (2 * width)}
    ):
        merge_level(pairs, table, width, products)


def phase1(
    padded: np.ndarray,
    table: CorrectionFactorTable,
    x: int,
    tracer=NULL_TRACER,
) -> np.ndarray:
    """Run Phase 1 over all chunks; returns the (num_chunks, m) partial.

    ``padded`` is the input after the map stage, zero-padded to a whole
    number of chunks, flattened.  The result is locally correct within
    each chunk; the last k columns are the *local carries* Phase 2
    consumes.  The input array is not modified.

    ``padded`` may also be a 2D ``(B, padded_n)`` batch of independent
    sequences sharing one signature; the result is then
    ``(B, num_chunks, m)``.  Phase 1 never mixes data across chunk
    borders, so the batch rows' chunks are processed as one flat chunk
    axis — the per-chunk arithmetic is bit-identical to B separate 1D
    calls, with the Python-level dispatch paid once.

    With an enabled ``tracer``, the thread-local solve and every
    merge-doubling level emit one span each (cat ``phase1``), recording
    the pair width and how many pairs merged — the numpy mirror of the
    simulator's per-block ``merge`` events.  A running-sum table emits
    one ``running_sum`` span per stride instead.
    """
    m = table.chunk_size
    if padded.ndim not in (1, 2):
        raise ValueError(f"expected a 1D or 2D (batch) input, got shape {padded.shape}")
    if padded.shape[-1] % m:
        raise ValueError(
            f"padded length {padded.shape[-1]} is not a multiple of m={m}"
        )
    check_integer_coefficients(table.signature.feedback, padded.dtype)
    batched = padded.ndim == 2
    work = padded.reshape(-1, m).copy()
    phase1_inplace(work, table, x, tracer=tracer)
    if batched:
        return work.reshape(padded.shape[0], -1, m)
    return work
