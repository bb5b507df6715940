"""Phase 1: hierarchical pairwise chunk merging (Section 2.1).

Phase 1 turns each size-m chunk of the input into the locally correct
recurrence result (correct under the assumption that everything before
the chunk is zero).  The generated CUDA code does this in two steps,
and so does this module for a general integer table:

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

Two table structures take other routes on a CPU, each the paper's
specialization by table structure (§3.1) applied to the whole chunk:

* Integer prefix families — prefix, tuple and higher-order prefix sums,
  whose recursion factors as a product of ``(1 - z^s)`` — get one
  running sum per factor, which integer wraparound makes exactly equal
  to the merged result.
* Float tables get every merge level below a W-word segment in one
  matrix product with the n-nacci Toeplitz matrix, and the levels
  above it as an affine scan over the segments' carries
  (:func:`segment_solve`).  The factors are the same, but the sums are
  associated differently, so float results differ from the merge tree
  within rounding (Section 5's tolerance), not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import NumericalError
from repro.obs.tracer import NULL_TRACER
from repro.plr.factors import CorrectionFactorTable, working_coefficients
from repro.plr.phase2 import TILE_BYTES

__all__ = [
    "thread_local_solve",
    "merge_level",
    "phase1",
    "phase1_inplace",
    "phase1_scratch",
    "running_sum",
    "segment_solve",
    "segment_carries",
    "segment_width",
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
    coeffs = working_coefficients(feedback, chunks.dtype)
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

    For a float table the first holds a block's segment products and
    the second its carry corrections (:func:`segment_solve`); for the
    merge tree the first holds the lane-major copy of a block and, once
    that is copied back, the wide levels' products, and the second the
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
    :data:`~repro.plr.phase2.TILE_BYTES`, so every step of a block runs
    in cache.  Each table takes one of three routes, and x plays a part
    in the merge tree only:

    * An integer table whose recursion is a product of running sums
      (its
      :attr:`~repro.plr.factors.CorrectionFactorTable.running_sum_strides`)
      gets one in-place :func:`running_sum` per stride, which wraps in
      the integer ring exactly as the merges would.
    * A float table runs :func:`segment_solve`: per chunk, one matrix
      product solves every :func:`segment_width`-word segment and an
      affine scan joins them.  Every product has a per-chunk shape
      fixed by the table and the scan is elementwise, so a chunk's
      result does not depend on how many chunks share the call.  A
      chunk holding a non-finite word (or overflowing) is left to the
      merge tree instead, which keeps the word from reaching the words
      before it.
    * Every other (integer) table runs the merge tree.  Within a block,
      the levels narrower than W0 (:func:`lane_width`) — the
      thread-local step and the first merges, whose rows are a few
      words long — run on a transposed copy in which word i of every
      W0-word segment lies on one contiguous lane, so each broadcast
      walks long vectors instead of thousands of short runs.  The block
      is then copied back for the levels from W0 to m/2.  Both layouts
      apply the same factors in the same order, and integer addition
      wraps exactly, so the result equals the natural-layout
      composition bit for bit.

    ``scratch`` is a :func:`phase1_scratch` pair the caller reuses;
    its size sets the block.  Without it, the float and merge-tree
    routes allocate one pair per call.  With an enabled ``tracer``,
    each block emits one ``running_sum`` span per stride, one
    ``segment_solve`` span (args: the segment width and how many
    segments the block holds), or one ``thread_local_solve`` span (for
    x > 1) and one ``merge_level`` span per width recording the width
    and how many pairs merged; all have cat ``phase1``.
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
    floating = not np.issubdtype(work.dtype, np.integer)
    width = segment_width(m, table.order)
    for start in range(0, num_chunks, block):
        chunks = work[start : start + block]
        if floating:
            with tracer.span(
                "segment_solve",
                cat="phase1",
                args={"width": width, "segments": chunks.size // width}
                if tracer.enabled
                else None,
            ):
                unsolved = segment_solve(chunks, table, width, scratch)
            if unsolved is not None:
                rows = chunks[unsolved]
                _phase1_block(rows, table, x, feedback, widths, tracer, scratch)
                chunks[unsolved] = rows
        elif strides is None:
            _phase1_block(chunks, table, x, feedback, widths, tracer, scratch)
        else:
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


SEGMENT_WORDS = 64
"""The segment width :func:`segment_solve` aims for, in words; see
:func:`segment_width`."""


def segment_width(chunk_size: int, order: int) -> int:
    """W: the width of the segments :func:`segment_solve` cuts a chunk
    into, ``gcd(m, 64)``, or the whole chunk when that is below the
    order k (a segment must hold its k carries).

    Every plan's chunk size is 1024 * x, so W is 64 words.  A wider
    segment moves more of the work into the Toeplitz product, whose
    cost grows with W per word, and a narrower one moves it into the
    carry scan and the corrections.
    """
    width = math.gcd(chunk_size, SEGMENT_WORDS)
    return width if width >= order else chunk_size


def segment_solve(
    work: np.ndarray,
    table: CorrectionFactorTable,
    width: int,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray | None:
    """Phase 1 of a float ``(C, m)`` chunk matrix as matrix products, in place.

    Each chunk is cut into S = m / ``width`` segments of W words:

    1. Every segment is solved from a zero history in one stacked
       product of the ``(C, S, W)`` view with the table's
       :meth:`~repro.plr.factors.CorrectionFactorTable.toeplitz` matrix
       U, ``U[j, i] = h[i - j]`` for the impulse response h: the merge
       levels below W, at once.
    2. The segments' carries are joined within each chunk,
       ``G_s = L_s + M G_{s-1}`` with ``G_0 = L_0``, by
       :func:`segment_carries`.
    3. Every segment s >= 1 gains ``G_{s-1} @ factors[:, :W]``, a second
       stacked product — Phase 2's correction, inside the chunk.

    Each product runs per chunk with a shape the table fixes, so a
    chunk's bits do not depend on how many chunks share the call.
    ``scratch`` is a :func:`phase1_scratch` pair of at least
    ``work.size`` words each; without it one is allocated.

    Returns None when every chunk is solved, else the indices of the
    chunks left unsolved, their input intact: those whose carries are
    not finite.  A non-finite word reaches its
    segment's last word (U's last column multiplies every word, and
    ``0 * inf`` is NaN), so it always shows there; but the zeros below
    U's diagonal also carry it to the words *before* it in its segment,
    which the merge tree (:func:`phase1_inplace`) does not do.
    """
    num_chunks, m = work.shape
    segments = m // width
    source = work.reshape(num_chunks, segments, width)
    if scratch is None:
        scratch = phase1_scratch(work.size, work.dtype)
    solved = scratch[0][: work.size].reshape(source.shape)
    np.matmul(source, table.toeplitz(width), out=solved)
    carries = segment_carries(solved, table)
    # The scan carries any non-finite carry of a chunk into its last one.
    finite = np.isfinite(carries[:, -1])
    unsolved = None if finite.all() else np.flatnonzero(~finite.all(axis=0))
    inputs = None if unsolved is None else work[unsolved]
    # prev[c, s] = G_s of chunk c, for the segments s + 1 it corrects.
    prev = carries[:, :-1].transpose(2, 1, 0)
    corrections = scratch[1][: num_chunks * (segments - 1) * width]
    corrections = corrections.reshape(num_chunks, segments - 1, width)
    if table.order == 1:
        np.multiply(prev, table.factors[0, :width], out=corrections)
    else:
        np.matmul(np.ascontiguousarray(prev), table.factors[:, :width], out=corrections)
    np.copyto(source[:, 0], solved[:, 0])
    np.add(solved[:, 1:], corrections, out=source[:, 1:])
    if unsolved is not None:
        work[unsolved] = inputs
    return unsolved


def segment_carries(solved: np.ndarray, table: CorrectionFactorTable) -> np.ndarray:
    """The in-chunk global carries of every segment, as a (k, S, C) array.

    ``solved`` is the ``(C, S, W)`` result of solving each segment from
    a zero history; its last k words per segment, most recent first,
    are the local carries ``L_s``, and ``carries[r, s, c]`` is the
    global carry at offset W-1-r of segment s in chunk c.
    ``G_s = L_s + M G_{s-1}`` runs as a log-depth doubling scan: the
    step of distance d adds ``M_{dW} G_{s-d}`` to every segment
    s >= d, where ``M_{dW}``, the carry transition over d·W words,
    comes straight from the table
    (:meth:`~repro.plr.factors.CorrectionFactorTable.carry_transitions`).
    The chunks lie on the contiguous last axis and every step is an
    elementwise broadcast, so each chunk's carries depend on that chunk
    alone.
    """
    width = solved.shape[2]
    k = table.order
    carries = solved[:, :, width - k :][:, :, ::-1].transpose(2, 1, 0).copy()
    distance = 1
    for matrix in table.carry_transitions(width):
        earlier = carries[:, :-distance]
        step = matrix[:, 0, None, None] * earlier[0]
        for j in range(1, k):
            step += matrix[:, j, None, None] * earlier[j]
        carries[:, distance:] += step
        distance *= 2
    return carries


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

    With an enabled ``tracer``, a merging table's thread-local solve
    and every merge-doubling level emit one span each (cat ``phase1``),
    recording the pair width and how many pairs merged — the numpy
    mirror of the simulator's per-block ``merge`` events.  A
    running-sum table emits one ``running_sum`` span per stride
    instead, and a float table one ``segment_solve`` span per block
    (see :func:`phase1_inplace`).
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
