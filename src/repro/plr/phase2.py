"""Phase 2: pipelined chunk correction with variable look-back (§2.2).

After Phase 1, every chunk is locally correct and has published its
*local carries* (its last k values).  Phase 2 turns local into *global*
correctness:

* the global carries of chunk c are its local carries corrected by the
  global carries of chunk c-1 through the k-by-k carry-transition
  matrix M (``G_c = L_c + M @ G_{c-1}``, O(k^2) per chunk);
* every element of chunk c is then corrected with
  ``sum_j factors[j][i] * G_{c-1}[j]``.

On the GPU this runs decoupled: a chunk takes the *most recent
available* global carries (distance c <= 32 back) plus all intervening
local carries and hops forward through M — Merrill & Garland's variable
look-back, which this module implements in :func:`lookback_combine`.
The numpy solver uses the sequential form (identical semantics: the
look-back recursion is exactly the same affine map, associated the same
way); the event-ordered GPU simulator exercises the decoupled protocol
itself, including out-of-order chunk completion.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.nnacci import carry_transition_matrix
from repro.obs.tracer import NULL_TRACER, TracePid
from repro.plr.factors import CorrectionFactorTable

__all__ = [
    "transition_matrix",
    "local_carries",
    "propagate_carries",
    "lookback_combine",
    "add_carry_products",
    "apply_global_correction",
    "phase2",
    "trace_lookbacks",
    "LOOKBACK_SUMMARY_THRESHOLD",
    "TILE_BYTES",
]

LOOKBACK_SUMMARY_THRESHOLD = 64
"""Chunk count above which the traced sequential spine emits one
``lookback_summary`` instant instead of a per-chunk ``lookback`` loop.

Per-chunk instants are the right shape for small runs (one timeline row
per chunk in the trace viewer) but O(num_chunks) Python work for large
ones, where only the aggregate distribution matters;
:func:`repro.obs.profile.build_profile` consumes both forms."""


def transition_matrix(table: CorrectionFactorTable) -> np.ndarray:
    """The k-by-k matrix M with ``G_c = L_c + M @ G_{c-1}``.

    Row r corresponds to the carry at offset m-1-r (most recent first).
    Read straight out of the factor table: M[r, j] = factors[j, m-1-r].
    Matches :func:`repro.core.nnacci.carry_transition_matrix`, which
    recomputes it from first principles and serves as the test oracle.
    """
    k = table.order
    m = table.chunk_size
    matrix = np.empty((k, k), dtype=table.dtype)
    for r in range(k):
        matrix[r, :] = table.factors[:, m - 1 - r]
    return matrix


def local_carries(partial: np.ndarray, order: int) -> np.ndarray:
    """Extract the (..., num_chunks, k) local carries, most recent first.

    Column j of the result is the chunk value at offset m-1-j, i.e. the
    carry w[m-1-j] that factor row j multiplies.  ``partial`` may carry
    leading batch axes before the (num_chunks, m) chunk matrix.
    """
    m = partial.shape[-1]
    if m < order:
        raise ValueError(f"chunk size {m} smaller than order {order}")
    # partial[..., m-1], partial[..., m-2], ..., partial[..., m-k]
    return partial[..., m - order : m][..., ::-1]


def propagate_carries(
    locals_: np.ndarray,
    matrix: np.ndarray,
    base: np.ndarray | None = None,
    restarts: list[int] | None = None,
) -> np.ndarray:
    """Sequentially compute global carries for every chunk.

    ``G_0 = L_0`` (nothing precedes the first chunk) and
    ``G_c = L_c + M @ G_{c-1}``.  This is the serial spine of Phase 2 —
    O(num_chunks * k^2) work, tiny next to the O(n k) element
    correction.

    ``base`` supplies the global carries *entering* the first chunk
    (``G_0 = L_0 + M @ base``) — the multicore backend propagates each
    slab from its scan-computed base this way.  ``base=None`` is the
    zero-history case and matches the historical behaviour bit for bit.

    ``locals_`` may carry leading batch axes before (num_chunks, k);
    the spine then walks the chunk axis once while every batch row's
    matrix-vector product runs in the same vectorized step.

    ``restarts`` (one spine only) is the sorted list of chunks that
    start a new sequence of a packed batch: they take ``G_c = L_c``
    with no product from the chunk before, and the loop visits only the
    chunks that continue a sequence.  The default
    restarts at chunk 0 alone, or nowhere when ``base`` is given.  When
    the products are exact in any grouping (integer dtypes, or k = 1;
    see :func:`elementwise_products`), the sequences advance together,
    one chunk of each per step.
    """
    num_chunks = locals_.shape[-2]
    out = np.empty_like(locals_)
    if num_chunks == 0:
        return out
    if locals_.ndim == 2:
        if restarts is None:
            restarts = [] if base is not None else [0]
        runs = list(continuing_runs(0, num_chunks, restarts))
        if len(runs) > 1 and elementwise_products(locals_.dtype, matrix.shape[0]):
            out[restarts] = locals_[restarts]
            _lockstep(out, locals_, matrix, base, runs)
            return out
        for c in restarts:
            out[c] = locals_[c]
        for a, b in runs:
            prev = out[a - 1] if a else base
            for c in range(a, b):
                prev = out[c] = locals_[c] + matrix @ prev
        return out
    transposed = matrix.T
    if base is None:
        out[..., 0, :] = locals_[..., 0, :]
    else:
        out[..., 0, :] = locals_[..., 0, :] + np.asarray(base) @ transposed
    for c in range(1, num_chunks):
        out[..., c, :] = locals_[..., c, :] + out[..., c - 1, :] @ transposed
    return out


def _lockstep(out, locals_, matrix, base, runs) -> None:
    """The spine over several runs of chunks at once, in place.

    Step s computes chunk ``a + s`` of every run ``[a, b)`` longer than
    s from the chunk before it (``base`` for a run starting at chunk 0).
    """
    firsts = np.array([a for a, _ in runs])
    lengths = np.array([b - a for a, b in runs])
    order = np.argsort(-lengths, kind="stable")
    firsts, lengths = firsts[order], lengths[order]
    # Runs still advancing at each step: a prefix, as lengths descend.
    live = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    prev = out[firsts - 1]
    if base is not None:
        prev[firsts == 0] = base
    transposed = matrix.T
    for step, count in enumerate(live.tolist()):
        chunks = firsts[:count] + step
        prev = out[chunks] = locals_[chunks] + prev[:count] @ transposed


def continuing_runs(first: int, stop: int, restarts):
    """Maximal ``[a, b)`` chunk ranges in ``[first, stop)`` that skip
    every chunk in the sorted ``restarts``: the chunks that continue a
    sequence."""
    a = first
    for r in restarts:
        if r > a:
            yield a, r
        a = max(a, r + 1)
    if a < stop:
        yield a, stop


def lookback_combine(
    base_global: np.ndarray,
    intervening_locals: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """Hop global carries forward over intervening chunks (§2.3).

    Given the global carries of some chunk c-d and the local carries of
    chunks c-d+1, ..., c (in order), returns the global carries of
    chunk c by applying ``G <- L + M @ G`` once per hop — the O(c k^2)
    carry precomputation that lets Phase 2 start on a chunk before its
    immediate predecessor has finished.
    """
    carries = np.array(base_global, copy=True)
    for loc in intervening_locals:
        carries = loc + matrix @ carries
    return carries


TILE_BYTES = 1 << 20
"""The cache budget of one unit of host-side work, in bytes.

:func:`repro.plr.tiled.solve_tiled` streams the solve through tiles of
at most this many bytes, so each tile is mapped, merged and corrected
while it stays in L2; :func:`repro.plr.phase1.phase1_inplace` walks
larger chunk matrices in blocks of the same size.
:func:`add_carry_products` bounds its scratch by the same budget, so
the in-place correction never re-creates the second ``(chunks, m)``
array it exists to avoid (pinned by the tracemalloc regression test)."""


def elementwise_products(dtype, order: int) -> bool:
    """Whether :func:`add_carry_products` adds broadcast products.

    True for integer dtypes and for one carry (k = 1).  Each output
    word then depends only on its own carry and factor, so the result
    does not depend on which chunks share a call; a float matmul's
    rounding can depend on the block it runs in.
    """
    return order == 1 or np.issubdtype(dtype, np.integer)


def add_carry_products(
    target: np.ndarray,
    prev: np.ndarray,
    factors: np.ndarray,
    unit_rows: tuple[bool, ...] = (),
    scratch: np.ndarray | None = None,
) -> None:
    """Accumulate ``target[..., c, :w] += prev[..., c, :] @ factors`` in place.

    ``target`` is a (..., C, m) block of chunk rows, ``prev`` the
    (..., C, k) carries feeding them, and ``factors`` the k-by-w factor
    columns to apply, w <= m: a correction touches only the first w
    columns of every row, so callers pass
    :attr:`~repro.plr.factors.CorrectionFactorTable.live_factors` to
    skip the columns the table proves are zero.  Float dtypes fuse the
    k-carry correction loop into one matmul; float k > 1 sums the carry
    terms in matmul order, within normal rounding of the loop order.
    Integer dtypes, and k = 1, add k broadcast products instead: numpy
    has no BLAS path for integer matmul, wraparound integer addition is
    exact in any order, and one product needs no sum, so the result is
    bit-identical.  On that path a row flagged in ``unit_rows`` (all
    factors 1) adds its carry without a multiply.
    Work is blocked along the chunk axis so the products stay within
    ``scratch`` (a flat buffer of at least one chunk row of products)
    or, without it, under :data:`TILE_BYTES` instead of materializing a
    full (..., C, m) product.
    """
    num_rows = target.shape[-2]
    width = factors.shape[-1]
    if num_rows == 0 or width == 0:
        return
    leading = target.shape[:-2]
    row_words = max(1, int(np.prod(leading, dtype=np.int64)) * width)
    if scratch is None:
        block = max(1, TILE_BYTES // (row_words * target.dtype.itemsize))
        scratch = np.empty(min(block, num_rows) * row_words, dtype=target.dtype)
    block = scratch.size // row_words
    per_row = elementwise_products(target.dtype, factors.shape[0])
    for start in range(0, num_rows, block):
        stop = min(start + block, num_rows)
        rows = target[..., start:stop, :width]
        product = scratch[: rows.size].reshape(rows.shape)
        if not per_row:
            np.matmul(prev[..., start:stop, :], factors, out=product)
            rows += product
            continue
        for j in range(factors.shape[0]):
            carry = prev[..., start:stop, j, None]
            if j < len(unit_rows) and unit_rows[j]:
                rows += carry
            else:
                np.multiply(carry, factors[j], out=product)
                rows += product


def apply_global_correction(
    partial: np.ndarray,
    global_carries: np.ndarray,
    table: CorrectionFactorTable,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Correct every chunk with its predecessor's global carries.

    ``partial`` is the (num_chunks, m) Phase 1 output — optionally with
    leading batch axes — and chunk 0 is already globally correct.
    Vectorized across chunks (and batch rows): chunk c (c >= 1) gains
    ``sum_j factors[j] * G_{c-1}[j]``, computed as one blocked matmul
    over the carry axis (:func:`add_carry_products`).

    ``out=None`` copies first (the historical behaviour, input left
    pristine); ``out=partial`` corrects the Phase 1 buffer in place with
    no second (chunks, m) allocation; any other ``out`` receives a copy
    of ``partial`` before correction.
    """
    if out is None:
        out = partial.copy()
    elif out is not partial:
        np.copyto(out, partial)
    if out.shape[-2] <= 1:
        return out
    prev = global_carries[..., :-1, :]  # carries feeding chunks 1..end
    add_carry_products(out[..., 1:, :], prev, table.live_factors, table.unit_rows)
    return out


def trace_lookbacks(tracer, num_chunks: int, row_starts=(0,)) -> None:
    """Emit the sequential spine's look-back events for one solve.

    Every chunk that continues a sequence takes its predecessor's
    global carries (distance 1); the chunks in the sorted
    ``row_starts`` begin a sequence (chunk 0 of an unpacked solve, each
    row's first chunk of a packed one) and emit nothing.  Up to
    :data:`LOOKBACK_SUMMARY_THRESHOLD` corrected chunks, every one
    emits one ``lookback`` instant (cat ``phase2``, tid = chunk id,
    args chunk/base/distance); more emit a single ``lookback_summary``
    instant carrying the first corrected chunk and the count instead,
    found in O(log rows) Python steps.  ``num_chunks`` counts the
    chunks of one sequence (or one packed row), so a batched or tiled
    solve emits the same events as one whole-array Phase 2.
    """
    if not tracer.enabled:
        return
    corrected = num_chunks - len(row_starts)
    if corrected > LOOKBACK_SUMMARY_THRESHOLD:
        # Chunks 0..i-1 all start rows exactly when row_starts[i] > i.
        first = bisect_left(
            range(len(row_starts)), True, key=lambda i: row_starts[i] > i
        )
        tracer.instant(
            "lookback_summary",
            cat="phase2",
            pid=TracePid.HOST,
            args={"first_chunk": first, "chunks": corrected, "distance": 1},
        )
        return
    for a, b in continuing_runs(0, num_chunks, row_starts):
        for c in range(a, b):
            tracer.instant(
                "lookback",
                cat="phase2",
                pid=TracePid.HOST,
                tid=c,
                args={"chunk": c, "base": c - 1, "distance": 1},
            )


def phase2(
    partial: np.ndarray,
    table: CorrectionFactorTable,
    tracer=NULL_TRACER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run Phase 2 over the Phase 1 partial result; returns (chunks, m).

    The sequential-spine formulation: extract local carries, propagate
    them through M, then apply the element-wise correction.  Exactly
    the arithmetic the pipelined GPU version performs, in a
    deterministic order.

    ``partial`` may also be a batched ``(B, chunks, m)`` Phase 1 result
    (see :func:`repro.plr.phase1.phase1`); the carry spine then walks
    the chunk axis once for all B rows and the correction broadcasts
    over the batch, returning ``(B, chunks, m)``.

    ``out`` is forwarded to :func:`apply_global_correction`;
    ``out=partial`` corrects the Phase 1 buffer in place (the local
    carries are read into the (chunks, k) spine before any element is
    touched, so self-correction is safe).

    With an enabled ``tracer``, the carry-propagation and correction
    stages emit spans, and :func:`trace_lookbacks` emits the per-chunk
    ``lookback`` instants (or one ``lookback_summary``).  The spine is
    sequential here, so the distance is always 1 — the decoupled
    variable-look-back distances come from the GPU simulator's traces;
    the shared event names let one profile reader consume both.
    """
    matrix = transition_matrix(table)
    locals_ = local_carries(partial, table.order)
    # Materialize the carries before any in-place correction: `locals_`
    # is a view into `partial`, which `out=partial` will overwrite.
    if out is partial:
        locals_ = np.ascontiguousarray(locals_)
    with tracer.span("propagate_carries", cat="phase2"):
        global_ = propagate_carries(locals_, matrix)
    trace_lookbacks(tracer, partial.shape[-2])
    with tracer.span("apply_global_correction", cat="phase2"):
        return apply_global_correction(partial, global_, table, out=out)
