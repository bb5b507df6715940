"""One tile-streamed pass: map stage, Phase 1, carry spine, correction.

PLR runs close to memcpy speed (§5) because each word is read and
written about once: Phase 2's pipelined look-back corrects chunks in
order, right behind Phase 1 (§2.2).  :func:`solve_tiled` maps that
hierarchy onto a CPU's caches:

* a *tile* — whole chunks, at most :data:`~repro.plr.phase2.TILE_BYTES`
  of them — stands in for a thread block: it is filled (cast plus map
  stage), merged (Phase 1) and corrected (Phase 2) while it stays in L2;
* *tile order* stands in for Phase 2's pipelined chunk order: a tile's
  carry spine starts from the global carries the previous tile of the
  same row left behind (``propagate_carries(..., base=)``);
* the output buffer is the only full-size allocation, and each of its
  words is written once by the fill and corrected in cache; the fill,
  Phase 1 and the correction share two tile-sized scratch buffers
  (:func:`~repro.plr.phase1.phase1_scratch`) allocated once per solve.

A tile is either several whole rows, when one padded row fits the
budget, or a run of chunks from one row; either way it is contiguous,
so Phase 1's chunk-matrix reshape stays a view.  Every element sees the
arithmetic of the whole-array phases — the map stage's summation order,
the same Phase 1 per chunk, the same spine recursion — so integer
results are bit-identical to them.

Rows of different lengths run as one *packed* row instead
(:func:`packed_starts`): each starts on a chunk boundary and is filled
from its own values alone, and the pass restarts the carry spine at
every row's first chunk (``row_starts``), a segmented recurrence over
one grid of chunks.  Tiles cut every row on its own grid, so each
packed row sees exactly the arithmetic of its solo solve under the same
plan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.plr.factors import CorrectionFactorTable, working_coefficients
from repro.plr.phase1 import phase1_inplace, phase1_scratch
from repro.plr.phase2 import (
    TILE_BYTES,
    add_carry_products,
    continuing_runs,
    elementwise_products,
    local_carries,
    propagate_carries,
    trace_lookbacks,
    transition_matrix,
)

__all__ = ["packed_starts", "row_chunks", "solve_tiled"]


def row_chunks(n: int, chunk_size: int) -> int:
    """Chunks a row of n values takes in a packed pass."""
    return -(-n // chunk_size)


def packed_starts(sizes, chunk_size: int) -> list[int]:
    """The chunk where each row of a packed pass begins.

    Rows of the given (non-zero) ``sizes`` follow each other in order,
    each taking :func:`row_chunks` chunks; pass the result to
    :func:`solve_tiled` as ``row_starts`` and read row r's output at
    ``out[0, starts[r] * m :][:n_r]``.
    """
    return list(accumulate((row_chunks(n, chunk_size) for n in sizes[:-1]), initial=0))


def solve_tiled(
    values: np.ndarray,
    feedforward,
    table: CorrectionFactorTable,
    x: int,
    tracer=NULL_TRACER,
    context=None,
    keep_partial: bool = False,
    row_starts: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve every row of a (B, n) matrix in one pass over cache-sized tiles.

    ``values`` holds the raw inputs in any dtype; each row is its own
    sequence with zero history.  ``feedforward`` is the signature's map
    stage, ``table`` the factor table of its recursive part (its dtype
    is the working dtype, its chunk size m) and ``x`` the values per
    thread.  Returns ``(out, partial)``: ``out`` is (B, P), P being n
    rounded up to whole chunks (callers slice off the padding), and
    ``partial`` the pristine Phase 1 result in the same layout when
    ``keep_partial`` is set, else None.

    With an enabled ``tracer`` every tile emits ``map_stage``, ``phase1``
    (its Phase 1 steps inside) and ``phase2`` spans (``propagate_carries``
    and ``apply_global_correction`` inside); the look-back events are
    emitted once per solve (:func:`~repro.plr.phase2.trace_lookbacks`).
    ``context`` parents the tile spans under a request-scoped trace.

    ``row_starts`` (from :func:`packed_starts`) makes ``values`` a
    sequence of non-empty 1-D rows, solved as one packed ``(1, P)``
    row.  Each row's chunks are filled from its own values, so its map
    stage sees a zero history as in its solo solve.  A chunk that
    starts a row takes its local carries as its global ones and gets no
    correction; every other chunk is handled as in an unpacked row, and
    only those emit look-back events.
    """
    m = table.chunk_size
    if row_starts is None:
        rows, n = values.shape
        chunks = -(-n // m)
        starts = [0]
    else:
        rows, starts = 1, row_starts
        chunks = starts[-1] + row_chunks(values[-1].size, m) if starts else 0
    out = np.empty((rows, chunks * m), dtype=table.dtype)
    partial = np.empty_like(out) if keep_partial else None
    matrix = transition_matrix(table)
    ff = working_coefficients(feedforward, table.dtype)
    if ff == [1]:
        ff = None

    def link():
        return context.child() if context is not None else None

    tiles = list(_tiles(rows, chunks, m * out.itemsize, starts))
    tile_chunks = max(((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in tiles), default=0)
    scratch = phase1_scratch(tile_chunks * m, out.dtype)
    carry = None
    for r0, r1, c0, c1 in tiles:
        tile = out[r0:r1, c0 * m : c1 * m]
        with tracer.span("map_stage", cat="solver", link=link()):
            if row_starts is None:
                _fill(tile, values[r0:r1], c0 * m, ff, scratch[0])
            else:
                _fill_packed(tile, values, starts, c0, c1, ff, scratch[0])
        with tracer.span(
            "phase1",
            cat="solver",
            args={"chunks": tile.size // m} if tracer.enabled else None,
            link=link(),
        ):
            phase1_inplace(tile.reshape(-1, m), table, x, tracer=tracer, scratch=scratch)
        if partial is not None:
            partial[r0:r1, c0 * m : c1 * m] = tile
        restarts = None
        if row_starts is not None:
            inside = starts[bisect_left(starts, c0) : bisect_left(starts, c1)]
            restarts = [start - c0 for start in inside]
        with tracer.span("phase2", cat="solver", link=link()):
            carry = _correct(
                tile.reshape(r1 - r0, c1 - c0, m),
                table,
                matrix,
                carry if c0 else None,
                tracer,
                scratch[0],
                restarts,
            )
    trace_lookbacks(tracer, chunks, starts)
    return out, partial


def _tiles(rows: int, chunks: int, chunk_bytes: int, row_starts=(0,)):
    """``(r0, r1, c0, c1)`` bounds of every tile, in solve order.

    Whole rows share a tile when one padded row fits the budget;
    longer rows are cut into runs of chunks.  A chunk larger than the
    budget is a tile on its own.  The rows of a packed input
    (``row_starts``) share tiles the same way: each is cut into runs
    counted from its own first chunk, and consecutive runs share a tile
    while they fit.  Every row then meets the correction's matrix
    products in the same blocks as its solo solve, which keeps float
    outputs bit-identical to it.
    """
    if chunks == 0:
        return
    per_tile = max(1, TILE_BYTES // chunk_bytes)
    if rows == 1:
        c0 = c1 = 0
        for start, end in zip(row_starts, [*row_starts[1:], chunks]):
            for a in range(start, end, per_tile):
                b = min(a + per_tile, end)
                if b - c0 > per_tile:
                    yield 0, 1, c0, c1
                    c0 = a
                c1 = b
        yield 0, 1, c0, c1
        return
    if chunks <= per_tile:
        step = per_tile // chunks
        for r0 in range(0, rows, step):
            yield r0, min(r0 + step, rows), 0, chunks
        return
    for r in range(rows):
        for c0 in range(0, chunks, per_tile):
            yield r, r + 1, c0, min(c0 + per_tile, chunks)


def _fill(
    tile: np.ndarray, source: np.ndarray, start: int, feedforward, scratch: np.ndarray
) -> None:
    """Cast and map one (R, w) tile's inputs; zero the padding past n.

    ``tile`` covers columns ``start:start + w`` of the ``source`` rows.
    The map stage (2) writes ``a_0 * x`` straight into the tile, then
    adds each later term ``a_j * x[i - j]`` with its history reaching
    back before the tile, in :func:`~repro.core.reference.fir_map`'s
    order, so every kept output sums its terms as the whole-array map
    stage does.  Products are formed in the tile's dtype, in
    ``scratch`` (at least one tile of words).  ``feedforward=None`` is
    the identity map (a cast copy).
    """
    stop = min(start + tile.shape[1], source.shape[1])
    valid = stop - start
    body = tile[:, :valid]
    if feedforward is None:
        body[...] = source[:, start:stop]
    else:
        if feedforward[0] == 0:
            body[...] = 0
        else:
            _scale(source[:, start:stop], feedforward[0], body)
        for j in range(1, len(feedforward)):
            if feedforward[j] == 0:
                continue
            skip = max(0, j - start)
            if skip >= valid:
                continue
            terms = body[:, skip:]
            product = scratch[: terms.size].reshape(terms.shape)
            _scale(source[:, start + skip - j : stop - j], feedforward[j], product)
            terms += product
    tile[:, valid:] = 0


def _fill_packed(
    tile: np.ndarray, rows, starts, c0: int, c1: int, feedforward, scratch
) -> None:
    """:func:`_fill` for chunks ``c0:c1`` of a packed row.

    Every row's part of the tile is filled from that row alone, at its
    offset in the row, exactly as its solo solve fills it.
    """
    m = tile.shape[1] // (c1 - c0)
    for i in range(bisect_right(starts, c0) - 1, bisect_left(starts, c1)):
        row = rows[i]
        a = max(starts[i], c0)
        b = min(starts[i] + row_chunks(row.size, m), c1)
        _fill(
            tile[:, (a - c0) * m : (b - c0) * m],
            row[None],
            (a - starts[i]) * m,
            feedforward,
            scratch,
        )


def _scale(values: np.ndarray, coeff, out: np.ndarray) -> None:
    """``out = values * coeff``, both cast to ``out.dtype`` first.

    The products :func:`~repro.core.reference.fir_map` forms after its
    cast copy (``astype``), computed without that copy.
    """
    np.multiply(values, coeff, out=out, dtype=out.dtype, casting="unsafe")


def _correct(tile, table, matrix, base, tracer, scratch, restarts=None) -> np.ndarray:
    """Phase 2 on one (R, C, m) tile of Phase 1 output, in place.

    ``base`` holds the global carries entering the tile's first chunk
    when the tile continues its row, or None when it starts its rows.
    ``restarts`` lists the tile's chunks that start a packed row (R = 1
    only), in order: they keep their local carries and are not
    corrected.  None is an unpacked tile.
    Returns the global carries leaving the tile's last chunk (of its
    first row), the ``base`` of the next tile of that row.  Only the
    table's live columns are corrected.
    """
    locals_ = local_carries(tile, table.order)
    with tracer.span("propagate_carries", cat="phase2"):
        if tile.shape[0] == 1:
            global_ = propagate_carries(
                locals_[0], matrix, base=base, restarts=restarts
            )[None]
        else:
            global_ = propagate_carries(locals_, matrix)
    with tracer.span("apply_global_correction", cat="phase2"):
        if base is None:
            first, prev = 1, global_[:, :-1]
        else:
            first = 0
            prev = np.concatenate([base[None, None], global_[:, :-1]], axis=1)
        factors = table.live_factors
        # prev[:, c - first] feeds chunk c.  A packed tile corrects
        # each run of chunks that continue a row with its own call, so
        # a float matmul meets every row in the block its solo solve
        # uses; broadcast products do not depend on the block, so there
        # the continuing chunks of all rows are corrected in one call
        # on a gathered copy of their live columns.
        runs = list(continuing_runs(first, tile.shape[1], restarts or ()))
        if len(runs) > 1 and elementwise_products(tile.dtype, table.order):
            keep = np.ones(tile.shape[1], dtype=bool)
            keep[:first] = False
            keep[restarts] = False
            chunks = np.flatnonzero(keep)
            width = factors.shape[-1]
            target = tile[:, chunks, :width]
            add_carry_products(
                target, prev[:, chunks - first], factors, table.unit_rows, scratch
            )
            tile[:, chunks, :width] = target
        else:
            for a, b in runs:
                add_carry_products(
                    tile[:, a:b],
                    prev[:, a - first : b - first],
                    factors,
                    table.unit_rows,
                    scratch,
                )
    return global_[0, -1]
