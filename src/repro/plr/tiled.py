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
the same merges, the same spine recursion — so integer results are
bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.plr.factors import CorrectionFactorTable
from repro.plr.phase1 import phase1_inplace, phase1_scratch
from repro.plr.phase2 import (
    TILE_BYTES,
    add_carry_products,
    local_carries,
    propagate_carries,
    trace_lookbacks,
    transition_matrix,
)

__all__ = ["solve_tiled"]


def solve_tiled(
    values: np.ndarray,
    feedforward,
    table: CorrectionFactorTable,
    x: int,
    tracer=NULL_TRACER,
    context=None,
    keep_partial: bool = False,
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
    (the merge levels inside) and ``phase2`` spans (``propagate_carries``
    and ``apply_global_correction`` inside); the look-back events are
    emitted once per solve (:func:`~repro.plr.phase2.trace_lookbacks`).
    ``context`` parents the tile spans under a request-scoped trace.
    """
    rows, n = values.shape
    m = table.chunk_size
    chunks = -(-n // m)
    out = np.empty((rows, chunks * m), dtype=table.dtype)
    partial = np.empty_like(out) if keep_partial else None
    matrix = transition_matrix(table)
    ff = [a if isinstance(a, int) else float(a) for a in feedforward]
    if ff == [1]:
        ff = None

    def link():
        return context.child() if context is not None else None

    tiles = list(_tiles(rows, chunks, m * out.itemsize))
    tile_chunks = max(((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in tiles), default=0)
    scratch = phase1_scratch(tile_chunks * m, out.dtype)
    carry = None
    for r0, r1, c0, c1 in tiles:
        tile = out[r0:r1, c0 * m : c1 * m]
        with tracer.span("map_stage", cat="solver", link=link()):
            _fill(tile, values[r0:r1], c0 * m, ff, scratch[0])
        with tracer.span(
            "phase1",
            cat="solver",
            args={"chunks": tile.size // m} if tracer.enabled else None,
            link=link(),
        ):
            phase1_inplace(tile.reshape(-1, m), table, x, tracer=tracer, scratch=scratch)
        if partial is not None:
            partial[r0:r1, c0 * m : c1 * m] = tile
        with tracer.span("phase2", cat="solver", link=link()):
            carry = _correct(
                tile.reshape(r1 - r0, c1 - c0, m),
                table,
                matrix,
                carry if c0 else None,
                tracer,
                scratch[0],
            )
    trace_lookbacks(tracer, chunks)
    return out, partial


def _tiles(rows: int, chunks: int, chunk_bytes: int):
    """``(r0, r1, c0, c1)`` bounds of every tile, in solve order.

    Whole rows share a tile when one padded row fits the budget;
    longer rows are cut into runs of chunks.  A chunk larger than the
    budget is a tile on its own.
    """
    if chunks == 0:
        return
    per_tile = max(1, TILE_BYTES // chunk_bytes)
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


def _scale(values: np.ndarray, coeff, out: np.ndarray) -> None:
    """``out = values * coeff``, both cast to ``out.dtype`` first.

    The products :func:`~repro.core.reference.fir_map` forms after its
    cast copy (``astype``), computed without that copy.
    """
    np.multiply(values, coeff, out=out, dtype=out.dtype, casting="unsafe")


def _correct(tile, table, matrix, base, tracer, scratch) -> np.ndarray:
    """Phase 2 on one (R, C, m) tile of Phase 1 output, in place.

    ``base`` holds the global carries entering the tile's first chunk
    when the tile continues its row, or None when it starts its rows.
    Returns the global carries leaving the tile's last chunk (of its
    first row), the ``base`` of the next tile of that row.  Only the
    table's live columns are corrected.
    """
    locals_ = local_carries(tile, table.order)
    with tracer.span("propagate_carries", cat="phase2"):
        if tile.shape[0] == 1:
            global_ = propagate_carries(locals_[0], matrix, base=base)[None]
        else:
            global_ = propagate_carries(locals_, matrix)
    with tracer.span("apply_global_correction", cat="phase2"):
        if base is None:
            target, prev = tile[:, 1:], global_[:, :-1]
        else:
            target = tile
            prev = np.concatenate([base[None, None], global_[:, :-1]], axis=1)
        add_carry_products(
            target, prev, table.live_factors, table.unit_rows, scratch
        )
    return global_[0, -1]
