"""The tile-streamed numpy pass across tile boundaries.

``solve_tiled`` cuts a solve into cache-sized tiles and hands each
tile's last global carries to the next one.  With the tile budget
shrunk to one or two chunks, inputs of a few chunks already cross many
tiles, so every boundary case — a tile of whole rows, a run of one
row's chunks, a ragged tail, a map stage reading history from the
previous tile — is exercised against the serial reference through
every entry point that runs the pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.batch.solver import BatchSolver
from repro.core.coefficients import table1_signatures
from repro.core.reference import serial_full
from repro.core.validation import compare_results
from repro.obs.tracer import Tracer
from repro.plr import tiled
from repro.plr.nd import solve_batch
from repro.plr.phase1 import phase1
from repro.plr.phase2 import LOOKBACK_SUMMARY_THRESHOLD
from repro.plr.solver import PLRSolver
from repro.plr.streaming import StreamingSolver

TABLE1 = table1_signatures()
CHUNK = 64
X = 2

IMPRECISE = (
    "float32 misses the Section 5 tolerance here with or without tiles: "
    "the same inputs fail identically through the whole-array phases"
)


def cases(*imprecise: str) -> list:
    """(name, dtype) for every Table-1 signature in each dtype it runs in.

    The float32 cases named in ``imprecise`` are strict xfails: their
    factor rows grow polynomially (order-2/3 prefix sums) or a long
    stream accumulates rounding (high_pass_3), which is a precision
    limit of the algorithm in float32, not of the tiling.
    """
    params = []
    for name, signature in TABLE1.items():
        for dtype in (np.int32, np.float32, np.float64):
            if np.issubdtype(dtype, np.integer) and not signature.is_integer:
                continue
            marks = ()
            if dtype is np.float32 and name in imprecise:
                marks = pytest.mark.xfail(strict=True, reason=IMPRECISE)
            params.append(pytest.param(name, dtype, marks=marks))
    return params


def tile_plan(signature, n: int):
    """A plan with 64-word chunks (x = 2) so small inputs span many tiles."""
    plan = PLRSolver(signature).plan_for(max(n, 1))
    return dataclasses.replace(
        plan, chunk_size=CHUNK, values_per_thread=X, num_chunks=-(-n // CHUNK)
    )


def sizes(signature) -> list[int]:
    """1, below k, m - 1, m, m + 1, and several tiles plus a ragged tail."""
    below_k = max(1, signature.order - 1)
    return sorted({1, below_k, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 7})


def values_for(dtype, shape, rng) -> np.ndarray:
    # Small integers, so every dtype sees the same data.
    return rng.integers(-8, 8, shape).astype(dtype)


def assert_matches(result, values, signature, dtype) -> None:
    expected = np.stack([serial_full(row, signature, dtype=dtype) for row in values])
    result = np.asarray(result).reshape(expected.shape)
    assert result.dtype == expected.dtype
    if np.issubdtype(np.dtype(dtype), np.integer):
        np.testing.assert_array_equal(result, expected)
    else:
        report = compare_results(result, expected)
        assert report.ok, report


class TestTileBoundaryEquivalence:
    @pytest.mark.parametrize("per_tile", [1, 2], ids=["tile=1chunk", "tile=2chunks"])
    @pytest.mark.parametrize("name,dtype", cases("order3_prefix_sum"))
    def test_entry_points_match_serial(self, name, dtype, per_tile, monkeypatch, rng):
        # One or two chunks per tile: rows of one chunk share two-chunk
        # tiles, longer rows are cut into runs of chunks.
        monkeypatch.setattr(tiled, "TILE_BYTES", per_tile * CHUNK * np.dtype(dtype).itemsize)
        signature = TABLE1[name]
        for n in sizes(signature):
            plan = tile_plan(signature, n)
            for batch in (1, 3):
                values = values_for(dtype, (batch, n), rng)
                single = np.stack(
                    [PLRSolver(signature).solve(row, plan=plan, dtype=dtype) for row in values]
                )
                assert_matches(single, values, signature, dtype)
                assert_matches(
                    solve_batch(values, signature, dtype=dtype, plan=plan),
                    values, signature, dtype,
                )
                assert_matches(
                    BatchSolver(signature).solve(values, plan=plan, dtype=dtype),
                    values, signature, dtype,
                )

    @pytest.mark.parametrize(
        "name,dtype", cases("order2_prefix_sum", "order3_prefix_sum", "high_pass_3")
    )
    def test_streaming_matches_serial(self, name, dtype, monkeypatch, rng):
        # The stream's inner solver plans its own (1024-word) chunks; a
        # one-byte budget still makes every chunk its own tile.
        monkeypatch.setattr(tiled, "TILE_BYTES", 1)
        signature = TABLE1[name]
        values = values_for(dtype, 4501, rng)
        stream = StreamingSolver(signature, dtype=dtype)
        out = stream.push_many(np.split(values, [1, 2501, 3201]))
        assert_matches(out, values[None], signature, dtype)

    def test_tiles_cover_the_work_matrix_once(self, monkeypatch):
        monkeypatch.setattr(tiled, "TILE_BYTES", 3 * CHUNK * 4)
        for rows, chunks in [(1, 1), (5, 1), (4, 2), (3, 3), (2, 7), (1, 10)]:
            seen = np.zeros((rows, chunks), dtype=int)
            for r0, r1, c0, c1 in tiled._tiles(rows, chunks, CHUNK * 4):
                assert (r1 - r0) * (c1 - c0) <= 3
                assert r1 - r0 == 1 or (c0, c1) == (0, chunks)
                seen[r0:r1, c0:c1] += 1
            assert (seen == 1).all()


class TestTiledTraceContract:
    def _trace_solve(self, num_chunks: int, monkeypatch) -> Tracer:
        monkeypatch.setattr(tiled, "TILE_BYTES", 1)
        n = CHUNK * num_chunks
        solver = PLRSolver("(1: 1)", tracer=True)
        out = solver.solve(np.ones(n, dtype=np.int64), plan=tile_plan(solver.recurrence.signature, n))
        np.testing.assert_array_equal(out, np.arange(1, n + 1))
        return solver.tracer

    def test_multi_tile_solve_keeps_span_names(self, monkeypatch):
        tracer = self._trace_solve(10, monkeypatch)
        names = {e.name for e in tracer.events}
        assert {"factor_table", "map_stage", "phase1", "phase2", "merge_level"} <= names

    def test_lookbacks_are_per_solve_not_per_tile(self, monkeypatch):
        tracer = self._trace_solve(10, monkeypatch)
        per_chunk = [e for e in tracer.events if e.name == "lookback"]
        assert [e.args["chunk"] for e in per_chunk] == list(range(1, 10))
        assert not [e for e in tracer.events if e.name == "lookback_summary"]

    def test_large_multi_tile_solve_emits_one_summary(self, monkeypatch):
        chunks = LOOKBACK_SUMMARY_THRESHOLD + 16
        tracer = self._trace_solve(chunks, monkeypatch)
        summaries = [e for e in tracer.events if e.name == "lookback_summary"]
        assert len(summaries) == 1
        assert summaries[0].args == {"first_chunk": 1, "chunks": chunks - 1, "distance": 1}
        assert not [e for e in tracer.events if e.name == "lookback"]


class TestTiledArtifacts:
    @pytest.mark.parametrize(
        "name,dtype", [("prefix_sum", np.int32), ("high_pass_2", np.float64)]
    )
    def test_partial_is_phase1_of_padded_input(self, name, dtype, monkeypatch, rng):
        monkeypatch.setattr(tiled, "TILE_BYTES", 1)
        signature = TABLE1[name]
        n = 5 * CHUNK + 7
        values = values_for(dtype, n, rng)
        plan = tile_plan(signature, n)
        solver = PLRSolver(signature)
        out, artifacts = solver.solve_with_artifacts(values, plan=plan, dtype=dtype)
        padded = np.zeros(plan.padded_n, dtype=dtype)
        padded[:n] = solver.recurrence.apply_map_stage(values)
        np.testing.assert_array_equal(
            artifacts.partial, phase1(padded, artifacts.table, X)
        )
        np.testing.assert_array_equal(out, solver.solve(values, plan=plan, dtype=dtype))
