"""The multicore sharded backend: slabs, the affine scan, and faults.

The headline contract (see docs/parallel.md): for integer dtypes the
process backend is *bit-identical* to the single-process solver — the
scan's reassociation happens in a wraparound-arithmetic ring — and for
floats it agrees within the library tolerance.  The tests here force
small chunk sizes so a few thousand values already span many slabs and
exercise every boundary case (uneven spans, one-row slabs, single-chunk
inputs that bypass the pool entirely).
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coefficients import table1_signatures
from repro.core.errors import WorkerError
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.validation import compare_results
from repro.obs.profile import build_profile
from repro.obs.exporters import chrome_trace
from repro.obs.tracer import NULL_TRACER, TracePid, Tracer, merge_worker_events
from repro.parallel.scan import (
    affine_compose,
    affine_identity,
    exclusive_affine_scan,
)
from repro.parallel.sharding import ShardOptions, resolve_workers, slab_spans
from repro.plr.phase1 import thread_local_solve
from repro.plr.phase2 import LOOKBACK_SUMMARY_THRESHOLD
from repro.plr.nd import solve_batch
from repro.plr.solver import PLRSolver
from repro.batch.engine import BatchEngine
from repro.batch.solver import BatchSolver
from repro.resilience.solver import ResilientSolver
from repro.serve import ServeConfig


def small_plan(solver: PLRSolver, n: int, chunk: int = 64):
    """A many-chunk plan: chunk size 64 so small inputs span many slabs."""
    plan = solver.plan_for(n)
    return dataclasses.replace(
        plan,
        chunk_size=chunk,
        values_per_thread=1,
        num_chunks=-(-n // chunk),
    )


# ----------------------------------------------------------------------
# Slab partitioning


class TestSlabSpans:
    def test_even_split(self):
        assert slab_spans(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_extras(self):
        assert slab_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_fewer_items_than_slabs_drops_empty_spans(self):
        assert slab_spans(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_zero_items(self):
        assert slab_spans(0, 4) == []

    def test_single_slab(self):
        assert slab_spans(7, 1) == [(0, 7)]

    def test_validation(self):
        with pytest.raises(ValueError):
            slab_spans(-1, 2)
        with pytest.raises(ValueError):
            slab_spans(5, 0)

    @pytest.mark.parametrize("num_items,slabs", [(1, 1), (7, 3), (100, 7), (64, 64)])
    def test_spans_tile_the_range(self, num_items, slabs):
        spans = slab_spans(num_items, slabs)
        assert spans[0][0] == 0 and spans[-1][1] == num_items
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in spans]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1


class TestShardOptions:
    def test_defaults_are_safe(self):
        options = ShardOptions()
        assert options.workers is None and options.inject is None

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardOptions(workers=0)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardOptions(workers=-2)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ShardOptions(timeout_s=0.0)
        with pytest.raises(ValueError, match="timeout_s must be positive"):
            ShardOptions(timeout_s=-1.0)

    def test_rejects_unknown_injection(self):
        with pytest.raises(ValueError):
            ShardOptions(inject="explode")

    def test_resolve_workers_clamps_to_work(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 100) == 2
        assert resolve_workers(None, 5) >= 1
        assert resolve_workers(None, 0) == 0 or resolve_workers(None, 1) == 1

    def test_resolve_workers_single_chunk_means_one(self):
        assert resolve_workers(8, 1) == 1
        assert resolve_workers(None, 1) == 1

    def test_resolve_workers_never_below_one(self):
        assert resolve_workers(4, 0) == 1

    def test_oversubscribed_pool_matches_vectorized(self):
        # workers > num_chunks: the pool clamps to the available slabs
        # and the sharded output is still exact.
        from repro.plr.solver import PLRSolver

        values = np.arange(1, 401, dtype=np.int32)
        sharded = PLRSolver(
            "(1: 2, -1)",
            backend="process",
            shard_options=ShardOptions(workers=6),
        ).solve(values)
        single = PLRSolver("(1: 2, -1)").solve(values)
        assert np.array_equal(sharded, single)


# ----------------------------------------------------------------------
# The affine scan


def sequential_exclusive_prefixes(summaries, k, dtype):
    """The obvious serial reference: result[i] composes summaries[:i]."""
    prefixes = [affine_identity(k, dtype)]
    for summary in summaries[:-1]:
        prefixes.append(affine_compose(summary, prefixes[-1]))
    # prefixes[i] must equal summaries[i-1] ∘ ... ∘ summaries[0]; rebuild
    # directly to avoid depending on the composition order under test.
    out = [affine_identity(k, dtype)]
    for i in range(1, len(summaries)):
        acc = summaries[0]
        for s in summaries[1:i]:
            acc = affine_compose(acc, s)
        out.append(acc)
    return out


class TestAffineScan:
    def test_identity_and_compose(self):
        eye, zero = affine_identity(3, np.dtype(np.int64))
        assert np.array_equal(eye, np.eye(3, dtype=np.int64))
        assert np.array_equal(zero, np.zeros(3, dtype=np.int64))
        rng = np.random.default_rng(0)
        a = (rng.integers(-3, 3, (3, 3)), rng.integers(-3, 3, 3))
        x = rng.integers(-5, 5, 3)
        composed = affine_compose(a, affine_identity(3, np.dtype(np.int64)))
        assert np.array_equal(composed[0] @ x + composed[1], a[0] @ x + a[1])

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 8, 13])
    def test_matches_sequential_composition_int(self, count):
        rng = np.random.default_rng(count)
        k = 2
        summaries = [
            (
                rng.integers(-4, 4, (k, k)).astype(np.int64),
                rng.integers(-9, 9, k).astype(np.int64),
            )
            for _ in range(count)
        ]
        scanned = exclusive_affine_scan(summaries, k, np.dtype(np.int64))
        expected = sequential_exclusive_prefixes(summaries, k, np.dtype(np.int64))
        assert len(scanned) == count
        for (sa, sb), (ea, eb) in zip(scanned, expected):
            assert np.array_equal(sa, ea)
            assert np.array_equal(sb, eb)

    def test_matches_sequential_composition_float(self):
        rng = np.random.default_rng(7)
        k = 3
        summaries = [
            (rng.standard_normal((k, k)), rng.standard_normal(k))
            for _ in range(6)
        ]
        scanned = exclusive_affine_scan(summaries, k, np.dtype(np.float64))
        expected = sequential_exclusive_prefixes(summaries, k, np.dtype(np.float64))
        for (sa, sb), (ea, eb) in zip(scanned, expected):
            np.testing.assert_allclose(sa, ea, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(sb, eb, rtol=1e-12, atol=1e-12)

    def test_empty(self):
        assert exclusive_affine_scan([], 2, np.dtype(np.int64)) == []

    def test_first_prefix_is_identity(self):
        rng = np.random.default_rng(1)
        summaries = [(rng.integers(-3, 3, (2, 2)), rng.integers(-3, 3, 2))]
        (a, b), = exclusive_affine_scan(summaries, 2, np.dtype(np.int64))
        assert np.array_equal(a, np.eye(2, dtype=np.int64))
        assert np.array_equal(b, np.zeros(2, dtype=np.int64))


# ----------------------------------------------------------------------
# Process backend == single backend


INT_CASES = [
    ("(1: 2, -1)", np.int32),
    ("(1: 1)", np.int64),
    ("(1: 1, 1)", np.int32),
]


class TestProcessBackendEquality:
    @pytest.mark.parametrize("signature,dtype", INT_CASES)
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_integers_bit_identical(self, signature, dtype, workers):
        n = 64 * 13 + 17  # uneven slabs and a padded tail
        rng = np.random.default_rng(workers)
        values = rng.integers(-100, 100, n).astype(dtype)

        single = PLRSolver(signature)
        expected = single.solve(values, plan=small_plan(single, n))

        sharded = PLRSolver(signature, backend="process", workers=workers)
        got = sharded.solve(values, plan=small_plan(sharded, n))
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_floats_within_tolerance(self):
        n = 64 * 11 + 5
        rng = np.random.default_rng(3)
        values = rng.standard_normal(n).astype(np.float64)
        single = PLRSolver("(1: 1.5, -0.6)")
        expected = single.solve(values, plan=small_plan(single, n), dtype=np.float64)
        sharded = PLRSolver("(1: 1.5, -0.6)", backend="process", workers=5)
        got = sharded.solve(values, plan=small_plan(sharded, n), dtype=np.float64)
        assert compare_results(got, expected).ok

    def test_single_chunk_runs_inline(self):
        # n smaller than one chunk: the pool path short-circuits and the
        # arithmetic is the single-process path verbatim.
        values = np.arange(17, dtype=np.int32)
        solver = PLRSolver("(1: 2, -1)", backend="process", workers=4)
        expected = serial_full(values, Recurrence.parse("(1: 2, -1)").signature)
        assert np.array_equal(solver.solve(values), expected)

    def test_matches_serial_reference(self):
        n = 64 * 9
        values = np.random.default_rng(5).integers(-50, 50, n).astype(np.int32)
        solver = PLRSolver("(1: 2, -1)", backend="process", workers=3)
        got = solver.solve(values, plan=small_plan(solver, n))
        expected = serial_full(values, solver.recurrence.signature)
        assert np.array_equal(got, expected)

    def test_process_backend_exposes_no_partial(self):
        n = 64 * 6
        values = np.ones(n, dtype=np.int32)
        solver = PLRSolver("(1: 1)", backend="process", workers=2)
        out, artifacts = solver.solve_with_artifacts(values, plan=small_plan(solver, n))
        assert artifacts.partial is None
        assert np.array_equal(out, np.arange(1, n + 1, dtype=np.int32))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            PLRSolver("(1: 1)", backend="threads")


class TestBatchSharding:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            BatchSolver("(1: 1)", backend="gpu")


class TestOnlyPLRSolverShards:
    """``"process"`` is a backend name only :class:`PLRSolver` takes;
    every other CPU entry point runs in this process and refuses it as
    it refuses any unknown name."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BatchSolver("(1: 1)", backend="process"),
            lambda: solve_batch(np.ones((2, 8), np.int32), "(1: 1)", backend="process"),
            lambda: BatchEngine(backend="process"),
            lambda: ResilientSolver("(1: 1)", backend="process"),
            lambda: ServeConfig(backend="process"),
        ],
        ids=["BatchSolver", "solve_batch", "BatchEngine", "ResilientSolver", "ServeConfig"],
    )
    def test_other_entry_points_refuse_it(self, build):
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            build()

    def test_plr_serve_refuses_it(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--self-test", "--backend", "process"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_property_process_equals_single(data):
    """Random signature × length × worker count: sharded == single.

    Bit-identical for the integer draw (wraparound arithmetic is a
    ring — reassociating the carry scan changes nothing), tolerance
    comparison for the float draw.
    """
    signature, dtype = data.draw(
        st.sampled_from(
            [
                ("(1: 1)", np.int64),
                ("(1: 2, -1)", np.int32),
                ("(1: 1, 1)", np.int64),
                ("(1: 1.5, -0.6)", np.float64),
            ]
        ),
        label="case",
    )
    n = data.draw(st.integers(min_value=65, max_value=900), label="n")
    workers = data.draw(st.sampled_from([1, 2, 7]), label="workers")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    if np.issubdtype(np.dtype(dtype), np.integer):
        values = rng.integers(-100, 100, n).astype(dtype)
    else:
        values = rng.standard_normal(n).astype(dtype)

    single = PLRSolver(signature)
    expected = single.solve(values, plan=small_plan(single, n), dtype=dtype)
    sharded = PLRSolver(signature, backend="process", workers=workers)
    got = sharded.solve(values, plan=small_plan(sharded, n), dtype=dtype)

    if np.issubdtype(np.dtype(dtype), np.integer):
        assert np.array_equal(got, expected)
    else:
        assert compare_results(got, expected).ok


# ----------------------------------------------------------------------
# Failure semantics


class TestWorkerFaults:
    def test_dead_worker_raises_typed_error(self):
        n = 64 * 8
        values = np.ones(n, dtype=np.int32)
        solver = PLRSolver(
            "(1: 1)",
            backend="process",
            shard_options=ShardOptions(workers=2, inject="die"),
        )
        with pytest.raises(WorkerError, match="died"):
            solver.solve(values, plan=small_plan(solver, n))

    def test_hung_worker_times_out(self):
        n = 64 * 8
        values = np.ones(n, dtype=np.int32)
        solver = PLRSolver(
            "(1: 1)",
            backend="process",
            shard_options=ShardOptions(workers=2, timeout_s=1.0, inject="hang"),
        )
        with pytest.raises(WorkerError, match="did not finish"):
            solver.solve(values, plan=small_plan(solver, n))


# ----------------------------------------------------------------------
# Memory and hot-path regressions


class TestInPlaceCorrection:
    # The single backend streams the solve through tiles of at most
    # phase2.TILE_BYTES (1 MiB), so its one full-size allocation is the
    # output buffer.  The tiles' scratch is a fixed few MiB, so the
    # buffers here are 16 MiB: large enough for 1.25x to pin that.
    N = 1 << 22

    def _peak(self, solver, values, plan):
        solver.solve(values[: plan.chunk_size], plan=plan)  # warm caches
        tracemalloc.start()
        out = solver.solve(values, plan=plan)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return out, peak

    def test_solve_peak_memory_stays_near_one_buffer(self):
        # 4096 chunks of 1024: the padded length equals n.
        values = np.ones(self.N, dtype=np.int32)
        solver = PLRSolver("(1: 1)")
        plan = dataclasses.replace(
            solver.plan_for(self.N), chunk_size=1024, values_per_thread=1, num_chunks=4096
        )
        assert plan.padded_n == self.N
        out, peak = self._peak(solver, values, plan)
        assert out[-1] == self.N
        assert peak < 1.25 * values.nbytes, (
            f"peak {peak / 2**20:.1f} MiB vs input {values.nbytes / 2**20:.1f} MiB"
        )

    def test_map_stage_solve_peak_memory_stays_near_one_buffer(self):
        values = np.random.default_rng(3).standard_normal(self.N).astype(np.float32)
        solver = PLRSolver(table1_signatures()["high_pass_2"])
        out, peak = self._peak(solver, values, solver.plan_for(self.N))
        assert compare_results(out[:4096], serial_full(values[:4096], solver.recurrence.signature)).ok
        assert peak < 1.25 * values.nbytes, (
            f"peak {peak / 2**20:.1f} MiB vs input {values.nbytes / 2**20:.1f} MiB"
        )

    def test_artifacts_keep_pristine_partial(self):
        n = 64 * 5
        values = np.ones(n, dtype=np.int64)
        solver = PLRSolver("(1: 1)")
        plan = small_plan(solver, n)
        out, artifacts = solver.solve_with_artifacts(values, plan=plan)
        # The partial is the *local* result: chunk c restarts from zero
        # history, so its first element is the raw input, not the prefix.
        assert artifacts.partial is not None
        assert artifacts.partial[1, 0] == 1
        assert out[64] == 65


class TestThreadLocalSolve:
    def test_matches_naive_reference_bit_for_bit(self):
        rng = np.random.default_rng(2)
        chunks = rng.standard_normal((8, 7))
        feedback = [0.9, -0.5]
        expected = chunks.copy()
        for row in expected:
            for i in range(1, 7):
                for j in range(1, min(i, 2) + 1):
                    row[i] += row[i - j] * feedback[j - 1]
        got = chunks.copy()
        thread_local_solve(got, feedback, 7)
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Observability


class TestWorkerTracing:
    def test_worker_events_merge_into_host_trace(self):
        n = 64 * 8
        values = np.ones(n, dtype=np.int32)
        solver = PLRSolver("(1: 1)", backend="process", workers=2, tracer=True)
        solver.solve(values, plan=small_plan(solver, n))
        worker_pids = {
            e.pid for e in solver.tracer.events if e.pid >= TracePid.WORKER_BASE
        }
        assert TracePid.worker(0) in worker_pids
        assert TracePid.worker(1) in worker_pids
        names = {e.name for e in solver.tracer.events if e.pid >= TracePid.WORKER_BASE}
        assert "phase1_slab" in names
        assert "phase2_slab" in names
        payload = json.dumps(chrome_trace(solver.tracer))
        assert "worker-0" in payload and "worker-1" in payload

    def test_merge_is_noop_on_disabled_tracer(self):
        worker = Tracer()
        with worker.span("x", cat="test"):
            pass
        merge_worker_events(NULL_TRACER, 0, worker.events)  # must not raise

    def test_merge_remaps_pid(self):
        worker = Tracer()
        worker.instant("probe", cat="test")
        host = Tracer()
        merge_worker_events(host, 3, worker.events)
        assert [e.pid for e in host.events] == [TracePid.worker(3)]
        assert TracePid.name(TracePid.worker(3)) == "worker-3"


class TestLookbackSummary:
    def _trace_solve(self, num_chunks: int) -> Tracer:
        n = 64 * num_chunks
        solver = PLRSolver("(1: 1)", tracer=True)
        solver.solve(np.ones(n, dtype=np.int64), plan=small_plan(solver, n))
        return solver.tracer

    def test_large_runs_emit_one_summary_event(self):
        chunks = LOOKBACK_SUMMARY_THRESHOLD + 16  # 80
        tracer = self._trace_solve(chunks)
        summaries = [e for e in tracer.events if e.name == "lookback_summary"]
        per_chunk = [e for e in tracer.events if e.name == "lookback"]
        assert len(summaries) == 1 and not per_chunk
        assert summaries[0].args == {
            "first_chunk": 1,
            "chunks": chunks - 1,
            "distance": 1,
        }

    def test_small_runs_keep_per_chunk_events(self):
        tracer = self._trace_solve(10)
        per_chunk = [e for e in tracer.events if e.name == "lookback"]
        summaries = [e for e in tracer.events if e.name == "lookback_summary"]
        assert len(per_chunk) == 9 and not summaries

    def test_profile_consumes_summary_form(self):
        chunks = LOOKBACK_SUMMARY_THRESHOLD + 16
        tracer = self._trace_solve(chunks)
        profile = build_profile(tracer.events, num_chunks=chunks)
        assert profile.lookback_histogram == {1: chunks - 1}
        assert profile.critical_path_length == chunks

    def test_profile_reads_both_forms_identically(self):
        small = build_profile(self._trace_solve(10).events, num_chunks=10)
        assert small.lookback_histogram == {1: 9}
        assert small.critical_path_length == 10
