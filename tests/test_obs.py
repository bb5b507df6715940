"""The observability subsystem: tracer, metrics, exporters, profiling.

Covers the ``repro.obs`` contracts end to end:

* disabled tracing is free — outputs bit-identical, runtime within 5%
  of an un-instrumented baseline pipeline;
* Chrome trace-event JSON is schema-valid and deterministic per seed;
* the look-back histogram and critical path match a hand-computed
  4-chunk order-2 case;
* metrics snapshots round-trip losslessly, including through
  ``SolveReport``;
* ``plr trace`` / ``plr profile`` produce parseable artifacts.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.obs.exporters import chrome_trace, timeline_svg, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    global_metrics,
)
from repro.obs.profile import build_profile, profile_simulation
from repro.obs.tracer import NULL_TRACER, TracePid, Tracer, coerce_tracer
from repro.plr.optimizer import optimize_factors
from repro.plr import tiled
from repro.plr.phase1 import phase1_inplace, phase1_scratch
from repro.plr.phase2 import transition_matrix
from repro.plr.solver import PLRSolver, clear_factor_cache, factor_cache_stats

pytestmark = pytest.mark.tier1


class TestTracer:
    def test_span_and_instant_events(self):
        tracer = Tracer()
        with tracer.span("outer", cat="t", args={"k": 1}):
            tracer.instant("mark", cat="t", tid=3)
        assert [e.name for e in tracer.events] == ["mark", "outer"]
        mark, outer = tracer.events
        assert mark.ph == "i" and mark.tid == 3
        assert outer.ph == "X" and outer.dur is not None and outer.dur >= 0
        assert outer.args == {"k": 1}

    def test_use_clock_makes_timestamps_logical(self):
        tracer = Tracer()
        steps = iter(range(100))
        with tracer.use_clock(lambda: float(next(steps))):
            tracer.instant("a")
            tracer.instant("b")
        assert [e.ts for e in tracer.events] == [0.0, 1.0]
        # The wall clock is restored afterwards.
        tracer.instant("c")
        assert tracer.events[-1].ts != 2.0

    def test_ring_buffer_drops_oldest_half(self):
        tracer = Tracer(max_events=10)
        for i in range(11):
            tracer.instant(f"e{i}")
        assert len(tracer.events) == 6  # dropped 5, appended the 11th
        assert tracer.events[0].name == "e5"
        assert tracer.events[-1].name == "e10"

    def test_tail_filters_by_tid(self):
        tracer = Tracer()
        for i in range(6):
            tracer.instant("e", tid=i % 2)
        tail = tracer.tail(2, tid=0)
        assert len(tail) == 2
        assert all(e.tid == 0 for e in tail)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x"):
            NULL_TRACER.instant("y")
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.tail(5) == []
        assert not NULL_TRACER.enabled

    def test_coerce(self):
        assert coerce_tracer(None) is NULL_TRACER
        assert coerce_tracer(False) is NULL_TRACER
        assert isinstance(coerce_tracer(True), Tracer)
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer
        with pytest.raises(TypeError):
            coerce_tracer("yes")


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        assert registry.counters["c"].value == 3
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_percentiles_exact_for_unit_buckets(self):
        hist = Histogram()
        for value in (1, 1, 1, 2, 2, 3):
            hist.observe(value)
        assert hist.count == 6
        assert hist.mean == pytest.approx(10 / 6)
        assert hist.percentile(50) == pytest.approx(1.0)
        # 3 lands in the (2, 4] bucket; percentiles resolve to bucket bounds.
        assert hist.percentile(100) == pytest.approx(4.0)

    def test_histogram_overflow_clamps(self):
        hist = Histogram(buckets=(1, 2))
        hist.observe(99)
        assert hist.counts[-1] == 1
        assert hist.percentile(99) == 2.0

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(7)
        registry.gauge("depth").set(3.5)
        hist = registry.histogram("dist")
        for value in (1, 2, 2, 17):
            hist.observe(value)
        snap = registry.snapshot()
        json.dumps(snap)  # must be JSON-serializable
        assert MetricsRegistry.from_snapshot(snap).snapshot() == snap


class TestOverhead:
    """Disabled tracing must cost (essentially) nothing."""

    N = 1 << 20

    def _raw_pipeline(self, solver, values, plan, dtype):
        """The solve re-composed from the tiled pass's own helpers.

        The same steps :func:`repro.plr.tiled.solve_tiled` takes — tile
        bounds, fill, Phase 1, correction — with the null tracer and no
        spans, plan or artifacts around them, so the difference to
        ``solver.solve`` is the instrumentation alone.
        """
        table = solver.factor_table(plan, dtype)
        optimize_factors(table, solver.optimization)
        m = table.chunk_size
        rows = values.reshape(1, -1)
        chunks = rows.shape[1] // m
        out = np.empty((1, chunks * m), dtype=dtype)
        matrix = transition_matrix(table)
        tiles = list(tiled._tiles(1, chunks, m * out.itemsize))
        tile_chunks = max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in tiles)
        scratch = phase1_scratch(tile_chunks * m, dtype)
        feedforward = [float(a) for a in solver.recurrence.signature.feedforward]
        feedforward = None if feedforward == [1] else feedforward
        carry = None
        for r0, r1, c0, c1 in tiles:
            tile = out[r0:r1, c0 * m : c1 * m]
            tiled._fill(tile, rows[r0:r1], c0 * m, feedforward, scratch[0])
            phase1_inplace(
                tile.reshape(-1, m), table, plan.values_per_thread, scratch=scratch
            )
            carry = tiled._correct(
                tile.reshape(r1 - r0, c1 - c0, m),
                table,
                matrix,
                carry if c0 else None,
                NULL_TRACER,
                scratch[0],
            )
        return out.reshape(-1)

    def test_disabled_tracer_under_5_percent(self):
        solver = PLRSolver("(1 : 0.9)")  # tracer=None -> NULL_TRACER
        # Pick an n that is a whole number of chunks so the raw pipeline
        # and the solver do identical work (no padding on either side).
        n = self.N
        for _ in range(4):
            plan = solver.plan_for(n)
            if n % plan.chunk_size == 0:
                break
            n = -(-n // plan.chunk_size) * plan.chunk_size
        assert n % plan.chunk_size == 0
        values = np.random.default_rng(0).standard_normal(n).astype(np.float32)
        dtype = np.dtype(np.float32)

        # Warm the factor cache and numpy so neither side pays it.
        baseline_out = self._raw_pipeline(solver, values, plan, dtype)
        solved = solver.solve(values, plan=plan, dtype=dtype)
        np.testing.assert_array_equal(solved, baseline_out)

        for margin_attempt in range(3):
            baseline = min(
                self._time(lambda: self._raw_pipeline(solver, values, plan, dtype))
                for _ in range(5)
            )
            instrumented = min(
                self._time(lambda: solver.solve(values, plan=plan, dtype=dtype))
                for _ in range(5)
            )
            if instrumented <= baseline * 1.05:
                return
        pytest.fail(
            f"disabled tracing cost {instrumented / baseline - 1:.1%} "
            "(must be < 5%)"
        )

    @staticmethod
    def _time(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def test_tracing_never_changes_outputs(self):
        values = np.random.default_rng(1).standard_normal(1 << 14).astype(np.float32)
        untraced = PLRSolver("(1 : 0.9)").solve(values)
        traced = PLRSolver("(1 : 0.9)", tracer=True).solve(values)
        np.testing.assert_array_equal(untraced, traced)

    def test_tracing_never_changes_simulator_outputs(self, test_gpu):
        from repro.gpusim.executor import SimulatedPLR

        rec = Recurrence.parse("(1 : 1, 1)")
        values = np.random.default_rng(2).integers(-9, 9, 2048).astype(np.int32)
        plain = SimulatedPLR(rec, test_gpu, seed=3).run(values)
        traced_tracer = Tracer()
        traced = SimulatedPLR(rec, test_gpu, seed=3, tracer=traced_tracer).run(values)
        np.testing.assert_array_equal(plain.output, traced.output)
        assert plain.schedule_steps == traced.schedule_steps
        assert len(traced_tracer.events) > 0


class TestChromeTrace:
    VALID_PHASES = {"X", "i", "C", "M"}

    def test_schema(self, test_gpu):
        from repro.gpusim.executor import SimulatedPLR

        tracer = Tracer()
        rec = Recurrence.parse("(1 : 1)")
        values = np.arange(512, dtype=np.int32)
        SimulatedPLR(rec, test_gpu, seed=0, tracer=tracer).run(values)
        trace = chrome_trace(tracer)

        json.loads(json.dumps(trace))  # serializable both ways
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        assert events, "simulated run must emit events"
        for event in events:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ph"] in self.VALID_PHASES
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Every pid present is named by an M metadata record.
        named = {
            e["pid"] for e in events if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {e["pid"] for e in events} <= named | {TracePid.HOST} or named

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer()
        tracer.instant("only")
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["event_count"] == 1


class TestPipelineProfile:
    def test_hand_computed_4_chunk_order_2(self):
        """4 chunks, order 2: chunk1<-0 (d1), chunk2<-0 (d2), chunk3<-2 (d1)."""
        tracer = Tracer()
        ticks = iter(range(100))
        with tracer.use_clock(lambda: float(next(ticks))):
            for chunk, base in ((1, 0), (2, 0), (3, 2)):
                tracer.instant(
                    "lookback",
                    cat="sim",
                    pid=TracePid.SIM,
                    tid=chunk,
                    args={"chunk": chunk, "base": base, "distance": chunk - base},
                )
            tracer.instant("spin", cat="sim", pid=TracePid.SIM, tid=2)
            tracer.instant("spin", cat="sim", pid=TracePid.SIM, tid=2)

        profile = build_profile(
            tracer.events, signature="(1: 1, 1)", n=64, chunk_size=16, num_chunks=4
        )
        assert profile.lookback_histogram == {1: 2, 2: 1}
        assert profile.mean_lookback == pytest.approx(4 / 3)
        assert profile.max_lookback == 2
        assert profile.stall_steps_per_chunk == {2: 2}
        assert profile.total_stall_steps == 2
        # Depths: chunk0=1, chunk1=2, chunk2=2, chunk3=depth(2)+1=3.
        assert profile.critical_path_length == 3
        json.dumps(profile.to_json())

    def test_profile_simulation_deterministic(self):
        first, tracer_a, _, _ = profile_simulation("(1 : 1,1)", 4096, seed=0)
        second, tracer_b, _, _ = profile_simulation("(1 : 1,1)", 4096, seed=0)
        assert tracer_a.events == tracer_b.events
        assert first.to_json() == second.to_json()
        assert first.num_chunks == 256
        assert first.lookback_count == first.num_chunks - 1
        # Decoupled look-back must beat the serial carry chain.
        assert first.critical_path_length < first.num_chunks

    def test_profile_matches_simulator_result(self):
        profile, _, metrics, result = profile_simulation("(1 : 1)", 2048, seed=1)
        assert profile.schedule_steps == result.schedule_steps
        assert sorted(
            d for d, c in profile.lookback_histogram.items() for _ in range(c)
        ) == sorted(result.lookback_distances)
        hist = metrics.histograms["sim.lookback_distance"]
        assert hist.count == len(result.lookback_distances)

    def test_timeline_svg_renders(self):
        _, tracer, _, _ = profile_simulation("(1 : 1)", 1024, seed=0)
        svg = timeline_svg(tracer, title="test run")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "test run" in svg
        assert svg.count("<rect") > 1  # background + at least one chunk bar


class TestSolverIntegration:
    def test_solver_emits_phase_spans_and_lookbacks(self):
        tracer = Tracer()
        solver = PLRSolver("(1 : 1)", tracer=tracer)
        values = np.arange(5000, dtype=np.int64)
        out = solver.solve(values)
        np.testing.assert_array_equal(
            out, serial_full(values, solver.recurrence.signature)
        )
        names = {e.name for e in tracer.events}
        # An integer prefix sum's Phase 1 is one running sum, no merges.
        assert {"plan", "factor_table", "phase1", "phase2", "running_sum"} <= names
        assert "merge_level" not in names
        lookbacks = [e for e in tracer.events if e.name == "lookback"]
        assert lookbacks and all(e.args["distance"] == 1 for e in lookbacks)

    def test_float_solver_emits_segment_solve_spans(self):
        tracer = Tracer()
        solver = PLRSolver("(1 : 1)", tracer=tracer)
        values = np.arange(5000, dtype=np.float64)
        out = solver.solve(values)
        np.testing.assert_array_equal(
            out, serial_full(values, solver.recurrence.signature)
        )
        names = {e.name for e in tracer.events}
        # A float Phase 1 is one segment solve (matrix products), no merges.
        assert {"plan", "factor_table", "phase1", "phase2", "segment_solve"} <= names
        assert not {"merge_level", "running_sum"} & names

    def test_general_integer_solver_emits_merge_level_spans(self):
        tracer = Tracer()
        solver = PLRSolver("(1 : 1, 1)", tracer=tracer)
        values = np.arange(5000, dtype=np.int64)
        out = solver.solve(values)
        np.testing.assert_array_equal(
            out, serial_full(values, solver.recurrence.signature)
        )
        names = {e.name for e in tracer.events}
        assert {"plan", "factor_table", "phase1", "phase2", "merge_level"} <= names
        assert not {"segment_solve", "running_sum"} & names

    def test_factor_cache_stats_mirror_lru(self):
        clear_factor_cache()
        solver = PLRSolver("(1 : 0.5)")
        values = np.ones(4096, dtype=np.float32)
        solver.solve(values)
        solver.solve(values)
        stats = factor_cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert stats["size"] >= 1
        gauges = global_metrics().snapshot()["gauges"]
        assert gauges["factor_cache.hits"] == stats["hits"]
        assert gauges["factor_cache.misses"] == stats["misses"]
        assert gauges["factor_cache.size"] == stats["size"]

    def test_factor_table_build_counters(self):
        from repro.core.signature import Signature
        from repro.plr.factors import CorrectionFactorTable

        registry = global_metrics()
        builds_before = registry.counter("factor_table.builds").value
        risk_before = registry.counter("factor_table.overflow_risk").value
        # rho = 1.05 at m=4096: 1.05^4095 >> float32 max, fits in float64.
        table = CorrectionFactorTable.build(
            Signature.parse("(1: 1.05)"), 4096, np.float32
        )
        assert table.overflow_risk
        assert registry.counter("factor_table.builds").value == builds_before + 1
        assert registry.counter("factor_table.overflow_risk").value == risk_before + 1


class TestSolveReportMetrics:
    def test_metrics_snapshot_round_trips_through_report(self):
        from repro.resilience.solver import ResilientSolver

        values = np.random.default_rng(5).standard_normal(512).astype(np.float32)
        solver = ResilientSolver("(1 : 1)", engine="sim", tracer=True)
        report = solver.solve_with_report(values)
        assert report.ok
        assert report.metrics is not None
        json.dumps(report.metrics)
        restored = MetricsRegistry.from_snapshot(report.metrics)
        assert restored.snapshot() == report.metrics
        assert report.metrics["counters"]["resilience.attempts"] == 1
        assert report.metrics["counters"]["sim.blocks_started"] >= 1

    def test_fault_chain_counts_and_traces(self, test_gpu):
        from repro.gpusim.faults import FaultKind, FaultPlan
        from repro.resilience.solver import FallbackPolicy, ResilientSolver

        values = np.arange(160, dtype=np.int32)
        solver = ResilientSolver(
            "(1 : 1)",
            machine=test_gpu,
            engine="sim",
            fault=FaultPlan.single(FaultKind.BIT_FLIP_CARRY, bit=30),
            policy=FallbackPolicy(max_retries=1),
            tracer=True,
        )
        report = solver.solve_with_report(values)
        assert report.ok and report.engine == "serial"
        counters = report.metrics["counters"]
        assert counters["resilience.faults_fired"] >= 1
        assert counters["resilience.attempts"] >= 3  # corrupt, corrupt, serial
        assert counters["resilience.retries"] == 1
        assert counters["resilience.serial_fallbacks"] == 1
        names = [e.name for e in solver.tracer.events]
        assert "attempt" in names and "fallback" in names


class TestDeadlockTraceTails:
    def test_deadlock_error_carries_trace_tail(self, test_gpu):
        from repro.core.errors import DeadlockError
        from repro.gpusim.executor import SimulatedPLR
        from repro.gpusim.faults import FaultKind, FaultPlan

        rec = Recurrence.parse("(1: 1)")
        values = np.arange(400, dtype=np.int32)
        sim = SimulatedPLR(
            rec,
            test_gpu,
            seed=0,
            fault=FaultPlan.single(FaultKind.DROP_GLOBAL_FLAG, chunks=(0,)),
            deadlock_rounds=60,
            tracer=Tracer(),
        )
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(values)
        err = excinfo.value
        assert err.trace_tails, "tracing was on: tails must be attached"
        for chunk_id, tail in err.trace_tails.items():
            assert all(e.tid == chunk_id for e in tail)
            assert any(e.name == "spin" for e in tail)
        assert "trace tail:" in str(err)
        assert "spin x" in str(err)  # run-compressed rendering

    def test_without_tracer_no_tails(self, test_gpu):
        from repro.core.errors import DeadlockError
        from repro.gpusim.executor import SimulatedPLR
        from repro.gpusim.faults import FaultKind, FaultPlan

        rec = Recurrence.parse("(1: 1)")
        values = np.arange(400, dtype=np.int32)
        sim = SimulatedPLR(
            rec,
            test_gpu,
            seed=0,
            fault=FaultPlan.single(FaultKind.DROP_GLOBAL_FLAG, chunks=(0,)),
            deadlock_rounds=60,
        )
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(values)
        assert excinfo.value.trace_tails == {}


class TestCli:
    def test_profile_smoke(self, tmp_path, capsys):
        """The CI smoke command: trace parses, timeline SVG is non-empty."""
        from repro.cli import main

        outdir = tmp_path / "prof"
        assert (
            main(["profile", "(1 : 1,1)", "--n", "4096", "--outdir", str(outdir)])
            == 0
        )
        trace = json.loads((outdir / "trace.json").read_text())
        assert trace["traceEvents"]
        profile = json.loads((outdir / "profile.json").read_text())
        assert profile["num_chunks"] == 256
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["metrics"]["counters"]["sim.blocks_started"] == 256
        svg = (outdir / "timeline.svg").read_text()
        assert svg.startswith("<svg") and len(svg) > 1000
        out = capsys.readouterr().out
        assert "look-back" in out and "critical path" in out

    def test_trace_command(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert (
            main(["trace", "(1 : 1)", "-n", "2048", "--engine", "solver",
                  "-o", str(path)])
            == 0
        )
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "phase1" in names and "phase2" in names

    def test_info_prints_cache_stats(self, capsys):
        from repro.cli import main

        assert main(["info", "(1: 2, -1)"]) == 0
        out = capsys.readouterr().out
        assert "factor cache" in out


class TestHistogramEdgeCases:
    """Pinned percentile/observe edge behaviour: never raises (except
    for the documented cases), never NaN, for any histogram contents."""

    def test_empty_histogram_percentiles_are_zero(self):
        hist = Histogram()
        for p in (0, 1, 50, 99, 100):
            assert hist.percentile(p) == 0.0
        assert hist.mean == 0.0

    def test_p0_returns_lower_edge_of_first_occupied_bucket(self):
        hist = Histogram(buckets=(1, 2, 4, 8))
        hist.observe(3)  # (2, 4] bucket
        assert hist.percentile(0) == 2.0
        first = Histogram(buckets=(1, 2))
        first.observe(1)
        assert first.percentile(0) == 0.0

    def test_p100_returns_upper_edge_of_last_occupied_bucket(self):
        hist = Histogram(buckets=(1, 2, 4, 8))
        hist.observe(1)
        hist.observe(3)
        assert hist.percentile(100) == 4.0

    def test_all_overflow_clamps_to_largest_bound(self):
        hist = Histogram(buckets=(1, 2))
        for _ in range(5):
            hist.observe(1000)
        for p in (0, 50, 100):
            assert hist.percentile(p) == 2.0

    def test_out_of_range_p_raises(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_nan_observation_rejected_not_poisoning(self):
        # Regression: observe(nan) used to contaminate ``total`` so that
        # ``mean`` was NaN forever after, while the observation itself
        # hid in the overflow bucket.
        hist = Histogram()
        hist.observe(2)
        with pytest.raises(ValueError, match="finite"):
            hist.observe(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            hist.observe(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            hist.observe(float("-inf"))
        assert hist.count == 1
        assert hist.mean == 2.0
        assert hist.percentile(100) == 2.0
