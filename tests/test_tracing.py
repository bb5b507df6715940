"""Request-scoped tracing: context, sampling, SLO math, Prometheus.

The cross-process propagation contract — every span of one request
carries its trace_id and a resolvable parent_id, even spans shipped
back from pool workers — is exercised here at the solver level; the
full client-to-worker path through a live server is in
``test_serve_tracing.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.batch.engine import BatchEngine
from repro.batch.planner import BatchRequest
from repro.obs.context import (
    TraceContext,
    is_valid_id,
    new_span_id,
    new_trace_id,
)
from repro.obs.exporters import chrome_trace, prometheus_text
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.sampling import SamplingPolicy, TraceLog
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.tracer import TracePid, Tracer, merge_worker_events
from repro.parallel.backend import ShardOptions
from repro.plr.solver import PLRSolver

pytestmark = pytest.mark.tier1


def walk_links(events, trace_id):
    """All linked events of one trace + the orphaned parent references.

    An event is *orphaned* when its parent_id names a span no event in
    the buffer carries — a broken edge in the request tree.
    """
    linked = [
        e for e in events if e.link is not None and e.link.trace_id == trace_id
    ]
    span_ids = {e.link.span_id for e in linked}
    orphans = [
        e
        for e in linked
        if e.link.parent_id is not None and e.link.parent_id not in span_ids
    ]
    return linked, orphans


class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32 and is_valid_id(ctx.trace_id)
        assert len(ctx.span_id) == 16 and is_valid_id(ctx.span_id)
        assert ctx.parent_id is None and ctx.sampled

    def test_ids_are_collision_resistant(self):
        assert len({new_trace_id() for _ in range(256)}) == 256
        assert len({new_span_id() for _ in range(256)}) == 256

    def test_child_keeps_trace_and_parents_to_self(self):
        root = TraceContext.new(sampled=False)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.sampled is False  # head decision is inherited

    def test_wire_round_trip(self):
        ctx = TraceContext.new().child().with_sampled(False)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        # Wire form is minimal: defaults are omitted.
        root = TraceContext.new()
        assert set(root.to_wire()) == {"trace_id", "span_id"}

    @pytest.mark.parametrize(
        "wire",
        [
            "not a dict",
            {},
            {"trace_id": "XYZ", "span_id": "ab"},  # uppercase
            {"trace_id": "ab", "span_id": "g" * 16},  # non-hex
            {"trace_id": "a" * 65, "span_id": "ab"},  # too long
            {"trace_id": "ab", "span_id": "cd", "parent_id": ""},
            {"trace_id": "ab", "span_id": "cd", "sampled": "yes"},
        ],
    )
    def test_from_wire_rejects_malformed(self, wire):
        with pytest.raises(ValueError):
            TraceContext.from_wire(wire)


class TestSampling:
    def test_head_decision_is_deterministic_across_instances(self):
        # blake2b of the trace id, not Python's salted hash(): every
        # process and every restart must agree per trace.
        ids = [new_trace_id() for _ in range(200)]
        a = SamplingPolicy(head_rate=0.5)
        b = SamplingPolicy(head_rate=0.5)
        assert [a.sample_head(i) for i in ids] == [b.sample_head(i) for i in ids]

    def test_head_rate_extremes(self):
        keep_all = SamplingPolicy(head_rate=1.0)
        keep_none = SamplingPolicy(head_rate=0.0)
        for _ in range(32):
            tid = new_trace_id()
            assert keep_all.sample_head(tid)
            assert not keep_none.sample_head(tid)

    def test_head_rate_is_roughly_proportional(self):
        policy = SamplingPolicy(head_rate=0.25)
        kept = sum(policy.sample_head(new_trace_id()) for _ in range(4000))
        assert 700 < kept < 1300  # ~1000 expected; generous bounds

    def test_decision_reasons(self):
        policy = SamplingPolicy(head_rate=0.0, tail_slow_ms=100.0)
        assert (
            policy.decision(head_sampled=True, ok=True, latency_ms=1) == "head"
        )
        assert (
            policy.decision(head_sampled=False, ok=False, latency_ms=1)
            == "error"
        )
        assert (
            policy.decision(head_sampled=False, ok=True, latency_ms=500)
            == "slow"
        )
        assert policy.decision(head_sampled=False, ok=True, latency_ms=1) is None

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy(head_rate=1.5)
        with pytest.raises(ValueError):
            SamplingPolicy(tail_slow_ms=-1)

    def test_trace_log_tail_rescues_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = TraceLog(path, SamplingPolicy(head_rate=0.0, tail_slow_ms=50.0))
        with log:
            assert log.record(trace_id="aa", ok=True, latency_ms=1.0) is None
            assert (
                log.record(
                    trace_id="bb", ok=False, latency_ms=1.0, error="X"
                )
                == "error"
            )
            assert log.record(trace_id="cc", ok=True, latency_ms=80.0) == "slow"
        entries = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["trace_id"] for e in entries] == ["bb", "cc"]
        assert entries[0]["sampled"] == "error" and entries[0]["error"] == "X"
        assert log.stats() == {
            "path": str(path),
            "written": 2,
            "suppressed": 1,
        }

    def test_trace_log_never_opens_file_when_all_suppressed(self, tmp_path):
        path = tmp_path / "never.jsonl"
        log = TraceLog(
            path, SamplingPolicy(head_rate=0.0, tail_errors=False)
        )
        log.record(trace_id="aa", ok=False, latency_ms=1.0)
        assert not path.exists()


class TestSLOTracker:
    def make(self, **config):
        clock = {"t": 1000.0}
        config.setdefault("latency_objective_ms", 50.0)
        config.setdefault("target", 0.9)
        config.setdefault("windows_s", (60.0, 600.0))
        tracker = SLOTracker(SLOConfig(**config), clock=lambda: clock["t"])
        return tracker, clock

    def test_good_requires_ok_and_fast(self):
        tracker, _ = self.make()
        tracker.record(ok=True, latency_ms=10)  # good
        tracker.record(ok=True, latency_ms=200)  # slow -> bad
        tracker.record(ok=False, latency_ms=10)  # error -> bad
        report = tracker.report()
        assert report["total"] == 3 and report["good"] == 1
        assert report["attainment"] == pytest.approx(1 / 3)

    def test_error_budget_consumption(self):
        tracker, _ = self.make(target=0.9)
        for _ in range(9):
            tracker.record(ok=True, latency_ms=1)
        tracker.record(ok=False, latency_ms=1)
        budget = tracker.report()["error_budget"]
        # 1 bad in 10 at a 10% allowance: exactly the whole budget.
        assert budget["allowed_fraction"] == pytest.approx(0.1)
        assert budget["consumed_fraction"] == pytest.approx(1.0)
        assert budget["remaining_fraction"] == pytest.approx(0.0)

    def test_burn_rate_per_window(self):
        tracker, clock = self.make(target=0.9, windows_s=(60.0, 600.0))
        # 20% bad in the last minute = 2x the allowed 10% rate.
        for i in range(10):
            tracker.record(ok=i >= 2, latency_ms=1)
        short, long_ = tracker.report()["windows"]
        assert short["window_s"] == 60.0
        assert short["burn_rate"] == pytest.approx(2.0)
        assert long_["burn_rate"] == pytest.approx(2.0)
        # Advance past the short window: its burn drops to 0, the long
        # window still remembers.
        clock["t"] += 120.0
        tracker.record(ok=True, latency_ms=1)
        short, long_ = tracker.report()["windows"]
        assert short["total"] == 1 and short["burn_rate"] == 0.0
        assert long_["total"] == 11

    def test_eviction_beyond_horizon(self):
        tracker, clock = self.make(windows_s=(10.0,))
        tracker.record(ok=False, latency_ms=1)
        clock["t"] += 1_000.0
        tracker.record(ok=True, latency_ms=1)
        report = tracker.report()
        # Lifetime totals survive eviction; the window forgets.
        assert report["total"] == 2
        assert report["windows"][0]["total"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(target=1.0)
        with pytest.raises(ValueError):
            SLOConfig(latency_objective_ms=0)
        with pytest.raises(ValueError):
            SLOConfig(windows_s=())


class TestPrometheusExposition:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve.admitted").inc(3)
        registry.gauge("serve.queue_depth").set(2)
        hist = registry.histogram("serve.latency_ms", (1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "# TYPE serve_admitted_total counter" in lines
        assert "serve_admitted_total 3" in lines
        assert "serve_queue_depth 2" in lines
        # Cumulative le buckets with +Inf, sum and count.
        assert 'serve_latency_ms_bucket{le="1"} 1' in lines
        assert 'serve_latency_ms_bucket{le="10"} 2' in lines
        assert 'serve_latency_ms_bucket{le="+Inf"} 3' in lines
        assert "serve_latency_ms_count 3" in lines
        assert "serve_latency_ms_sum 55.5" in lines
        assert text.endswith("\n")

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("batch.padded-values/total").inc()
        text = prometheus_text(registry)
        assert "batch_padded_values_total_total 1" in text

    def test_empty_registry_is_empty_exposition(self):
        assert prometheus_text(MetricsRegistry()) == "\n"


class TestExponentialBuckets:
    def test_geometric_growth(self):
        bounds = exponential_buckets(0.05, 2.0, 6)
        assert bounds == (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(0, 2, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1, 2, 0)

    def test_submillisecond_p99_is_resolved(self):
        # The point of the exponential preset: a sub-ms latency regime
        # must not collapse into the first bucket of a linear preset.
        registry = MetricsRegistry()
        hist = registry.histogram(
            "serve.latency_ms", exponential_buckets(0.05, 2.0, 20)
        )
        for _ in range(98):
            hist.observe(0.07)
        hist.observe(0.9)
        hist.observe(0.9)
        assert hist.percentile(50) < 0.11
        assert 0.8 < hist.percentile(99) <= 1.6


class TestRingBufferDrops:
    def test_dropped_counter_and_exporter_annotation(self):
        tracer = Tracer(max_events=4)
        for i in range(6):
            tracer.instant(f"e{i}")
        # Crossing the bound discards the oldest half, exactly counted.
        assert tracer.dropped == 2
        assert len(tracer.events) == 4
        assert tracer.events[0].name == "e2"
        doc = chrome_trace(tracer)
        assert doc["otherData"]["dropped_events"] == 2
        tracer.clear()
        assert tracer.dropped == 0

    def test_merge_worker_events_preserves_links(self):
        host = Tracer()
        worker = Tracer()
        ctx = TraceContext.new().child()
        worker.instant("slab_done", link=ctx)
        merge_worker_events(host, 3, worker.events)
        (event,) = host.events
        assert event.pid == TracePid.worker(3)
        assert event.link == ctx


class TestEngineGroupContext:
    """The span-parenting rule at the batch boundary: spans for exactly
    one traced request stay in that request's trace; spans covering
    several requests get their own trace with member ids as links."""

    def make_requests(self, tags_and_traces):
        return [
            BatchRequest(
                "(1: 1)",
                np.arange(1, 9, dtype=np.int32),
                tag=tag,
                trace=trace,
            )
            for tag, trace in tags_and_traces
        ]

    def test_single_traced_request_owns_the_group_span(self):
        root = TraceContext.new()
        flush = TraceContext.new()
        tracer = Tracer()
        engine = BatchEngine(tracer=tracer)
        requests = self.make_requests([("a", root)])
        outcomes = engine.execute(requests, context=flush)
        assert outcomes[0].ok
        groups = [e for e in tracer.events if e.name == "batch_group"]
        (group,) = groups
        assert group.link is not None
        assert group.link.trace_id == root.trace_id
        assert group.link.parent_id == flush.span_id

    def test_multi_request_group_links_member_traces(self):
        roots = [TraceContext.new(), TraceContext.new()]
        flush = TraceContext.new()
        tracer = Tracer()
        engine = BatchEngine(tracer=tracer)
        requests = self.make_requests([("a", roots[0]), ("b", roots[1])])
        engine.execute(requests, context=flush)
        (group,) = [e for e in tracer.events if e.name == "batch_group"]
        # Shared span: lives in the flush's trace, not either member's.
        assert group.link.trace_id == flush.trace_id
        assert sorted(group.args["linked_traces"]) == sorted(
            r.trace_id for r in roots
        )

    def test_untraced_requests_still_solve(self):
        engine = BatchEngine(tracer=Tracer())
        outcomes = engine.execute(self.make_requests([("a", None)]))
        assert outcomes[0].ok


class TestSolverPropagation:
    def test_process_backend_emits_one_connected_trace(self):
        """Host stage spans and worker slab spans all reach the root by
        parent links, under one trace id, across the process boundary."""
        tracer = Tracer()
        root = TraceContext.new()
        solver = PLRSolver(
            "(1: 2, -1)",
            backend="process",
            workers=2,
            shard_options=ShardOptions(workers=2),
            tracer=tracer,
        )
        values = (np.arange(1, 4097, dtype=np.int64) % 7).astype(np.int32)
        out = solver.solve(values, context=root)
        assert out.shape == values.shape

        linked, orphans = walk_links(tracer.events, root.trace_id)
        names = {e.name for e in linked}
        # Host-side stages and worker-side slabs are all present...
        assert {"phase1_shards", "carry_scan", "phase2_shards"} <= names
        assert {"phase1_slab", "phase2_slab"} <= names
        # ...and every parent link resolves within the buffer (plus the
        # root span id itself, which belongs to the caller).
        broken = [
            e.name for e in orphans if e.link.parent_id != root.span_id
        ]
        assert broken == []
        # Worker spans really crossed a process boundary.
        worker_spans = [
            e
            for e in linked
            if e.pid >= TracePid.WORKER_BASE and e.name == "phase1_slab"
        ]
        assert len(worker_spans) >= 2

    def test_context_without_tracer_is_harmless(self):
        solver = PLRSolver("(1: 1)")
        out = solver.solve(
            np.arange(1, 65, dtype=np.int32), context=TraceContext.new()
        )
        assert out[-1] == np.arange(1, 65).sum()


class TestServePathOverhead:
    """The per-reply bookkeeping (sampling decision + SLO record) must
    stay far inside the <5% tracing-overhead budget; it runs on every
    reply, so it is measured directly against a representative solve."""

    def test_bookkeeping_under_5_percent_of_a_small_solve(self):
        solver = PLRSolver("(1: 0.9)")
        values = np.random.default_rng(0).standard_normal(4096).astype(
            np.float32
        )
        solver.solve(values)  # warm tables

        policy = SamplingPolicy(head_rate=0.1, tail_slow_ms=100.0)
        tracker = SLOTracker(
            SLOConfig(latency_objective_ms=50.0, target=0.99)
        )

        def solve():
            solver.solve(values)

        def bookkeeping():
            trace_id = new_trace_id()
            head = policy.sample_head(trace_id)
            policy.decision(head_sampled=head, ok=True, latency_ms=1.0)
            tracker.record(ok=True, latency_ms=1.0)

        # The server runs the bookkeeping back to back, once per frame
        # admitted and once per reply of a flush, so one sample is a
        # run of calls; a lone call timed right after a solve also pays
        # for the caches the solve evicted.
        burst = 16

        def replies():
            for _ in range(burst):
                bookkeeping()

        def timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        # Each side is timed on its own, best of the same number of
        # interleaved runs, so the bound reads the bookkeeping's cost
        # and not the difference of two noisy solve times.
        for _ in range(3):
            solve_s = bookkeeping_s = float("inf")
            for _ in range(200):
                solve_s = min(solve_s, timed(solve))
                bookkeeping_s = min(bookkeeping_s, timed(replies) / burst)
            if bookkeeping_s <= solve_s * 0.05:
                return
        pytest.fail(
            f"serve-path bookkeeping cost {bookkeeping_s / solve_s:.1%} "
            "of a 4k-element solve (must be < 5%)"
        )
