"""End-to-end trace propagation and observability through a live server.

The tentpole contract: a client-supplied trace id yields ONE connected
trace — server root span, flush span, engine group span, isolation and
resilience attempt spans, down to the solver's per-tile stage spans —
where every parent link resolves, all under the client's trace id.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.batch.engine import BatchEngine
from repro.batch.planner import BatchPlanner
from repro.core.errors import ProtocolError
from repro.obs.exporters import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve import (
    PLRServer,
    ServeClient,
    ServeConfig,
    SolveFrame,
    parse_frame,
)

pytestmark = pytest.mark.serve


def run(coro, timeout: float = 60.0):
    import asyncio

    return asyncio.run(asyncio.wait_for(coro, timeout))


CLIENT_TRACE_ID = "feedc0de" * 4
CLIENT_SPAN_ID = "ab12" * 4


class TestProtocolTraceField:
    def test_trace_field_parses(self):
        frame = parse_frame(
            json.dumps(
                {
                    "signature": "(1: 1)",
                    "values": [1],
                    "trace": {
                        "trace_id": CLIENT_TRACE_ID,
                        "span_id": CLIENT_SPAN_ID,
                    },
                }
            )
        )
        assert isinstance(frame, SolveFrame)
        assert frame.trace["trace_id"] == CLIENT_TRACE_ID

    @pytest.mark.parametrize(
        "trace",
        [
            "abc",  # not an object
            {},  # missing trace_id
            {"trace_id": "NOPE"},  # bad hex
            {"trace_id": "ab", "span_id": "UPPER"},
        ],
    )
    def test_malformed_trace_rejected(self, trace):
        with pytest.raises(ProtocolError):
            parse_frame(
                json.dumps(
                    {"signature": "(1: 1)", "values": [1], "trace": trace}
                )
            )

    def test_slo_op_and_metrics_format(self):
        assert parse_frame('{"op": "slo"}').op == "slo"
        frame = parse_frame('{"op": "metrics", "format": "prometheus"}')
        assert frame.format == "prometheus"
        with pytest.raises(ProtocolError):
            parse_frame('{"op": "metrics", "format": "xml"}')
        with pytest.raises(ProtocolError):
            parse_frame('{"op": "ping", "format": "prometheus"}')


def traced_server(**overrides):
    """A server whose engine shares the test's tracer."""
    overrides.setdefault("flush_ms", 2.0)
    tracer = Tracer()
    metrics = MetricsRegistry()
    config = ServeConfig(**overrides)
    engine = BatchEngine(
        planner=BatchPlanner(max_batch=config.max_batch),
        metrics=metrics,
        tracer=tracer,
    )
    return PLRServer(config, engine=engine, metrics=metrics, tracer=tracer), tracer


class TestEndToEndTracePropagation:
    def test_client_trace_spans_server_to_worker_lanes(self, tmp_path):
        """The acceptance walk: serve a request whose group pass must
        fall back to per-request isolation (lossy integer coefficients),
        then verify the exported trace is one tree under the client's
        trace id, down to the isolated solve's tile stages."""

        async def scenario():
            server, tracer = traced_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                # (1: 0.5) on int32 cannot ride the integer batch path:
                # the engine isolates it and the resilience chain
                # promotes to float64, whose solve runs the tiled pass.
                reply = await client.solve(
                    "(1: 0.5)",
                    list(range(1, 4097)),
                    dtype="int32",
                    request_id="e2e",
                    trace={
                        "trace_id": CLIENT_TRACE_ID,
                        "span_id": CLIENT_SPAN_ID,
                    },
                    timeout=60,
                )
                await client.close()
            finally:
                await server.aclose()
            return reply, tracer

        reply, tracer = run(scenario(), timeout=90.0)
        assert reply is not None and reply["ok"], reply
        assert reply["trace_id"] == CLIENT_TRACE_ID
        assert any("float64" in d for d in reply.get("degradations", ()))

        linked = [
            e
            for e in tracer.events
            if e.link is not None and e.link.trace_id == CLIENT_TRACE_ID
        ]
        names = {e.name for e in linked}
        # Every layer contributed spans to the one trace: server root,
        # flush, engine group + isolation, resilience chain, and the
        # solver's tile stages.
        assert "serve_request" in names
        assert "serve_flush" in names
        assert "batch_group" in names and "isolate" in names
        assert "resilient_solve" in names and "attempt" in names
        assert {"map_stage", "phase1", "phase2"} <= names

        # The root is parented to the CLIENT's span, nothing else is
        # orphaned: walking parent links connects every span.
        span_ids = {e.link.span_id for e in linked}
        roots = [e for e in linked if e.name == "serve_request"]
        assert len(roots) == 1
        assert roots[0].link.parent_id == CLIENT_SPAN_ID
        orphans = [
            e.name
            for e in linked
            if e.link.parent_id is not None
            and e.link.parent_id not in span_ids
            and e.name != "serve_request"
        ]
        assert orphans == []

        # And the whole thing exports as a Perfetto-loadable Chrome
        # trace whose args carry the ids.
        doc = chrome_trace(tracer)
        exported = [
            ev
            for ev in doc["traceEvents"]
            if ev.get("args", {}).get("trace_id") == CLIENT_TRACE_ID
        ]
        assert {ev["name"] for ev in exported} == names
        for ev in exported:
            assert "span_id" in ev["args"]

    def test_minted_trace_when_client_sends_none(self):
        async def scenario():
            server, tracer = traced_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                replies = [
                    await client.solve(
                        "(1: 1)", [1, 2, 3], request_id=i, timeout=30
                    )
                    for i in range(2)
                ]
                await client.close()
            finally:
                await server.aclose()
            return replies

        replies = run(scenario())
        ids = {r["trace_id"] for r in replies}
        assert all(r["ok"] for r in replies)
        assert len(ids) == 2  # fresh trace per request
        assert all(len(t) == 32 for t in ids)

    def test_multi_request_flush_links_member_traces(self):
        """Two traced requests coalescing into one flush: the flush span
        gets its own trace with both members as span links, while each
        request's root span stays in its own trace."""

        async def scenario():
            # A long flush window so both requests ride one flush.
            server, tracer = traced_server(flush_ms=200.0, max_batch=8)
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                t1, t2 = "aa" * 16, "bb" * 16
                await client.send(
                    {
                        "id": 1,
                        "signature": "(1: 1)",
                        "values": [1, 2],
                        "trace": {"trace_id": t1},
                    }
                )
                await client.send(
                    {
                        "id": 2,
                        "signature": "(1: 1)",
                        "values": [3, 4],
                        "trace": {"trace_id": t2},
                    }
                )
                r1 = await client.recv(timeout=30)
                r2 = await client.recv(timeout=30)
                await client.close()
            finally:
                await server.aclose()
            return (t1, t2), (r1, r2), tracer

        (t1, t2), replies, tracer = run(scenario())
        assert all(r and r["ok"] for r in replies)
        flushes = [
            e
            for e in tracer.events
            if e.name == "serve_flush" and e.args and e.args.get("batch") == 2
        ]
        (flush,) = flushes
        assert flush.link is not None
        assert flush.link.trace_id not in (t1, t2)
        assert sorted(flush.args["linked_traces"]) == sorted((t1, t2))
        # Each request still owns its root span in its own trace.
        root_ids = {
            e.link.trace_id
            for e in tracer.events
            if e.name == "serve_request" and e.link is not None
        }
        assert {t1, t2} <= root_ids


class TestServeObservability:
    def test_slo_op_reports_attainment_and_burn(self):
        async def scenario():
            server, _ = traced_server(
                slo_latency_ms=10_000.0, slo_target=0.5
            )
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                assert (await client.solve("(1: 1)", [1, 2], request_id=1))["ok"]
                bad = await client.solve(
                    "(1: 1)", [1], deadline_ms=0, request_id=2
                )
                assert bad["error"] == "DeadlineExceeded"
                reply = await client.slo()
                await client.close()
            finally:
                await server.aclose()
            return reply

        reply = run(scenario())
        slo = reply["slo"]
        assert slo["total"] == 2 and slo["good"] == 1
        assert slo["attainment"] == pytest.approx(0.5)
        assert slo["objective"]["target"] == 0.5
        assert [w["window_s"] for w in slo["windows"]] == [300.0, 3600.0]

    def test_prometheus_metrics_over_the_wire(self):
        async def scenario():
            server, _ = traced_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                assert (await client.solve("(1: 1)", [1], request_id=1))["ok"]
                reply = await client.metrics(format="prometheus")
                await client.close()
            finally:
                await server.aclose()
            return reply

        reply = run(scenario())
        assert reply["ok"] and reply["format"] == "prometheus"
        body = reply["body"]
        assert "# TYPE serve_admitted_total counter" in body
        assert 'serve_latency_ms_bucket{le="+Inf"} 1' in body
        assert "serve_latency_ms_count 1" in body

    def test_trace_log_head_zero_keeps_only_errors(self, tmp_path):
        path = tmp_path / "requests.jsonl"

        async def scenario():
            server, _ = traced_server(
                trace_log_path=str(path), trace_head_rate=0.0
            )
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                assert (await client.solve("(1: 1)", [1, 2], request_id=1))["ok"]
                bad = await client.solve(
                    "(1: 1)", [1], deadline_ms=0, request_id=2
                )
                assert not bad["ok"]
                metrics = await client.metrics()
                await client.drain()
                await server._drained.wait()
                await client.close()
            finally:
                await server.aclose()
            return metrics

        metrics = run(scenario())
        stats = metrics["serving"]["tracing"]["trace_log"]
        assert stats["written"] == 1 and stats["suppressed"] == 1
        entries = [json.loads(l) for l in path.read_text().splitlines()]
        (entry,) = entries
        assert entry["ok"] is False and entry["sampled"] == "error"
        assert entry["error"] == "DeadlineExceeded"

    def test_custom_latency_buckets_flow_into_histogram(self):
        async def scenario():
            server, _ = traced_server(latency_buckets_ms=(1.0, 10.0, 100.0))
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                assert (await client.solve("(1: 1)", [1], request_id=1))["ok"]
                reply = await client.metrics()
                await client.close()
            finally:
                await server.aclose()
            return reply

        reply = run(scenario())
        hist = reply["metrics"]["histograms"]["serve.latency_ms"]
        assert hist["buckets"] == [1.0, 10.0, 100.0]
        assert hist["count"] == 1

    def test_bad_latency_buckets_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(latency_buckets_ms=())
        with pytest.raises(ValueError):
            ServeConfig(latency_buckets_ms=(5.0, 1.0))

    def test_engine_outputs_identical_with_tracing_on(self):
        """Tracing must observe, never perturb: same queue, same outputs
        with and without a tracer + contexts."""
        rng = np.random.default_rng(5)
        values = rng.integers(-50, 50, size=200).astype(np.int32)

        async def outputs(tracer):
            server, _ = (
                traced_server()
                if tracer
                else (
                    PLRServer(ServeConfig(flush_ms=2.0)),
                    None,
                )
            )
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                reply = await client.solve(
                    "(1: 2, -1)", values.tolist(), request_id=1, timeout=30
                )
                await client.close()
            finally:
                await server.aclose()
            return reply["output"]

        assert run(outputs(True)) == run(outputs(False))
