"""The serving layer: protocol, breaker, and a live server.

Every test that runs a real asyncio server is marked ``serve`` and
therefore rides the hard SIGALRM timeout installed in conftest — the
serving layer's worst failure mode is a hang, and a hung test must die
loudly, not stall the suite.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.batch.planner import BatchPlanner
from repro.core.errors import ProtocolError
from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    CircuitBreaker,
    PLRServer,
    ServeClient,
    ServeConfig,
    ControlFrame,
    SolveFrame,
    encode_reply,
    error_reply,
    parse_frame,
)
from repro.serve.chaos import FaultSchedule, FaultyEngine, run_server_chaos


def run(coro, timeout: float = 60.0):
    """Drive one async test body with an outer safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_server(**overrides) -> tuple[PLRServer, FaultSchedule]:
    """A server on an ephemeral port wired to a controllable engine."""
    overrides.setdefault("min_bucket", 16)
    overrides.setdefault("flush_ms", 2.0)
    schedule = FaultSchedule()
    metrics = MetricsRegistry()
    config = ServeConfig(**overrides)
    engine = FaultyEngine(
        planner=BatchPlanner(
            min_bucket=config.min_bucket, max_batch=config.max_batch
        ),
        metrics=metrics,
        schedule=schedule,
    )
    return PLRServer(config, engine=engine, metrics=metrics), schedule


class TestProtocol:
    def test_solve_frame_round_trip(self):
        frame = parse_frame(
            b'{"id": 7, "signature": "(1: 2, -1)", "values": [1, 2], '
            b'"dtype": "int32", "deadline_ms": 50}\n'
        )
        assert isinstance(frame, SolveFrame)
        assert frame.id == 7
        assert frame.signature == "(1: 2, -1)"
        assert frame.values == [1, 2]
        assert frame.dtype == "int32"
        assert frame.deadline_ms == 50

    def test_optional_fields_default(self):
        frame = parse_frame('{"signature": "(1: 1)", "values": []}')
        assert frame.id is None
        assert frame.dtype is None
        assert frame.deadline_ms is None

    def test_control_frames(self):
        for op in ("ping", "metrics", "drain"):
            frame = parse_frame(json.dumps({"op": op, "id": "x"}))
            assert isinstance(frame, ControlFrame)
            assert frame.op == op and frame.id == "x"

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b"42",
            b'"string"',
            b'{"signature": "(1: 1)"}',
            b'{"values": [1]}',
            b'{"signature": 3, "values": [1]}',
            b'{"signature": "(1: 1)", "values": 5}',
            b'{"signature": "(1: 1)", "values": [1], "dtype": 9}',
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": "soon"}',
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": true}',
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": -1}',
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": NaN}',
            b'{"op": "reboot"}',
            b"\xff\xfe\x00",
        ],
    )
    def test_malformed_frames_raise_typed(self, line):
        with pytest.raises(ProtocolError):
            parse_frame(line)

    def test_error_reply_and_encoding(self):
        reply = error_reply(3, ProtocolError("bad frame"))
        assert reply == {
            "id": 3,
            "ok": False,
            "error": "ProtocolError",
            "detail": "bad frame",
        }
        wire = encode_reply(reply)
        assert wire.endswith(b"\n")
        assert json.loads(wire) == reply


class TestCircuitBreaker:
    def _clocked(self, threshold=3, cooldown=10.0):
        state = {"now": 0.0}
        breaker = CircuitBreaker(threshold, cooldown, clock=lambda: state["now"])
        return breaker, state

    def test_trips_at_threshold_only(self):
        breaker, _ = self._clocked(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.open and breaker.trips == 0
        breaker.record_failure()
        assert breaker.open and breaker.trips == 1

    def test_repeat_failures_while_open_do_not_retrip(self):
        breaker, _ = self._clocked(threshold=2)
        for _ in range(6):
            breaker.record_failure()
        assert breaker.trips == 1

    def test_half_open_after_cooldown_then_success_resets(self):
        breaker, state = self._clocked(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert breaker.open
        state["now"] = 5.0
        assert not breaker.open  # half-open: a probe may pass
        breaker.record_success()
        assert breaker.consecutive_failures == 0 and breaker.opened_at is None

    def test_failed_probe_reopens_and_counts_a_new_trip(self):
        breaker, state = self._clocked(threshold=1, cooldown=5.0)
        breaker.record_failure()
        state["now"] = 6.0
        assert not breaker.open
        breaker.record_success()
        breaker.record_failure()
        assert breaker.open and breaker.trips == 2


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"max_batch": 0},
            {"flush_ms": -1.0},
            {"breaker_threshold": 0},
            {"read_timeout_s": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


@pytest.mark.serve
class TestServerEndToEnd:
    def test_solve_round_trip_is_correct(self):
        async def body():
            server, _ = make_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                values = list(range(1, 40))
                reply = await client.solve("(1: 2, -1)", values, request_id=9)
                assert reply["ok"] and reply["id"] == 9
                assert reply["engine"] == "batch"
                expected = serial_full(
                    np.asarray(values), Signature.parse("(1: 2, -1)")
                )
                assert reply["output"] == expected.tolist()
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_pipelined_requests_all_replied_with_ids(self):
        async def body():
            server, _ = make_server(flush_ms=5.0)
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                count = 20
                for i in range(count):
                    await client.send(
                        {
                            "id": i,
                            "signature": "(1: 1)",
                            "values": list(range(1, 8 + i)),
                        }
                    )
                seen = set()
                for _ in range(count):
                    reply = await client.recv(timeout=30)
                    assert reply is not None and reply["ok"]
                    seen.add(reply["id"])
                assert seen == set(range(count))
                # Pipelining actually batched: fewer flushes than requests.
                counters = server.metrics.snapshot()["counters"]
                assert counters["serve.flushes"] < count
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_malformed_frame_typed_reply_connection_survives(self):
        async def body():
            server, _ = make_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                await client.send_raw(b"garbage\n")
                reply = await client.recv(timeout=10)
                assert reply["ok"] is False
                assert reply["error"] == "ProtocolError"
                # Same connection still serves.
                reply = await client.solve("(1: 1)", [1, 2, 3])
                assert reply["ok"] and reply["output"] == [1, 3, 6]
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_unsolvable_request_typed_reply(self):
        async def body():
            server, _ = make_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                reply = await client.solve("(1: ", [1, 2])
                assert reply["ok"] is False
                assert reply["error"] == "SignatureError"
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_oversized_line_typed_reply_then_close(self):
        async def body():
            server, _ = make_server(max_line_bytes=2048)
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                await client.send_raw(b"y" * 4096 + b"\n")
                reply = await client.recv(timeout=10)
                assert reply is not None and reply["error"] == "ProtocolError"
                assert await client.recv(timeout=10) is None  # closed
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_expired_deadline_is_shed_typed(self):
        async def body():
            server, _ = make_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                reply = await client.solve("(1: 1)", [1, 2, 3], deadline_ms=0)
                assert reply["ok"] is False
                assert reply["error"] == "DeadlineExceeded"
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_default_deadline_applies_to_bare_requests(self):
        async def body():
            server, schedule = make_server(default_deadline_ms=1.0)
            await server.start()
            schedule.delay_s = 0.1  # every flush outlives a 1ms deadline
            try:
                client = await ServeClient.connect(server.address)
                reply = await client.solve("(1: 1)", [1, 2, 3], timeout=30)
                assert reply["ok"] is False
                assert reply["error"] == "DeadlineExceeded"
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_overload_sheds_with_typed_error(self):
        async def body():
            server, schedule = make_server(
                max_queue=2, max_batch=1, flush_ms=1.0
            )
            await server.start()
            schedule.delay_s = 0.1
            try:
                client = await ServeClient.connect(server.address)
                count = 12
                for i in range(count):
                    await client.send(
                        {"id": i, "signature": "(1: 1)", "values": [1, 2, 3]}
                    )
                sheds = 0
                for _ in range(count):
                    reply = await client.recv(timeout=30)
                    assert reply is not None
                    if not reply["ok"]:
                        assert reply["error"] == "OverloadError"
                        sheds += 1
                assert sheds > 0
                counters = server.metrics.snapshot()["counters"]
                assert counters["serve.shed_overload"] == sheds
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_breaker_trips_then_recovers_after_cooldown(self):
        async def body():
            server, schedule = make_server(
                breaker_threshold=2, breaker_cooldown_s=0.2, flush_ms=1.0
            )
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                schedule.die_remaining = 2
                for i in range(2):
                    reply = await client.solve("(1: 1)", [1], request_id=i)
                    assert reply["error"] == "WorkerError"
                # Open: fast-rejected without queueing.
                reply = await client.solve("(1: 1)", [1], request_id="r")
                assert reply["error"] == "OverloadError"
                assert "breaker" in reply["detail"]
                # After the cooldown the healthy engine closes it again.
                await asyncio.sleep(0.25)
                reply = await client.solve("(1: 1)", [1, 2], request_id="p")
                assert reply["ok"] and reply["output"] == [1, 3]
                counters = server.metrics.snapshot()["counters"]
                assert counters["serve.breaker_trips"] == 1
                assert counters["serve.breaker_rejections"] == 1
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_drain_flushes_inflight_and_snapshots(self, tmp_path):
        async def body():
            metrics_path = tmp_path / "final.json"
            server, schedule = make_server(
                flush_ms=10.0, metrics_path=str(metrics_path)
            )
            await server.start()
            schedule.delay_s = 0.02
            try:
                client = await ServeClient.connect(server.address)
                for i in range(5):
                    await client.send(
                        {
                            "id": i,
                            "signature": "(1: 1)",
                            "values": list(range(1, 6)),
                        }
                    )
                await client.send({"op": "drain", "id": "d"})
                replies = {}
                for _ in range(6):
                    reply = await client.recv(timeout=30)
                    assert reply is not None
                    replies[reply["id"]] = reply
                # Every in-flight request completed correctly.
                for i in range(5):
                    assert replies[i]["ok"]
                    assert replies[i]["output"] == [1, 3, 6, 10, 15]
                assert replies["d"]["ok"] and replies["d"]["draining"]
                await asyncio.wait_for(server._drained.wait(), timeout=30)
                assert server.final_snapshot is not None
                on_disk = json.loads(metrics_path.read_text())
                assert on_disk["counters"]["serve.admitted"] == 5
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_solves_rejected_while_draining(self):
        async def body():
            server, schedule = make_server(flush_ms=5.0)
            await server.start()
            schedule.delay_s = 0.1
            try:
                client = await ServeClient.connect(server.address)
                await client.send(
                    {"id": 0, "signature": "(1: 1)", "values": [1, 2]}
                )
                await client.send({"op": "drain", "id": "d"})
                # Admission is closed the moment the drain ack is sent.
                await client.send(
                    {"id": 1, "signature": "(1: 1)", "values": [1, 2]}
                )
                replies = {}
                for _ in range(3):
                    reply = await client.recv(timeout=30)
                    if reply is None:
                        break
                    replies[reply["id"]] = reply
                assert replies[0]["ok"]
                assert replies[1]["ok"] is False
                assert replies[1]["error"] == "OverloadError"
                assert "drain" in replies[1]["detail"]
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_metrics_op_reports_serving_state(self):
        async def body():
            server, _ = make_server()
            await server.start()
            try:
                client = await ServeClient.connect(server.address)
                await client.solve("(1: 1)", [1, 2, 3])
                reply = await client.metrics()
                assert reply["ok"]
                serving = reply["serving"]
                assert serving["draining"] is False
                assert serving["breaker"]["open"] is False
                assert serving["latency_ms"]["count"] == 1
                assert serving["batch_occupancy"]["count"] == 1
                assert reply["metrics"]["counters"]["serve.admitted"] == 1
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_unix_socket_round_trip(self, tmp_path):
        async def body():
            path = str(tmp_path / "plr.sock")
            server, _ = make_server(unix_path=path)
            await server.start()
            try:
                assert server.address == path
                client = await ServeClient.connect(path)
                reply = await client.solve("(1: 1)", [2, 2, 2])
                assert reply["ok"] and reply["output"] == [2, 4, 6]
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_slow_loris_disconnected_by_idle_timeout(self):
        async def body():
            server, _ = make_server(read_timeout_s=0.2)
            await server.start()
            try:
                loris = await ServeClient.connect(server.address)
                await loris.send_raw(b'{"signature"')  # never finishes
                line = await asyncio.wait_for(loris.reader.readline(), 5.0)
                assert line == b""  # server hung up
                await loris.close()
                # And a healthy client is unaffected.
                client = await ServeClient.connect(server.address)
                reply = await client.solve("(1: 1)", [1])
                assert reply["ok"]
                await client.close()
            finally:
                await server.aclose()

        run(body())

    def test_disconnect_before_reply_does_not_kill_server(self):
        async def body():
            server, schedule = make_server(flush_ms=5.0)
            await server.start()
            schedule.delay_s = 0.05
            try:
                ghost = await ServeClient.connect(server.address)
                await ghost.send(
                    {"id": 0, "signature": "(1: 1)", "values": [1, 2, 3]}
                )
                ghost.writer.close()  # vanish without reading
                await asyncio.sleep(0.2)
                schedule.delay_s = 0.0
                client = await ServeClient.connect(server.address)
                reply = await client.solve("(1: 1)", [5])
                assert reply["ok"] and reply["output"] == [5]
                await client.close()
            finally:
                await server.aclose()

        run(body())


@pytest.mark.serve
class TestServerChaos:
    @pytest.mark.chaos
    def test_server_chaos_matrix_holds_invariant(self):
        """The acceptance sweep for the serving layer: slow-loris,
        malformed frames, deadline storms, overload floods, worker
        death, vanishing clients, and a graceful drain — every
        interaction a typed error or a bit-correct result."""
        report = run_server_chaos(seed=20180324, requests=16)
        assert report.ok, report.describe()
        counts = report.counts()
        # Each hostile phase actually exercised its fault.
        assert counts.get("pipelined:correct", 0) == 16
        assert counts.get("malformed:typed_error", 0) >= 10
        assert counts.get("slowloris:expected", 0) == 1
        assert counts.get("deadline_storm:expected", 0) == 1
        assert counts.get("overload:expected", 0) == 1
        assert counts.get("worker_death:typed_error", 0) >= 3
        assert counts.get("drain:expected", 0) == 2
        assert report.final_metrics is not None


@pytest.mark.serve
class TestServeCLI:
    def test_self_test_smoke(self, capsys):
        """``plr serve --self-test`` is the default-suite smoke: a live
        ephemeral server, one pass over the reply contract."""
        from repro.cli import main

        assert main(["serve", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out

    def test_chaos_cli_server_mode_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--mode", "server", "--cases", "64",
                     "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] and payload["mode"] == "server"
        assert payload["violations"] == []

    def test_chaos_cli_unwritable_output_fails_fast(self, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "--mode", "engine", "-o", "/proc/version/x.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
