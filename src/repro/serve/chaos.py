"""Server-level chaos: hostile clients and dying workers vs the server.

Extends the resilience chaos harness (:mod:`repro.resilience.chaos`)
from single solves to the serving layer.  Each phase starts a real
:class:`~repro.serve.server.PLRServer` on an ephemeral local port and
attacks it one way:

* ``pipelined``  — a well-behaved client pipelines a mixed request
  stream (every reply must be bit-correct or typed);
* ``malformed``  — garbage bytes, invalid JSON, wrong shapes, unknown
  ops, oversized lines (typed ProtocolError replies; only the
  unframeable line closes the connection);
* ``slowloris``  — a client dribbles a never-ending frame (the idle
  read timeout must disconnect it; the server keeps serving others);
* ``deadline_storm`` — every request carries a tiny deadline while the
  engine is artificially slow (ok or typed DeadlineExceeded, never a
  late result, never a hang);
* ``overload``   — a flood beyond the intake bound while flushes are
  slow (typed OverloadError sheds, bounded queue, no hang);
* ``worker_death`` — the engine raises WorkerError for consecutive
  flushes (typed replies, circuit-breaker trip to fast-reject, then
  recovery after cooldown);
* ``disconnect`` — clients vanish before reading replies (server
  survives, counts dropped replies, keeps serving);
* ``drain``      — graceful drain completes every in-flight request
  and snapshots metrics.

The invariant, verbatim from the single-solve harness, now over a
server's lifetime: **every request ends in a correct output or a typed
error — never a hang, crash, or silent corruption.**
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.batch.engine import BatchEngine
from repro.batch.planner import BatchPlanner
from repro.core.coefficients import table1_signatures
from repro.core.errors import ReproError, WorkerError
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype, serial_full
from repro.core.validation import compare_results
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServeClient
from repro.serve.protocol import ServerError
from repro.serve.server import PLRServer, ServeConfig

__all__ = [
    "FaultSchedule",
    "FaultyEngine",
    "ServerChaosOutcome",
    "ServerChaosReport",
    "run_server_chaos",
]


def _typed_error_names() -> frozenset[str]:
    """Every ReproError subclass name — the legal ``error`` values."""
    names = {ReproError.__name__, ServerError.__name__}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            names.add(sub.__name__)
            stack.append(sub)
    return frozenset(names)


TYPED_ERROR_NAMES = _typed_error_names()


@dataclass
class FaultSchedule:
    """Mutable injection state shared with the server's engine."""

    die_remaining: int = 0
    """Raise WorkerError for this many upcoming flushes."""

    delay_s: float = 0.0
    """Sleep this long inside every flush (builds queue pressure)."""


class FaultyEngine(BatchEngine):
    """A BatchEngine that honours a :class:`FaultSchedule`.

    Models the two server-relevant failure families: a flush that dies
    outright (worker death mid-batch) and a flush that is merely slow
    (load, contention) — the former must become typed replies and
    breaker pressure, the latter queue growth and deadline/overload
    sheds.
    """

    def __init__(self, *args, schedule: FaultSchedule | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = schedule or FaultSchedule()

    def execute(self, requests, context=None):
        if self.schedule.die_remaining > 0:
            self.schedule.die_remaining -= 1
            raise WorkerError("injected worker death mid-batch")
        if self.schedule.delay_s > 0:
            time.sleep(self.schedule.delay_s)
        return super().execute(requests, context=context)


@dataclass(frozen=True)
class ServerChaosOutcome:
    """How one chaos interaction ended."""

    phase: str
    status: str  # "correct" | "typed_error" | "expected" | "violation"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "violation"


@dataclass
class ServerChaosReport:
    """Aggregate result of a server chaos run."""

    outcomes: list[ServerChaosOutcome] = field(default_factory=list)
    final_metrics: dict | None = None

    def add(self, phase: str, status: str, detail: str = "") -> None:
        self.outcomes.append(ServerChaosOutcome(phase, status, detail))

    @property
    def violations(self) -> list[ServerChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for o in self.outcomes:
            key = f"{o.phase}:{o.status}"
            tally[key] = tally.get(key, 0) + 1
        return tally

    def phase_counts(self, phase: str) -> dict[str, int]:
        tally: dict[str, int] = {}
        for o in self.outcomes:
            if o.phase == phase:
                tally[o.status] = tally.get(o.status, 0) + 1
        return tally

    def describe(self) -> str:
        lines = [f"server chaos: {len(self.outcomes)} checks"]
        phases = []
        for o in self.outcomes:
            if o.phase not in phases:
                phases.append(o.phase)
        for phase in phases:
            breakdown = ", ".join(
                f"{v} {k}" for k, v in sorted(self.phase_counts(phase).items())
            )
            lines.append(f"  {phase}: {breakdown}")
        for o in self.violations:
            lines.append(f"  VIOLATION [{o.phase}] {o.detail}")
        if self.ok:
            lines.append(
                "invariant held: typed error reply or correct result for "
                "every injected fault, and graceful drain completed"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# harness plumbing


def _chaos_values(recurrence: Recurrence, n: int, rng) -> np.ndarray:
    if recurrence.is_integer:
        return rng.integers(-40, 40, size=n).astype(np.int32)
    return rng.standard_normal(n).astype(np.float32)


def _check_solve_reply(
    report: ServerChaosReport,
    phase: str,
    reply: dict | None,
    signature: str,
    values: np.ndarray,
) -> None:
    """One reply against the invariant: correct output or typed error."""
    if reply is None:
        report.add(phase, "violation", f"no reply for {signature}")
        return
    if reply.get("ok"):
        recurrence = Recurrence.parse(signature)
        dtype = resolve_dtype(recurrence.signature, values.dtype)
        expected = serial_full(values, recurrence.signature, dtype=dtype)
        got = np.asarray(reply["output"])
        if got.shape != expected.shape:
            report.add(
                phase, "violation",
                f"{signature}: output shape {got.shape} != {expected.shape}",
            )
            return
        verdict = compare_results(got.astype(expected.dtype), expected)
        if verdict.ok:
            report.add(phase, "correct")
        else:
            report.add(
                phase, "violation",
                f"silent corruption on {signature}: {verdict.describe()}",
            )
        return
    error = reply.get("error")
    if error in TYPED_ERROR_NAMES:
        report.add(phase, "typed_error", str(error))
    else:
        report.add(phase, "violation", f"untyped error reply: {reply!r}")


class _phase_server:
    """Async context manager: a fresh server wired to a fault schedule."""

    def __init__(self, **config_kwargs) -> None:
        self.schedule = FaultSchedule()
        metrics = MetricsRegistry()
        config = ServeConfig(**config_kwargs)
        engine = FaultyEngine(
            planner=BatchPlanner(max_batch=config.max_batch),
            metrics=metrics,
            schedule=self.schedule,
        )
        self.server = PLRServer(config, engine=engine, metrics=metrics)

    async def __aenter__(self) -> "_phase_server":
        await self.server.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.server.aclose()


# ----------------------------------------------------------------------
# phases


async def _phase_pipelined(report: ServerChaosReport, rng, requests: int) -> None:
    table = table1_signatures()
    names = sorted(table)
    async with _phase_server(flush_ms=2.0) as ctx:
        client = await ServeClient.connect(ctx.server.address)
        sent = []
        for i in range(requests):
            name = names[int(rng.integers(len(names)))]
            signature = str(table[name])
            recurrence = Recurrence(table[name])
            values = _chaos_values(recurrence, int(rng.integers(1, 200)), rng)
            sent.append((signature, values))
            await client.send(
                {"id": i, "signature": signature, "values": values.tolist()}
            )
        replies: dict[int, dict] = {}
        for _ in range(requests):
            reply = await client.recv(timeout=15)
            if reply is None:
                break
            replies[reply.get("id")] = reply
        for i, (signature, values) in enumerate(sent):
            _check_solve_reply(
                report, "pipelined", replies.get(i), signature, values
            )
        await client.close()


async def _phase_malformed(report: ServerChaosReport) -> None:
    async with _phase_server(max_line_bytes=4096) as ctx:
        frames = [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b"42\n",
            b'{"signature": "(1: 1)"}\n',                       # missing values
            b'{"values": [1, 2]}\n',                            # missing signature
            b'{"signature": 7, "values": [1]}\n',               # wrong type
            b'{"signature": "(1: 1)", "values": "nope"}\n',     # wrong type
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": "soon"}\n',
            b'{"signature": "(1: 1)", "values": [1], "deadline_ms": -5}\n',
            b'{"op": "reboot"}\n',
            b'{"signature": "(1: ", "values": [1, 2]}\n',       # unparsable sig
            b'{"signature": "(1: 1)", "values": [1, "x", 3]}\n',  # non-numeric
            b'\xff\xfe{"signature"\n',                          # not UTF-8
        ]
        client = await ServeClient.connect(ctx.server.address)
        for frame in frames:
            await client.send_raw(frame)
            reply = await client.recv(timeout=10)
            if reply is None:
                report.add(
                    "malformed", "violation",
                    f"connection died on recoverable frame {frame[:40]!r}",
                )
                client = await ServeClient.connect(ctx.server.address)
                continue
            if not reply.get("ok") and reply.get("error") in TYPED_ERROR_NAMES:
                report.add("malformed", "typed_error", str(reply.get("error")))
            else:
                report.add(
                    "malformed", "violation",
                    f"frame {frame[:40]!r} got non-typed reply {reply!r}",
                )
        # The connection must still serve a valid request after all that.
        values = np.arange(1, 6, dtype=np.int32)
        reply = await client.solve("(1: 1)", values.tolist(), request_id="ok")
        _check_solve_reply(report, "malformed", reply, "(1: 1)", values)

        # An unframeable line: typed reply, then the connection closes.
        hostile = await ServeClient.connect(ctx.server.address)
        await hostile.send_raw(b"x" * 8192 + b"\n")
        reply = await hostile.recv(timeout=10)
        if reply is not None and reply.get("error") == "ProtocolError":
            report.add("malformed", "typed_error", "oversized line")
        else:
            report.add(
                "malformed", "violation",
                f"oversized line expected ProtocolError close, got {reply!r}",
            )
        after = await hostile.recv(timeout=10)
        if after is None:
            report.add("malformed", "expected", "oversized line closed connection")
        else:
            report.add(
                "malformed", "violation",
                f"connection stayed open past unframeable line: {after!r}",
            )
        await hostile.close()
        await client.close()


async def _phase_slowloris(report: ServerChaosReport) -> None:
    async with _phase_server(read_timeout_s=0.25) as ctx:
        loris = await ServeClient.connect(ctx.server.address)
        start = time.monotonic()
        # Dribble an endless, never-terminated frame.
        closed = False
        for _ in range(40):
            try:
                await loris.send_raw(b'{"signature": ')
            except (ConnectionError, OSError):
                closed = True
                break
            try:
                line = await asyncio.wait_for(loris.reader.readline(), 0.1)
                if not line:
                    closed = True
                    break
            except asyncio.TimeoutError:
                pass
        elapsed = time.monotonic() - start
        if closed and elapsed < 5.0:
            report.add(
                "slowloris", "expected",
                f"disconnected after {elapsed:.2f}s",
            )
        else:
            report.add(
                "slowloris", "violation",
                f"slow-loris client not disconnected (closed={closed} "
                f"after {elapsed:.2f}s)",
            )
        await loris.close()
        # The server must still serve a healthy client afterwards.
        client = await ServeClient.connect(ctx.server.address)
        values = np.arange(1, 9, dtype=np.int32)
        reply = await client.solve("(1: 1)", values.tolist())
        _check_solve_reply(report, "slowloris", reply, "(1: 1)", values)
        await client.close()


async def _phase_deadline_storm(
    report: ServerChaosReport, rng, requests: int
) -> None:
    async with _phase_server(flush_ms=1.0, max_batch=4) as ctx:
        ctx.schedule.delay_s = 0.03  # every flush is slow
        client = await ServeClient.connect(ctx.server.address)
        sent = []
        for i in range(requests):
            values = np.arange(1, int(rng.integers(2, 40)), dtype=np.int32)
            deadline = float(rng.choice([0.0, 0.5, 2.0, 10.0, 200.0]))
            sent.append(values)
            await client.send(
                {
                    "id": i,
                    "signature": "(1: 1)",
                    "values": values.tolist(),
                    "deadline_ms": deadline,
                }
            )
        deadline_replies = 0
        replies: dict[int, dict] = {}
        for _ in range(requests):
            reply = await client.recv(timeout=15)
            if reply is None:
                break
            replies[reply.get("id")] = reply
            if reply.get("error") == "DeadlineExceeded":
                deadline_replies += 1
        for i, values in enumerate(sent):
            _check_solve_reply(report, "deadline_storm", replies.get(i), "(1: 1)", values)
        if deadline_replies:
            report.add(
                "deadline_storm", "expected",
                f"{deadline_replies} typed DeadlineExceeded replies",
            )
        else:
            report.add(
                "deadline_storm", "violation",
                "zero-deadline requests were not shed",
            )
        await client.close()


async def _phase_overload(report: ServerChaosReport, requests: int) -> None:
    async with _phase_server(flush_ms=1.0, max_batch=2, max_queue=4) as ctx:
        ctx.schedule.delay_s = 0.08
        client = await ServeClient.connect(ctx.server.address)
        values = np.arange(1, 17, dtype=np.int32)
        for i in range(requests):
            await client.send(
                {"id": i, "signature": "(1: 1)", "values": values.tolist()}
            )
        sheds = 0
        answered = 0
        for _ in range(requests):
            reply = await client.recv(timeout=20)
            if reply is None:
                break
            answered += 1
            if reply.get("error") == "OverloadError":
                sheds += 1
                report.add("overload", "typed_error", "OverloadError")
            else:
                _check_solve_reply(report, "overload", reply, "(1: 1)", values)
        if answered < requests:
            report.add(
                "overload", "violation",
                f"only {answered}/{requests} replies before timeout",
            )
        elif sheds:
            report.add("overload", "expected", f"{sheds} requests shed")
        else:
            report.add(
                "overload", "violation",
                f"queue bound {ctx.server.config.max_queue} never shed "
                f"under a {requests}-request flood",
            )
        await client.close()


async def _phase_worker_death(report: ServerChaosReport) -> None:
    threshold = 3
    async with _phase_server(
        flush_ms=1.0,
        breaker_threshold=threshold,
        breaker_cooldown_s=0.25,
    ) as ctx:
        client = await ServeClient.connect(ctx.server.address)
        values = np.arange(1, 9, dtype=np.int32)
        ctx.schedule.die_remaining = threshold
        # Each of these requests rides a flush that dies mid-batch.
        for i in range(threshold):
            reply = await client.solve(
                "(1: 1)", values.tolist(), request_id=f"dead-{i}", timeout=10
            )
            if reply is not None and reply.get("error") == "WorkerError":
                report.add("worker_death", "typed_error", "WorkerError")
            else:
                report.add(
                    "worker_death", "violation",
                    f"dying flush replied {reply!r}",
                )
        # The breaker has tripped: fast-reject without queueing.
        reply = await client.solve(
            "(1: 1)", values.tolist(), request_id="rejected", timeout=10
        )
        if reply is not None and reply.get("error") == "OverloadError":
            report.add("worker_death", "expected", "breaker fast-reject")
        else:
            report.add(
                "worker_death", "violation",
                f"tripped breaker replied {reply!r}",
            )
        # After the cooldown the engine is healthy again; the probe
        # flush must close the breaker and serve correctly.
        await asyncio.sleep(0.3)
        reply = await client.solve(
            "(1: 1)", values.tolist(), request_id="probe", timeout=10
        )
        _check_solve_reply(report, "worker_death", reply, "(1: 1)", values)
        metrics_reply = await client.metrics()
        trips = (
            metrics_reply["metrics"]["counters"].get("serve.breaker_trips", 0)
            if metrics_reply
            else 0
        )
        if trips >= 1:
            report.add("worker_death", "expected", f"breaker tripped {trips:g}x")
        else:
            report.add("worker_death", "violation", "breaker never tripped")
        await client.close()


async def _phase_disconnect(report: ServerChaosReport) -> None:
    async with _phase_server(flush_ms=1.0) as ctx:
        ctx.schedule.delay_s = 0.05
        values = np.arange(1, 33, dtype=np.int32)
        # Vanish before reading any reply.
        for _ in range(3):
            ghost = await ServeClient.connect(ctx.server.address)
            await ghost.send(
                {"id": "ghost", "signature": "(1: 1)", "values": values.tolist()}
            )
            ghost.writer.close()  # no wait_closed: slam the door
        await asyncio.sleep(0.3)  # let the flushes land on dead sockets
        ctx.schedule.delay_s = 0.0
        client = await ServeClient.connect(ctx.server.address)
        reply = await client.solve("(1: 1)", values.tolist())
        _check_solve_reply(report, "disconnect", reply, "(1: 1)", values)
        await client.close()


async def _phase_drain(report: ServerChaosReport) -> None:
    async with _phase_server(flush_ms=5.0) as ctx:
        ctx.schedule.delay_s = 0.02
        client = await ServeClient.connect(ctx.server.address)
        sent = []
        for i in range(6):
            values = np.arange(1, 10 + i, dtype=np.int32)
            sent.append(values)
            await client.send(
                {"id": i, "signature": "(1: 1)", "values": values.tolist()}
            )
        await client.send({"op": "drain", "id": "drain"})
        replies: dict[object, dict] = {}
        while len(replies) < len(sent) + 1:
            reply = await client.recv(timeout=15)
            if reply is None:
                break
            replies[reply.get("id")] = reply
        for i, values in enumerate(sent):
            _check_solve_reply(report, "drain", replies.get(i), "(1: 1)", values)
        drain_reply = replies.get("drain")
        if drain_reply is not None and drain_reply.get("ok"):
            report.add("drain", "expected", "drain acknowledged")
        else:
            report.add("drain", "violation", f"drain reply was {drain_reply!r}")
        # The server must have completed its drain and snapshotted.
        for _ in range(50):
            if ctx.server.final_snapshot is not None:
                break
            await asyncio.sleep(0.05)
        if ctx.server.final_snapshot is not None:
            report.add("drain", "expected", "metrics snapshot taken")
            report.final_metrics = ctx.server.final_snapshot
        else:
            report.add("drain", "violation", "drain never completed")
        await client.close()


# ----------------------------------------------------------------------


async def _run(seed: int, requests: int) -> ServerChaosReport:
    rng = np.random.default_rng(seed)
    report = ServerChaosReport()
    await _phase_pipelined(report, rng, requests)
    await _phase_malformed(report)
    await _phase_slowloris(report)
    await _phase_deadline_storm(report, rng, requests)
    await _phase_overload(report, max(requests, 24))
    await _phase_worker_death(report)
    await _phase_disconnect(report)
    await _phase_drain(report)
    return report


def run_server_chaos(seed: int = 0, requests: int = 24) -> ServerChaosReport:
    """Run the full server chaos matrix; returns the aggregate report.

    ``requests`` scales the pipelined / deadline-storm / overload
    phases.  Everything randomized is derived from ``seed``; timing
    -dependent *counts* (how many requests were shed) vary run to run,
    but the invariant — typed error or correct result, never a hang —
    must hold for every interaction regardless.
    """
    return asyncio.run(_run(seed, requests))
