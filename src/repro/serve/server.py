"""The asyncio request server: coalesce, admit, solve, degrade, drain.

:class:`PLRServer` turns the one-shot batched engine into a long-lived
service.  The control flow is a single pipeline with robustness checks
at every stage boundary:

1. **Framing** — each connection reads newline-delimited JSON under a
   hard line-length limit and an idle-read timeout, so malformed frames
   get typed replies and slow-loris clients get disconnected instead of
   pinning a reader forever (:mod:`repro.serve.protocol`).
2. **Admission** — a solve frame is rejected *immediately* (typed
   :class:`~repro.core.errors.OverloadError`, never a hang) when the
   server is draining, the circuit breaker is open, or the bounded
   intake queue is full.
3. **Micro-batching** — an admitted request waits at most ``flush_ms``
   in the intake queue: the batcher flushes when the window closes or
   ``max_batch`` requests are pending, whichever comes first, so light
   traffic sees latency ≈ flush window and heavy traffic sees full
   batches (adaptive micro-batching).
4. **Execution** — a flush runs through the
   :class:`~repro.batch.engine.BatchEngine` in a worker thread: grouped
   vectorized passes, per-request failure isolation via the resilience
   chain, and per-request deadlines enforced cooperatively (expired
   requests are shed before their group forms; a deadline that passes
   mid-solve yields a typed
   :class:`~repro.core.errors.DeadlineExceeded`, never a late result).
   Consecutive *flush-level* failures trip the circuit breaker into
   fast-reject until a cooldown passes.
5. **Drain** — on SIGTERM (or a ``{"op": "drain"}`` frame) the server
   stops accepting connections, rejects new solves, flushes every
   queued request, waits for in-flight replies to be written, snapshots
   its metrics, and only then closes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass

import numpy as np

from repro.batch.engine import BatchEngine, RequestOutcome
from repro.batch.planner import BatchPlanner, BatchRequest
from repro.core.errors import OverloadError, ProtocolError, ReproError
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.exporters import prometheus_text
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.sampling import SamplingPolicy, TraceLog
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.tracer import coerce_tracer
from repro.plr.solver import check_backend
from repro.serve.protocol import (
    ControlFrame,
    ServerError,
    SolveFrame,
    encode_reply,
    error_reply,
    parse_frame,
)

__all__ = [
    "CircuitBreaker",
    "PLRServer",
    "SERVE_LATENCY_BUCKETS_MS",
    "ServeConfig",
]

SERVE_LATENCY_BUCKETS_MS = exponential_buckets(0.05, 2.0, 20)
"""Default serve-latency buckets: 50 µs to ~26 s, ×2 per bucket.  The
sub-millisecond range gets six buckets of its own, so a p99 below 1 ms
is resolved instead of flattened into one catch-all bucket."""


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the serving layer; defaults suit a local service."""

    host: str = "127.0.0.1"
    port: int = 0
    """TCP port; 0 binds an ephemeral port (read it back from
    :attr:`PLRServer.address`)."""

    unix_path: str | None = None
    """When set, serve on this Unix domain socket instead of TCP."""

    max_queue: int = 256
    """Bound of the intake queue — the admission-control limit.  A solve
    frame arriving at a full queue is shed with a typed OverloadError."""

    max_batch: int = 64
    """Flush as soon as this many requests are pending (full batch)."""

    flush_ms: float = 5.0
    """Micro-batch window: the longest an admitted request waits for
    batch-mates before its flush is forced."""

    default_deadline_ms: float | None = None
    """Deadline applied to requests that do not carry their own."""

    breaker_threshold: int = 5
    """Consecutive flush-level failures that trip the circuit breaker."""

    breaker_cooldown_s: float = 1.0
    """How long the tripped breaker fast-rejects before allowing a
    probe flush (half-open)."""

    max_line_bytes: int = 1 << 20
    """Hard frame-length limit; an overlong line closes the connection."""

    read_timeout_s: float = 30.0
    """Idle-read limit per connection — the slow-loris guard.  A client
    that neither completes a frame nor goes quiet-but-honest EOF within
    this window is disconnected."""

    metrics_path: str | None = None
    """When set, the drain path writes the final metrics snapshot here."""

    latency_buckets_ms: tuple = SERVE_LATENCY_BUCKETS_MS
    """Bucket bounds of the ``serve.latency_ms`` histogram.  The default
    exponential preset resolves sub-millisecond latencies; pass your own
    increasing tuple to match a different latency regime."""

    slo_latency_ms: float = 50.0
    """The latency objective: a reply is *good* only if it is ok AND at
    or under this many milliseconds."""

    slo_target: float = 0.99
    """Target fraction of good replies (the SLO itself)."""

    slo_windows_s: tuple = (300.0, 3600.0)
    """Burn-rate windows (seconds) reported by ``{"op": "slo"}``."""

    trace_log_path: str | None = None
    """When set, sampled per-request records append to this JSONL file
    (see :class:`repro.obs.sampling.TraceLog`)."""

    trace_head_rate: float = 1.0
    """Head-sampling rate for the trace log: fraction of trace ids kept
    up front.  Errors and slow requests are tail-rescued regardless."""

    trace_tail_slow_ms: float | None = None
    """Latency above which an unsampled request is tail-rescued into the
    trace log; None disables the slow rescue."""

    backend: str = "single"
    """Execution backend of the batch engine: ``"single"`` (numpy,
    default), ``"native"`` (JIT-compiled C kernels for the grouped pass
    and isolated re-runs, with automatic typed fallback to numpy when no
    compiler is available — a server must never die for lack of a
    toolchain), or ``"auto"`` (native for a grouped pass whose longest
    row has at least 2^15 words and when a C compiler is available,
    else single; see :func:`repro.plr.solver.resolve_backend`).  Every
    backend runs in the server's process."""

    def __post_init__(self) -> None:
        check_backend(self.backend)
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.flush_ms < 0:
            raise ValueError(f"flush_ms must be >= 0, got {self.flush_ms}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.read_timeout_s <= 0:
            raise ValueError(
                f"read_timeout_s must be positive, got {self.read_timeout_s}"
            )
        buckets = tuple(float(b) for b in self.latency_buckets_ms)
        if not buckets or any(
            b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])
        ):
            raise ValueError(
                "latency_buckets_ms must be a non-empty increasing "
                f"sequence, got {self.latency_buckets_ms!r}"
            )
        object.__setattr__(self, "latency_buckets_ms", buckets)
        if self.slo_latency_ms <= 0:
            raise ValueError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )
        object.__setattr__(
            self, "slo_windows_s", tuple(float(w) for w in self.slo_windows_s)
        )


class CircuitBreaker:
    """Trip to fast-reject after consecutive failures; probe after cooldown.

    The unit of accounting is one *flush* (a whole batched execution),
    not one request: per-request typed errors are normal service, but a
    flush that fails outright means the execution path itself is sick,
    and admitting more traffic would just grow the failure pile.
    """

    def __init__(
        self, threshold: int, cooldown_s: float, clock=time.monotonic
    ) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.trips = 0

    @property
    def open(self) -> bool:
        """True while fast-rejecting (cooldown not yet elapsed)."""
        if self.opened_at is None:
            return False
        if self.clock() - self.opened_at >= self.cooldown_s:
            return False  # half-open: let a probe through
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            if self.opened_at is None:
                self.trips += 1
            self.opened_at = self.clock()


class _Pending:
    """One admitted request riding the intake queue."""

    __slots__ = ("request", "future", "arrival", "reply_id", "ctx")

    def __init__(
        self,
        request: BatchRequest,
        future: asyncio.Future,
        arrival: float,
        reply_id: object,
        ctx: TraceContext,
    ) -> None:
        self.request = request
        self.future = future
        self.arrival = arrival
        self.reply_id = reply_id
        self.ctx = ctx


_SHUTDOWN = object()


class PLRServer:
    """A long-running JSONL solve server over TCP or a Unix socket.

    Parameters
    ----------
    config:
        The :class:`ServeConfig`; defaults bind an ephemeral local port.
    engine:
        The execution back end; a :class:`~repro.batch.engine.BatchEngine`
        sharing this server's metrics registry by default.  The chaos
        harness injects misbehaving engines here.
    metrics:
        Registry for the ``serve.*`` (and the engine's ``batch.*``)
        metrics; queried live via ``{"op": "metrics"}``.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        engine: BatchEngine | None = None,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = coerce_tracer(tracer)
        self.engine = engine or BatchEngine(
            planner=BatchPlanner(max_batch=self.config.max_batch),
            metrics=self.metrics,
            tracer=self.tracer,
            backend=self.config.backend,
        )
        self.clock = getattr(self.engine, "clock", time.monotonic)
        self.sampling = SamplingPolicy(
            head_rate=self.config.trace_head_rate,
            tail_slow_ms=self.config.trace_tail_slow_ms,
        )
        self.trace_log = (
            TraceLog(self.config.trace_log_path, policy=self.sampling)
            if self.config.trace_log_path
            else None
        )
        self.slo = SLOTracker(
            SLOConfig(
                latency_objective_ms=self.config.slo_latency_ms,
                target=self.config.slo_target,
                windows_s=self.config.slo_windows_s,
            ),
            clock=self.clock,
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_cooldown_s,
            clock=self.clock,
        )
        self.final_snapshot: dict | None = None
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._batcher: asyncio.Task | None = None
        self._reply_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._drained: asyncio.Event | None = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the batcher; returns when ready."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.config.backend in ("native", "auto"):
            await asyncio.to_thread(self._warm_native)
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._drained = asyncio.Event()
        if self.config.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_conn,
                path=self.config.unix_path,
                limit=self.config.max_line_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_line_bytes,
            )
        self._batcher = asyncio.create_task(self._batch_loop())

    def _warm_native(self) -> None:
        """Pre-compile a native kernel before the socket binds.

        The first native solve pays compiler discovery, compile-cache
        directory creation, and a full cc invocation — hundreds of
        milliseconds no request should eat.  Warming compiles a
        representative kernel untimed at startup; other signatures
        still compile on first sight, but against a probed toolchain
        and an existing on-disk cache.  A missing compiler only counts
        a metric — the engine's own typed per-request fallback owns
        that degradation.
        """
        started = time.perf_counter()
        try:
            from repro.plr.solver import PLRSolver

            solver = PLRSolver("(1: 1)", backend="native", native_fallback=False)
            solver.solve(np.ones(64, dtype=np.int32))
        except Exception:  # noqa: BLE001 — warmup is best-effort
            self.metrics.counter("serve.native_warmup_failures").inc()
            return
        self.metrics.counter("serve.native_warmups").inc()
        self.metrics.gauge("serve.native_warmup_ms").set(
            round((time.perf_counter() - started) * 1000.0, 3)
        )

    @property
    def address(self) -> tuple[str, int] | str:
        """Bound address: (host, port) for TCP, the path for Unix."""
        if self._server is None:
            raise RuntimeError("server not started")
        if self.config.unix_path:
            return self.config.unix_path
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self, install_signal_handlers: bool = True) -> dict:
        """Serve until drained (SIGTERM/SIGINT or a drain frame).

        Returns the final metrics snapshot taken by the drain path.
        """
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, lambda: asyncio.ensure_future(self.drain())
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # platforms without signal support in the loop
        await self._drained.wait()
        assert self.final_snapshot is not None
        return self.final_snapshot

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting, flush, snapshot, close."""
        if self._draining:
            await self._drained.wait()
            return self.final_snapshot
        self._draining = True
        self.metrics.gauge("serve.draining").set(1)
        # 1. Stop accepting new connections (existing ones keep their
        #    reader loops, but admission rejects their solve frames).
        self._server.close()
        await self._server.wait_closed()
        # 2. Flush everything admitted before the drain began.  The
        #    queue is FIFO, so a sentinel enqueued now is processed only
        #    after every earlier request has been flushed.
        await self._queue.put(_SHUTDOWN)
        await self._batcher
        # 3. Wait for in-flight replies to reach their sockets.
        if self._reply_tasks:
            await asyncio.gather(*list(self._reply_tasks), return_exceptions=True)
        # 4. Snapshot metrics, persist if asked, release connections.
        self.final_snapshot = self.metrics.snapshot()
        if self.config.metrics_path:
            with open(self.config.metrics_path, "w") as handle:
                json.dump(self.final_snapshot, handle, indent=1)
        if self.trace_log is not None:
            self.trace_log.close()
        for writer in list(self._conn_writers):
            writer.close()
        self._drained.set()
        return self.final_snapshot

    async def aclose(self) -> None:
        """Hard stop (tests): cancel everything, close every socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None and not self._batcher.done():
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        for task in list(self._reply_tasks):
            task.cancel()
        for writer in list(self._conn_writers):
            writer.close()

    # -- connection handling --------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("serve.connections").inc()
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        conn_replies: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.config.read_timeout_s
                    )
                except asyncio.TimeoutError:
                    # Slow loris: a frame that never completes.  Close;
                    # anything already admitted still gets solved, its
                    # reply just has nowhere to go.
                    self.metrics.counter("serve.idle_disconnects").inc()
                    break
                except ValueError:
                    # The line outgrew the frame limit: the stream can
                    # no longer be framed.  Final typed reply, then close.
                    self.metrics.counter("serve.protocol_errors").inc()
                    await self._write(
                        writer,
                        write_lock,
                        error_reply(
                            None,
                            ProtocolError(
                                f"frame exceeds {self.config.max_line_bytes} "
                                "bytes; closing connection"
                            ),
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # clean EOF
                if not line.strip():
                    continue
                await self._dispatch(line, writer, write_lock, conn_replies)
        finally:
            # Let pipelined replies finish writing before the socket
            # goes away (EOF on the read side does not mean the client
            # stopped listening).
            if conn_replies:
                await asyncio.gather(*conn_replies, return_exceptions=True)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, reply: dict
    ) -> bool:
        try:
            async with lock:
                writer.write(encode_reply(reply))
                await writer.drain()
            return True
        except (ConnectionError, OSError):
            # Client hung up mid-reply; nothing to corrupt, nothing to
            # retry — count it and move on.
            self.metrics.counter("serve.dropped_replies").inc()
            return False

    async def _dispatch(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        conn_replies: set[asyncio.Task],
    ) -> None:
        try:
            frame = parse_frame(line)
        except ProtocolError as exc:
            self.metrics.counter("serve.protocol_errors").inc()
            await self._write(writer, write_lock, error_reply(None, exc))
            return
        if isinstance(frame, ControlFrame):
            await self._control(frame, writer, write_lock)
            return
        reply = self._admit(frame)
        if reply is not None:  # rejected: typed reply, never a hang
            await self._write(writer, write_lock, reply)
            return
        pending = self._pending_from(frame)
        if isinstance(pending, dict):  # request construction failed
            await self._write(writer, write_lock, pending)
            return
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.metrics.counter("serve.shed_overload").inc()
            await self._write(
                writer,
                write_lock,
                error_reply(
                    frame.id,
                    OverloadError(
                        f"intake queue full ({self.config.max_queue}); retry"
                    ),
                ),
            )
            return
        self.metrics.counter("serve.admitted").inc()
        self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        task = asyncio.create_task(
            self._reply_when_done(pending, writer, write_lock)
        )
        conn_replies.add(task)
        self._reply_tasks.add(task)
        task.add_done_callback(conn_replies.discard)
        task.add_done_callback(self._reply_tasks.discard)

    def _admit(self, frame: SolveFrame) -> dict | None:
        """Admission control: a typed rejection reply, or None to admit."""
        if self._draining:
            self.metrics.counter("serve.shed_draining").inc()
            return error_reply(
                frame.id, OverloadError("server is draining; not accepting work")
            )
        if self.breaker.open:
            self.metrics.counter("serve.breaker_rejections").inc()
            return error_reply(
                frame.id,
                OverloadError(
                    "circuit breaker open after "
                    f"{self.breaker.consecutive_failures} consecutive batch "
                    f"failures; retry in {self.config.breaker_cooldown_s:g}s"
                ),
            )
        return None

    def _mint_context(self, frame: SolveFrame) -> TraceContext:
        """The request's root trace context, minted at admission.

        A client-supplied ``trace`` joins the request to the caller's
        trace: its trace_id is adopted (so the head-sampling decision is
        deterministic across retries and processes) and its span_id, if
        any, becomes the parent of the server's root span.
        """
        if frame.trace is not None:
            trace_id = frame.trace["trace_id"]
            parent_id = frame.trace.get("span_id")
        else:
            trace_id = new_trace_id()
            parent_id = None
        return TraceContext(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            sampled=self.sampling.sample_head(trace_id),
        )

    def _pending_from(self, frame: SolveFrame) -> _Pending | dict:
        """Build the queued request, or a typed reply if that fails."""
        now = self.clock()
        deadline_ms = frame.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        ctx = self._mint_context(frame)
        try:
            values = np.asarray(frame.values)
            request = BatchRequest(
                frame.signature,
                values,
                dtype=np.dtype(frame.dtype) if frame.dtype else None,
                tag=frame.id,
                deadline=deadline,
                trace=ctx,
            )
        except ReproError as exc:
            self.metrics.counter("serve.rejected_requests").inc()
            return error_reply(frame.id, exc)
        except (TypeError, ValueError) as exc:
            self.metrics.counter("serve.rejected_requests").inc()
            return error_reply(frame.id, ProtocolError(f"bad request: {exc}"))
        future = asyncio.get_running_loop().create_future()
        return _Pending(request, future, arrival=now, reply_id=frame.id, ctx=ctx)

    async def _reply_when_done(
        self,
        pending: _Pending,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        reply = await pending.future
        latency_ms = (self.clock() - pending.arrival) * 1000.0
        ok = bool(reply.get("ok"))
        reply.setdefault("trace_id", pending.ctx.trace_id)
        self.metrics.histogram(
            "serve.latency_ms", self.config.latency_buckets_ms
        ).observe(latency_ms)
        self.slo.record(ok=ok, latency_ms=latency_ms)
        if self.tracer.enabled:
            # The request's root span: admission to reply, parent of the
            # whole engine/resilience/solver tree.
            dur_us = latency_ms * 1000.0
            self.tracer.complete(
                "serve_request",
                self.tracer.now() - dur_us,
                dur_us,
                cat="serve",
                args={"ok": ok, "engine": reply.get("engine")},
                link=pending.ctx,
            )
        if self.trace_log is not None:
            self.trace_log.record(
                trace_id=pending.ctx.trace_id,
                ok=ok,
                latency_ms=latency_ms,
                error=reply.get("error"),
                engine=reply.get("engine"),
            )
        await self._write(writer, write_lock, reply)

    # -- control ops -----------------------------------------------------
    async def _control(
        self,
        frame: ControlFrame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if frame.op == "ping":
            await self._write(
                writer,
                write_lock,
                {"id": frame.id, "ok": True, "op": "ping"},
            )
        elif frame.op == "metrics":
            if frame.format == "prometheus":
                reply = {
                    "id": frame.id,
                    "ok": True,
                    "op": "metrics",
                    "format": "prometheus",
                    "body": prometheus_text(self.metrics),
                }
            else:
                reply = self._metrics_reply(frame.id)
            await self._write(writer, write_lock, reply)
        elif frame.op == "slo":
            await self._write(
                writer,
                write_lock,
                {"id": frame.id, "ok": True, "op": "slo", "slo": self.slo.report()},
            )
        elif frame.op == "drain":
            # Acknowledge first — once the drain completes, this
            # connection is closing.
            await self._write(
                writer,
                write_lock,
                {"id": frame.id, "ok": True, "op": "drain", "draining": True},
            )
            asyncio.ensure_future(self.drain())

    def _metrics_reply(self, reply_id: object) -> dict:
        latency = self.metrics.histogram(
            "serve.latency_ms", self.config.latency_buckets_ms
        )
        occupancy = self.metrics.histogram("serve.batch_occupancy")
        return {
            "id": reply_id,
            "ok": True,
            "op": "metrics",
            "metrics": self.metrics.snapshot(),
            "serving": {
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "draining": self._draining,
                "breaker": {
                    "open": self.breaker.open,
                    "consecutive_failures": self.breaker.consecutive_failures,
                    "trips": self.breaker.trips,
                },
                "latency_ms": {
                    "count": latency.count,
                    "p50": latency.percentile(50),
                    "p99": latency.percentile(99),
                },
                "batch_occupancy": {
                    "count": occupancy.count,
                    "mean": occupancy.mean,
                },
                "tracing": {
                    "dropped_events": self.tracer.dropped,
                    "trace_log": (
                        self.trace_log.stats()
                        if self.trace_log is not None
                        else None
                    ),
                },
            },
        }

    # -- the micro-batcher ----------------------------------------------
    async def _batch_loop(self) -> None:
        """Coalesce the intake queue into flushes; never dies."""
        loop = asyncio.get_running_loop()
        shutting_down = False
        while not shutting_down:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                break
            batch = [item]
            flush_at = loop.time() + self.config.flush_ms / 1000.0
            while len(batch) < self.config.max_batch:
                remaining = flush_at - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is _SHUTDOWN:
                    shutting_down = True
                    break
                batch.append(nxt)
            self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
            self.metrics.histogram("serve.batch_occupancy").observe(len(batch))
            self.metrics.counter("serve.flushes").inc()
            await self._execute_flush(batch)

    def _flush_context(self, batch: list[_Pending]) -> TraceContext | None:
        """The trace context of one flush.

        A single-request flush belongs to that request's trace (child of
        its root span); a multi-request flush is shared work, so it gets
        a trace of its own with the member traces attached as span links
        (``linked_traces``) rather than claiming any one request's tree.
        """
        if not self.tracer.enabled:
            return None
        if len(batch) == 1:
            return batch[0].ctx.child()
        return TraceContext.new()

    async def _execute_flush(self, batch: list[_Pending]) -> None:
        requests = [p.request for p in batch]
        flush_ctx = self._flush_context(batch)
        span_args: dict = {"batch": len(batch)}
        if flush_ctx is not None and len(batch) > 1:
            members = sorted({p.ctx.trace_id for p in batch})
            span_args["linked_traces"] = members
        try:
            with self.tracer.span(
                "serve_flush", cat="serve", args=span_args, link=flush_ctx
            ):
                outcomes = await asyncio.to_thread(
                    self.engine.execute, requests, context=flush_ctx
                )
        except ReproError as exc:
            self._fail_flush(batch, exc)
            return
        except Exception as exc:  # noqa: BLE001 — invariant: typed reply always
            self._fail_flush(
                batch, ServerError(f"{type(exc).__name__}: {exc}")
            )
            return
        self.breaker.record_success()
        self.metrics.gauge("serve.breaker_open").set(0)
        for pending, outcome in zip(batch, outcomes):
            if not pending.future.done():
                pending.future.set_result(
                    self._outcome_reply(pending.reply_id, outcome)
                )

    def _fail_flush(self, batch: list[_Pending], error: ReproError) -> None:
        """A whole flush failed: typed replies, breaker accounting."""
        self.metrics.counter("serve.flush_failures").inc()
        trips_before = self.breaker.trips
        self.breaker.record_failure()
        if self.breaker.trips > trips_before:
            self.metrics.counter("serve.breaker_trips").inc()
        self.metrics.gauge("serve.breaker_open").set(int(self.breaker.open))
        for pending in batch:
            if not pending.future.done():
                pending.future.set_result(
                    error_reply(pending.reply_id, error)
                )

    @staticmethod
    def _outcome_reply(reply_id: object, outcome: RequestOutcome) -> dict:
        if outcome.ok:
            reply = {
                "id": reply_id,
                "ok": True,
                "output": np.asarray(outcome.output).tolist(),
                "engine": outcome.engine,
            }
            if outcome.degradations:
                reply["degradations"] = list(outcome.degradations)
            return reply
        return error_reply(reply_id, outcome.error)
