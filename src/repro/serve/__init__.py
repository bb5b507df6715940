"""repro.serve — the robust serving layer.

A long-running asyncio server speaking newline-delimited JSON over TCP
or a Unix socket.  Requests are coalesced into
:class:`~repro.batch.planner.BatchPlanner` groups under adaptive
micro-batching; robustness is load-bearing: per-request deadlines with
cooperative cancellation, admission control over a bounded intake
queue, typed load shedding, a circuit breaker, per-request failure
isolation, and graceful drain.

See ``docs/serving.md`` for the protocol and semantics, and
:mod:`repro.serve.chaos` for the hostile-client test harness.
"""

from repro.serve.protocol import (
    CONTROL_OPS,
    MAX_LINE_BYTES,
    ControlFrame,
    ServerError,
    SolveFrame,
    encode_reply,
    error_reply,
    parse_frame,
)
from repro.serve.server import CircuitBreaker, PLRServer, ServeConfig
from repro.serve.client import ServeClient

__all__ = [
    "CONTROL_OPS",
    "CircuitBreaker",
    "ControlFrame",
    "MAX_LINE_BYTES",
    "PLRServer",
    "ServeClient",
    "ServeConfig",
    "ServerError",
    "SolveFrame",
    "encode_reply",
    "error_reply",
    "parse_frame",
]
