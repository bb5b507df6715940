"""Throughput of the serving layer's adaptive micro-batching.

The point of :mod:`repro.serve`: N pipelined clients sharing a
signature should be coalesced into a handful of grouped engine passes,
so the per-request cost approaches the batched engine's, not the
per-request loop's.  Two claims, asserted:

* a pipelined stream of B requests is flushed in far fewer than B
  engine passes (``serve.flushes`` counts the coalescing), and
* every reply is bit-correct against the serial reference even at full
  pipeline depth.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py -q``
(benchmarks are excluded from the tier-1 ``tests/`` run by pytest's
``testpaths``).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import parse_signature
from repro.core.reference import serial_full
from repro.obs import MetricsRegistry
from repro.serve import PLRServer, ServeClient, ServeConfig

B = 64
N = 2048
SIGNATURE = "(1: 2, -1)"
PARSED = parse_signature(SIGNATURE)


def _values(seed: int = 20180324) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-100, 100, size=(B, N)).astype(np.int64)


async def _pipelined_round(server: PLRServer, values: np.ndarray) -> tuple[float, list[dict]]:
    client = await ServeClient.connect(server.address)
    try:
        t0 = time.perf_counter()
        for i in range(B):
            await client.send(
                {"id": i, "signature": SIGNATURE, "values": values[i].tolist()}
            )
        replies = [await client.recv() for _ in range(B)]
        elapsed = time.perf_counter() - t0
    finally:
        await client.close()
    return elapsed, replies


@pytest.mark.serve
def test_pipelined_stream_coalesces_and_stays_correct():
    values = _values()
    expected = serial_full(values[0], PARSED)

    async def run() -> tuple[float, list[dict], dict]:
        metrics = MetricsRegistry()
        server = PLRServer(
            ServeConfig(port=0, max_batch=B, flush_ms=5.0),
            metrics=metrics,
        )
        await server.start()
        try:
            # Warm-up round: factor tables, thread pool, allocator.
            await _pipelined_round(server, values)
            elapsed, replies = await _pipelined_round(server, values)
        finally:
            await server.aclose()
        return elapsed, replies, metrics.snapshot()

    elapsed, replies, snapshot = asyncio.run(asyncio.wait_for(run(), timeout=120))

    by_id = {reply["id"]: reply for reply in replies}
    assert len(by_id) == B
    for i in range(B):
        reply = by_id[i]
        assert reply["ok"], reply
        got = np.asarray(reply["output"])
        ref = serial_full(values[i], PARSED, dtype=got.dtype)
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(
        np.asarray(by_id[0]["output"]), expected.astype(np.asarray(by_id[0]["output"]).dtype)
    )

    flushes = snapshot["counters"]["serve.flushes"]
    words = B * N
    print(
        f"\nB={B} n={N}: {elapsed * 1e3:.1f} ms pipelined "
        f"({words / elapsed / 1e6:.1f} M words/s) in {flushes} flushes "
        f"for {2 * B} admitted requests"
    )
    # Coalescing is the whole point: far fewer engine passes than
    # requests.  The bound is loose (scheduling jitter can split a
    # stream) but a per-request server would see one flush each.
    assert flushes <= B, f"{flushes} flushes for {2 * B} requests: no coalescing"


@pytest.mark.serve
@pytest.mark.benchmark(group="serve-throughput")
def test_bench_pipelined_stream(benchmark):
    values = _values()

    async def session() -> None:
        metrics = MetricsRegistry()
        server = PLRServer(
            ServeConfig(port=0, max_batch=B, flush_ms=5.0),
            metrics=metrics,
        )
        await server.start()
        try:
            await _pipelined_round(server, values)
        finally:
            await server.aclose()

    benchmark(lambda: asyncio.run(asyncio.wait_for(session(), timeout=120)))
